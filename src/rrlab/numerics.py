"""Arbitrary-precision numeric substrate shared by all modules.

Every numeric operation in this package runs under a PrecisionContext, which
owns an independent mpmath context (so two precisions never interfere and
contexts are safe to use from separate threads).  Real and complex values are
plain mpmath ``mpf``/``mpc`` instances created through the context.

Error control is by precision doubling rather than interval arithmetic:
recompute under a context with twice the mantissa bits and compare with
``agree_bits``.  A result is trusted to ``bits - guard_bits`` significant bits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from mpmath.ctx_mp import MPContext

__all__ = [
    "RootMode",
    "PrecisionContext",
    "Nome",
    "root",
    "golden_phi",
    "agree_bits",
]

# Internal stopping thresholds sit this many bits below the reported
# tolerance, so truncation error never dominates the guard-bit budget.
SAFETY_BITS = 12


class RootMode(enum.Enum):
    """Branch choice for k-th roots.

    PRINCIPAL: argument of the result lies in (-pi/k, pi/k].
    REAL_ODD:  real k-th root of a real number, defined only for odd k.
    """

    PRINCIPAL = "principal"
    REAL_ODD = "real-odd"


class PrecisionContext:
    """Working precision in bits, guard bits, and iteration cap.

    ``tol = 2**-(bits - guard_bits)`` is the reported tolerance: two
    evaluations of the same quantity under this context and its doubled
    context agree to at least ``bits - guard_bits`` bits.
    """

    __slots__ = ("bits", "guard_bits", "max_iter", "mp", "_phi")

    def __init__(self, bits: int = 256, guard_bits: int = 32, max_iter: int = 10**6):
        if bits <= 0 or guard_bits <= 0:
            raise ValueError("bits and guard_bits must be positive")
        if bits <= guard_bits:
            raise ValueError(f"bits ({bits}) must exceed guard_bits ({guard_bits})")
        if max_iter <= 0:
            raise ValueError("max_iter must be positive")
        self.bits = bits
        self.guard_bits = guard_bits
        self.max_iter = max_iter
        self.mp = MPContext()
        self.mp.prec = bits
        self._phi = None

    # -- derived quantities -------------------------------------------------

    @property
    def tol(self):
        """Reported tolerance 2^-(bits - guard_bits), strictly positive."""
        return self.mp.ldexp(1, -(self.bits - self.guard_bits))

    @property
    def stop_bits(self) -> int:
        """-log2 of stop_tol."""
        return self.bits - self.guard_bits + SAFETY_BITS

    @property
    def stop_tol(self):
        """Internal stopping threshold, SAFETY_BITS below tol."""
        return self.mp.ldexp(1, -self.stop_bits)

    @property
    def noise_floor(self):
        """Magnitude below which a value is indistinguishable from rounding noise."""
        return self.mp.ldexp(1, -(self.bits // 2))

    @property
    def digits(self) -> int:
        """Decimal digits actually earned at this precision."""
        return int((self.bits - self.guard_bits) * math.log10(2))

    def doubled(self) -> "PrecisionContext":
        return PrecisionContext(2 * self.bits, self.guard_bits, self.max_iter)

    # -- conversions ---------------------------------------------------------

    def real(self, x):
        """Convert to mpf at this context's precision (exact for Fraction/int)."""
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / x.denominator
        return self.mp.mpf(x)

    def number(self, x):
        """Convert to mpf or mpc, preserving realness."""
        if isinstance(x, Fraction):
            return self.mp.mpf(x.numerator) / x.denominator
        v = self.mp.convert(x)
        if isinstance(v, self.mp.mpc) and v.imag == 0:
            return v.real
        return v

    def __repr__(self):
        return (
            f"PrecisionContext(bits={self.bits}, guard_bits={self.guard_bits}, "
            f"max_iter={self.max_iter})"
        )


_NOME_FORMS = ("rational", "exp", "exp-sqrt")


@dataclass(frozen=True)
class Nome:
    """A nome q that regenerates at any context precision.

    ``form`` is "rational" (q = arg exactly), "exp" (q = exp(-pi*arg)) or
    "exp-sqrt" (q = exp(-pi*sqrt(arg))); the exponential forms need arg > 0.
    The constructors accept anything ``Fraction`` does, such as "1/10".
    """

    form: str
    arg: Fraction

    def __post_init__(self):
        if self.form not in _NOME_FORMS:
            raise ValueError(f"unknown nome form {self.form!r}")
        try:
            arg = Fraction(self.arg)
        except ZeroDivisionError:
            raise ValueError(f"nome argument {self.arg!r} has a zero denominator") from None
        if self.form != "rational" and arg <= 0:
            raise ValueError(f"{self.form} nome needs a positive argument, got {arg}")
        object.__setattr__(self, "arg", arg)

    @classmethod
    def rational(cls, x) -> "Nome":
        return cls("rational", x)

    @classmethod
    def exp(cls, s) -> "Nome":
        return cls("exp", s)

    @classmethod
    def exp_sqrt(cls, n) -> "Nome":
        return cls("exp-sqrt", n)

    def value(self, ctx: PrecisionContext):
        x = ctx.real(self.arg)
        if self.form == "rational":
            return x
        if self.form == "exp-sqrt":
            x = ctx.mp.sqrt(x)
        return ctx.mp.exp(-ctx.mp.pi * x)


def root(z, k: int, mode: RootMode, ctx: PrecisionContext):
    """k-th root of z under the requested branch.

    PRINCIPAL returns |z|^(1/k) * exp(i*arg(z)/k) with arg(z) in (-pi, pi],
    so the result's argument lies in (-pi/k, pi/k].  REAL_ODD requires real z
    and odd k and returns the real root (sign-preserving).
    """
    if k < 1:
        raise ValueError(f"root degree must be >= 1, got {k}")
    mp = ctx.mp
    z = ctx.number(z)
    if mode is RootMode.REAL_ODD:
        if isinstance(z, mp.mpc):
            raise ValueError("REAL_ODD root requested for non-real value")
        if k % 2 == 0:
            raise ValueError(f"REAL_ODD root requested for even degree {k}")
        if z < 0:
            return -mp.root(-z, k)
        return mp.root(z, k)
    # principal branch
    if not isinstance(z, mp.mpc) and z >= 0:
        return mp.root(z, k)
    w = mp.root(mp.mpc(z), k)
    if w.imag == 0:
        return w.real
    return w


def golden_phi(ctx: PrecisionContext):
    """The golden ratio (sqrt(5) + 1)/2 at context precision (memoized)."""
    if ctx._phi is None:
        ctx._phi = (ctx.mp.sqrt(5) + 1) / 2
    return ctx._phi


def agree_bits(x, y, ctx: PrecisionContext) -> int:
    """Number of significant bits on which x and y agree.

    Returns floor(-log2(|x - y| / max(|x|, |y|, 1))) clamped to [0, ctx.bits].
    Identical values clamp to ctx.bits.
    """
    mp = ctx.mp
    x = ctx.number(x)
    y = ctx.number(y)
    d = abs(x - y)
    if d == 0:
        return ctx.bits
    scale = max(abs(x), abs(y), mp.mpf(1))
    b = int(mp.floor(-mp.log(d / scale, 2)))
    return max(0, min(ctx.bits, b))
