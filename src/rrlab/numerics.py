"""Arbitrary-precision numeric substrate shared by all modules.

Every numeric operation in this package runs under a PrecisionContext, an
immutable value that holds an mpmath context at its precision.  Contexts of
one precision share that mpmath context, whose precision nothing changes, so
any thread may use any context.  Code that works wider than its context does
so on ``ctx.widened(extra)``.  Real and complex values are plain mpmath
``mpf``/``mpc`` instances created through the context.

Error control is by proven radii where a kernel has one, and by precision
doubling otherwise.  The Euler-sum kernel (G, H, chi), theta at q >= 0, the cf2
fraction, the transformed theta quotients and the modular relation of R and S
return a ``Ball`` (as in Arb, F. Johansson, IEEE Trans. Computers 66, 2017):
their value and a radius that bounds the truncated tail, the fixed-point
rounding and the error of the converted nome.  ``certify`` reads the radius;
a plain number, or a Ball without one, is recomputed on ``ctx.widened(ctx.bits)``.
One exact measure, ``_bits``, reads both figures off the mantissas: the
largest b with d * 2^b <= max(|x|, |y|, 1), d a radius or |x - y|, so both
are relative above 1 and absolute below.  One rule, ``ctx.passes``, judges
every figure at ``bits - guard_bits``: for ``certify``, ``eval`` and ``record``.
One driver, ``check_tables``, runs the (points, sides) tables of every check,
identities and special values alike, through ``record``.

The long loops of the package run on fixed-point Python integers at the
width W of ``_fixed``, and convert back to the context once at the end.
"""

from __future__ import annotations

import contextvars
import enum
import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

from mpmath import libmp, mp as _mp
from mpmath.ctx_mp import MPContext

from .formal import FormalSeries

__all__ = [
    "RootMode",
    "PrecisionContext",
    "Nome",
    "Ball",
    "CFStatus",
    "ConvergenceError",
    "root",
    "golden_phi",
    "agree_bits",
    "certify",
    "record",
    "check_tables",
]

# Internal stopping thresholds sit this many bits below the reported
# tolerance, so truncation error never dominates the guard-bit budget.
SAFETY_BITS = 12

# Units of 2^-W within which ``_fixed`` converts each argument
FIXED_UNITS = 8


class RootMode(enum.Enum):
    """Branch choice for k-th roots.

    PRINCIPAL: argument of the result lies in (-pi/k, pi/k].
    REAL_ODD:  real k-th root of a real number, defined only for odd k.
    """

    PRINCIPAL = "principal"
    REAL_ODD = "real-odd"


@dataclass(frozen=True, slots=True)
class PrecisionContext:
    """Working precision in bits, guard bits, and iteration cap.

    ``tol = 2**-(bits - guard_bits)`` is the reported tolerance: a figure
    passes (``passes``) when it earns ``bits - guard_bits`` bits, that is,
    when |x - y| <= tol * max(|x|, |y|, 1).

    ``mp`` is the process's mpmath context at this precision (see _mp_at).
    A context never changes, so threads may share it; code that needs more
    bits works on ``widened``, never by raising ``mp.prec``.
    """

    bits: int = 256
    guard_bits: int = 32
    max_iter: int = 10**6
    mp: MPContext = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.check(self.bits, self.guard_bits, self.max_iter)
        object.__setattr__(self, "mp", _mp_at(self.bits))

    @staticmethod
    def check(bits: int, guard_bits: int, max_iter: int) -> None:
        """Raise ValueError unless the three settings make a usable context."""
        if bits <= 0 or guard_bits <= 0:
            raise ValueError("bits and guard_bits must be positive")
        if bits - guard_bits < 4:
            raise ValueError(f"bits ({bits}) must exceed guard_bits ({guard_bits}) by at least 4")
        if max_iter <= 0:
            raise ValueError("max_iter must be positive")

    # -- derived quantities -------------------------------------------------

    def passes(self, bits: int) -> bool:
        """The one pass rule: a figure of at least bits - guard_bits bits."""
        return bits >= self.bits - self.guard_bits

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

    def widened(self, extra: int) -> "PrecisionContext":
        """These settings at bits + extra, rounded up to a multiple of 32 bits
        so that few precisions, and few mpmath contexts, occur."""
        return PrecisionContext(-(-(self.bits + extra) // 32) * 32, self.guard_bits, self.max_iter)

    def decimal(self, v) -> str:
        """v as printed: exact values (str, int, Fraction) as they are, numbers
        with only the digits earned at this precision, complex ones as (re + imj)."""
        if isinstance(v, (str, int, Fraction)):
            return str(v)
        mp, digits = self.mp, self.digits
        if isinstance(v, mp.mpc) and v.imag != 0:
            return f"({mp.nstr(v.real, digits)} + {mp.nstr(v.imag, digits)}j)"
        return mp.nstr(mp.mpf(v.real if isinstance(v, mp.mpc) else v), digits)

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


@functools.lru_cache(maxsize=8)
def _mp_at(bits: int) -> MPContext:
    """The process's mpmath context at ``bits``, built on first use; the eight
    most recently used precisions are kept."""
    mp = MPContext()
    mp.prec = bits
    return mp


_NOME_FORMS = ("rational", "exp", "exp-sqrt", "unit-root")


@dataclass(frozen=True)
class Nome:
    """A nome q, converted afresh at the precision of whichever context reads it.

    ``form`` is "rational" (q = arg exactly), "exp" (q = exp(-pi*arg)),
    "exp-sqrt" (q = exp(-pi*sqrt(arg))) or "unit-root" (q = exp(2*pi*i*arg));
    the exponential forms need arg > 0.  The constructors accept anything
    ``Fraction`` does, such as "1/10".  ``ctx.number(nome)`` converts it
    through mpmath's ``_mpmath_`` hook at the context's precision, so a
    widened context reads a more precise q.
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
        if self.form.startswith("exp") and arg <= 0:
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

    @classmethod
    def unit_root(cls, j: int, n: int) -> "Nome":
        """q = exp(2*pi*i*j/n)."""
        return cls("unit-root", Fraction(j, n))

    def __neg__(self) -> "Nome":
        """The rational nome -q."""
        if self.form != "rational":
            raise ValueError(f"cannot negate a {self.form} nome")
        return Nome.rational(-self.arg)

    def _mpmath_(self, prec: int, rounding: str):
        num, den = self.arg.numerator, self.arg.denominator
        if self.form == "unit-root":
            turns = 2 * num % (2 * den)  # q = exp(i*pi*turns/den)
            if turns % den == 0:
                return 1 if turns == 0 else -1
            x = libmp.from_rational(turns, den, prec, rounding)
            return _mp.make_mpc(libmp.mpf_cos_sin_pi(x, prec, rounding))
        x = libmp.from_rational(num, den, prec, rounding)
        if self.form == "exp-sqrt":
            x = libmp.mpf_sqrt(x, prec, rounding)
        if self.form != "rational":
            x = libmp.mpf_mul(libmp.mpf_pi(prec, rounding), x, prec, rounding)
            x = libmp.mpf_exp(libmp.mpf_neg(x), prec, rounding)
        return _mp.make_mpf(x)


class CFStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max-iterations"
    DIVERGES = "diverges"


class ConvergenceError(RuntimeError):
    """A route stopped without a value: how it ended and after how many iterations.

    A loop refused before its first iteration (``cf.refuse_early``) ran 0
    iterations and carries ``needed``, the least count it could stop after,
    which exceeds ``max_iter``.
    """

    def __init__(self, route: str, status: CFStatus, iterations: int,
                 needed: Optional[int] = None, max_iter: Optional[int] = None):
        self.route = route
        self.status = status
        self.iterations = iterations
        self.needed = needed
        self.max_iter = max_iter
        if needed is None:
            detail = f"after {iterations} iterations"
        else:
            detail = f"predicted, needs at least {needed} iterations (max_iter {max_iter}), none run"
        super().__init__(f"{route} did not converge: {status.value} {detail}")


def _fixed(ctx: PrecisionContext, route: str, q, *xs):
    """The fixed-point width W of the context, and q and each x as int(v * 2^W).

    W = bits + guard_bits + bit_length(max_iter), so a loop of at most max_iter
    steps that loses one unit of 2^-W per step stays guard_bits clear of the
    context's precision.  An exact argument is converted at width W, not
    rounded to the context's bits first, so it reaches the loop within
    FIXED_UNITS units of 2^-W: a Fraction exactly (truncated to an int, less
    than one unit), a Nome through its ``_mpmath_`` hook at precision W.  A
    rational Nome rounds once; an exponential one rounds its argument
    a = pi s (or pi sqrt(s)) at most four times and exp once, one ulp each,
    which moves q = e^-a by at most e^-a (8a + 2) 2^-W <= (8/e + 2) 2^-W.
    Any other argument is read through ``ctx.number``, an mpf exactly as it
    is.  No conversion changes the precision of the context's mpmath
    context, which threads may share.  An int mantissa m with exponent e
    converts back as ``ctx.mp.mpf((m, e))``.  Raises ValueError unless all
    are real and, when q is not None, |q| < 1; q = None converts only the xs.
    """
    width = ctx.bits + ctx.guard_bits + ctx.max_iter.bit_length()
    out = []
    for x in xs if q is None else (q, *xs):
        if isinstance(x, Fraction):
            out.append(int(Fraction(x.numerator << width, x.denominator)))
            continue
        v = x._mpmath_(width, "n") if isinstance(x, Nome) else ctx.number(x)
        if isinstance(v, int):
            out.append(v << width)
        elif hasattr(v, "_mpf_"):
            out.append(libmp.to_int(libmp.mpf_shift(v._mpf_, width)))
        else:
            raise ValueError(f"{route} takes real arguments, got {v}")
    if q is not None and abs(out[0]) >= 1 << width:
        raise ValueError(f"{route} requires |q| < 1")
    return width, out


def _nome_units(x: int, width: int) -> Optional[int]:
    """A bound, in units of 2^-W, on the relative change that moving q >= 0 by
    FIXED_UNITS units of 2^-W causes in G, H, chi, (-q; q)_inf or theta.

    Each f of them is a product of factors (1 -+ q^k)^-+1 whose log-derivative
    is at most sum_k k q^(k-1)/(1 - q^k) <= 1/((1 - q)(1 - sqrt q)) (AM-GM:
    1 - q^k >= (1 - q) k q^((k-1)/2)) or 2 sum_k k q^(k-1) = 2/(1 - q)^2, so
    d log f/dq <= 2/(1 - q)^2 on [0, q_hi], q_hi = (x + FIXED_UNITS)/2^W.
    With y = FIXED_UNITS 2^-W * 2/(1 - q_hi)^2, f moves by at most
    y e^y f <= 2 y f while y <= 1/2; returns 2 y 2^W, rounded up, or None
    when y > 1/2.
    """
    one = 1 << width
    d = one - x - FIXED_UNITS
    if d <= 0:
        return None
    y = -(-(2 * FIXED_UNITS * one * one) // (d * d))
    return 2 * y if 2 * y <= one else None


@dataclass(frozen=True, slots=True)
class Ball:
    """A number ``mid`` and ``rad``, an mpf rounded up that bounds its error, or None where nothing proves one."""

    mid: object
    rad: object = None

    def times(self, x, ctx: PrecisionContext) -> "Ball":
        """The ball times x, a number of the context within 2^(1-bits) |x| of an exact
        factor: with |x| as rounded, |x| (rad + 2^(3-bits) (|mid| + rad)) holds the
        factor's rounding, the product's, each at most 2^(1-bits) |mid x|, and |x|'s.
        A factor of exactly +-1 (root(-1, 5) in real-odd mode) rounds nothing."""
        if self.rad is None or x in (1, -1):
            return Ball(self.mid * x, self.rad)
        mp = ctx.mp
        grown = mp.fadd(self.rad, mp.ldexp(mp.fadd(abs(self.mid), self.rad, rounding="u"), 3 - ctx.bits), rounding="u")
        return Ball(self.mid * x, mp.fmul(abs(x), grown, rounding="u"))

    def reciprocal(self, ctx: PrecisionContext) -> "Ball":
        """1/mid for a positive mid; proven where rad < mid, since the exact value
        v then has |1/v - 1/mid| <= rad/(mid (mid - rad)), plus the division's rounding."""
        mp, inverse = ctx.mp, 1 / self.mid
        if self.rad is None or self.rad >= self.mid:
            return Ball(inverse)
        low = mp.fmul(self.mid, mp.fsub(self.mid, self.rad, rounding="d"), rounding="d")
        rad = mp.fadd(mp.fdiv(self.rad, low, rounding="u"), mp.ldexp(inverse, 1 - ctx.bits), rounding="u")
        return Ball(inverse, rad)


def _ball(ctx: PrecisionContext, man: int, exp: int, units: Optional[int]) -> Ball:
    """The Ball of man * 2^exp at the context's precision: units bounds its error
    in units of 2^exp, and the radius adds the rounding to ctx.bits (at most
    2^-bits |man| units), or is None where units is."""
    value = ctx.mp.mpf((man, exp))
    if units is None:
        return Ball(value)
    units += (abs(man) >> ctx.bits) + 1
    cut = max(units.bit_length() - ctx.bits, 0)
    return Ball(value, ctx.mp.mpf((-(-units >> cut), exp + cut)))


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
    """The golden ratio (sqrt(5) + 1)/2 at context precision."""
    return (ctx.mp.sqrt(5) + 1) / 2


def _bits(d, scale, ctx: PrecisionContext) -> int:
    """The largest b with d * 2^b <= scale, clamped to [0, ctx.bits], for mpf
    d >= 0 (0 bits if not finite) and scale >= 1, read off the mantissas."""
    if not d:
        return ctx.bits
    _, dm, de, _ = d._mpf_
    _, sm, se, _ = scale._mpf_
    if not (dm and sm):
        return 0  # inf or nan
    shift = sm.bit_length() - dm.bit_length()  # then compare at equal lengths
    b = se - de + shift - (dm << max(shift, 0) > sm << max(-shift, 0))
    return max(0, min(ctx.bits, b))


def _log2(x) -> float:
    """log2|x| for a nonzero mpf, mpc or float, read off the mantissa of |x|."""
    _, man, exp, _ = (x if hasattr(x, "_mpf_") else abs(x))._mpf_
    return math.log2(man) + exp


def agree_bits(x, y, ctx: PrecisionContext) -> int:
    """Number of bits on which x and y agree, relative to max(|x|, |y|, 1):
    floor(-log2(|x - y| / max(|x|, |y|, 1))), |x - y| rounded to the context,
    clamped to [0, ctx.bits] (``_bits``).  Relative for values above 1 and
    absolute below it; identical values clamp to ctx.bits.
    """
    x = ctx.number(x)
    y = ctx.number(y)
    return _bits(abs(x - y), max(abs(x), abs(y), ctx.mp.one), ctx)


# The values one command has computed, by key, while it runs: a dict that
# ``cli.main`` opens for each command and drops when the command returns, and
# None outside a command (see ``qseries._theta_quotient``)
_MEMO = contextvars.ContextVar("rrlab_memo", default=None)


def certify(fn, ctx: PrecisionContext):
    """(the number fn(ctx) gives, the bits that back it), for fn returning a
    Ball or a plain number, which proves nothing.

    When the ball's radius proves bits that pass against max(|mid|, 1)
    (``_bits``, ``ctx.passes``), they are the figure and nothing is recomputed.
    Otherwise the figure is the agree_bits of the number against that of
    fn(ctx.widened(ctx.bits)), the doubled run; a ConvergenceError there is
    raised again with the self-check named.
    """
    first = fn(ctx)
    first = first if isinstance(first, Ball) else Ball(first)
    if first.rad is not None and ctx.passes(bits := _bits(first.rad, max(abs(first.mid), ctx.mp.one), ctx)):
        return first.mid, bits
    doubled = ctx.widened(ctx.bits)
    try:
        second = fn(doubled)
    except ConvergenceError as exc:
        route = f"{exc.route} (precision self-check at {doubled.bits} bits)"
        raise ConvergenceError(route, exc.status, exc.iterations, exc.needed, exc.max_iter) from exc
    return first.mid, agree_bits(first.mid, second.mid if isinstance(second, Ball) else second, ctx)


def record(ctx: PrecisionContext, point: str, lhs, rhs) -> dict:
    """The record of lhs against rhs at a point, judged by the type of the values.

    This is the one record rule of the package.  Exact series pass when they
    agree through the lower of their orders; a mismatch reports its lowest
    exponent and the two coefficients.  Exact values (int, Fraction, str)
    pass when equal, with abs_dev 0 or 1.  Numbers carry their agree_bits
    and pass when ``ctx.passes`` them: |lhs - rhs| <= ctx.tol times
    max(|lhs|, |rhs|, 1).
    """
    bits = None
    if isinstance(lhs, FormalSeries):
        through = min(lhs.order, rhs.order)
        e = lhs.first_mismatch(rhs, through)
        passed = e is None
        if passed:
            point, lhs, rhs, dev = f"{point}, exact through order {through}", "equal", "equal", 0
        else:
            lc, rc = lhs.coeff(e), rhs.coeff(e)
            point, dev = f"{point}: first mismatch at exponent {e}", abs(lc - rc)
            lhs, rhs = str(lc), str(rc)
    elif isinstance(lhs, (int, Fraction, str)):
        passed = lhs == rhs
        dev = 0 if passed else 1
    else:
        dev = abs(lhs - rhs)
        bits = agree_bits(lhs, rhs, ctx)
        passed = ctx.passes(bits)
    return dict(point=point, lhs=lhs, rhs=rhs, abs_dev=dev, agree_bits=bits, passed=passed)


def check_tables(ctx: PrecisionContext, tables) -> list:
    """The records of (points, sides) tables, the one check driver: at each
    (label, point) of points, sides(point, ctx) yields (suffix, lhs, rhs)
    triples only, each judged by ``record`` as the record labelled label + suffix."""
    return [
        record(ctx, label + suffix, lhs, rhs)
        for points, sides in tables
        for label, point in points
        for suffix, lhs, rhs in sides(point, ctx)
    ]
