"""Generalized continued fraction evaluation and root-of-unity classification.

A continued fraction b0 + a1/(b1 + a2/(b2 + ...)) is described by a CFSpec:
the leading term b0 and a generator k -> (a_k, b_k) for k >= 1.

Finite evaluation uses the backward recurrence and is exact on rational
input.  Infinite evaluation of a periodic spec is decided from one period's
Moebius product (the classical periodic-fraction theorem): divergence is
decided there and nowhere else.  Any other spec goes through the forward
convergent recurrence A_k = b_k*A_{k-1} + a_k*A_{k-2} (B_k likewise) with
joint rescaling and a two-difference stopping rule; one that has not
converged by max_iter ends MAX_ITERATIONS, without a value.

Non-convergence has one exception type, ConvergenceError: a CFResult's value
is read through CFResult.require, and every other loop bounded by max_iter
in the package iterates over ``bounded``, which raises it at the cap.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Callable, Optional

from mpmath import libmp, mp as _mp

from .numerics import PrecisionContext, RootMode, golden_phi, root

__all__ = [
    "CFSpec",
    "CFStatus",
    "CFResult",
    "ConvergenceError",
    "bounded",
    "ZeroDenominatorError",
    "DivergenceError",
    "eval_finite",
    "eval_infinite",
    "convergents",
    "rr_cf",
    "rr_cfspec",
    "legendre5",
    "schur_classify",
    "SchurClassification",
    "rr_at_root_of_unity",
    "rr_root_of_unity_spec",
    "rr_root_of_unity_direct",
]


class ZeroDenominatorError(ZeroDivisionError):
    """Backward evaluation hit a zero denominator at a known depth."""

    def __init__(self, depth: int):
        self.depth = depth
        super().__init__(f"zero denominator in backward pass at depth {depth}")


class DivergenceError(ValueError):
    """The requested continued fraction diverges on its stated domain."""


@dataclass(frozen=True)
class CFSpec:
    """b0 plus an indexed generator k -> (a_k, b_k).

    ``period`` states that the terms repeat, terms(k + period) == terms(k)
    for every k >= 1; eval_infinite then decides the fraction from one period.
    """

    b0: object
    terms: Callable[[int], tuple]
    period: Optional[int] = None


class CFStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max-iterations"
    DIVERGES = "diverges"


class ConvergenceError(RuntimeError):
    """A route stopped without a value: how it ended and after how many iterations."""

    def __init__(self, route: str, status: CFStatus, iterations: int):
        self.route = route
        self.status = status
        self.iterations = iterations
        super().__init__(f"{route} did not converge: {status.value} after {iterations} iterations")


def bounded(route: str, ctx: PrecisionContext):
    """Iteration indices 1..ctx.max_iter for a loop that returns or breaks once
    it has converged; running past the last one raises ConvergenceError."""
    yield from range(1, ctx.max_iter + 1)
    raise ConvergenceError(route, CFStatus.MAX_ITERATIONS, ctx.max_iter)


@dataclass(frozen=True)
class CFResult:
    value: object
    iterations: int
    status: CFStatus

    @property
    def converged(self) -> bool:
        return self.status is CFStatus.CONVERGED

    def require(self, route: str):
        """The value if converged; otherwise raise ConvergenceError naming the route."""
        if not self.converged:
            raise ConvergenceError(route, self.status, self.iterations)
        return self.value


def eval_finite(spec: CFSpec, n: int):
    """Value of the depth-n truncation, by backward recurrence.

    Works in the arithmetic of b0 and the generated terms, so it is exact
    when they are rational (or exact series).  Raises ZeroDenominatorError
    identifying the depth where the backward pass divides by zero.
    """
    if n < 0:
        raise ValueError("depth must be nonnegative")
    if n == 0:
        return spec.b0
    _, b_n = spec.terms(n)
    v = b_n
    for k in range(n - 1, -1, -1):
        a_next, _ = spec.terms(k + 1)
        if v == 0:
            raise ZeroDenominatorError(k + 1)
        b_k = spec.b0 if k == 0 else spec.terms(k)[1]
        v = b_k + a_next / v
    return v


def convergents(spec: CFSpec, n: int):
    """Yield (k, A_k, B_k) for k = 1..n by the forward recurrence, no rescaling.

    Exact on rational input; used for the determinant identity
    A_k*B_{k-1} - A_{k-1}*B_k = (-1)^(k-1) * prod_{j<=k} a_j.
    """
    a_prev, a_cur = 1, spec.b0
    b_prev, b_cur = 0, 1
    for k in range(1, n + 1):
        a_k, b_k = spec.terms(k)
        a_cur, a_prev = b_k * a_cur + a_k * a_prev, a_cur
        b_cur, b_prev = b_k * b_cur + a_k * b_prev, b_cur
        yield k, a_cur, b_cur


def eval_infinite(spec: CFSpec, ctx: PrecisionContext) -> CFResult:
    """Evaluate an infinite continued fraction under the context.

    A spec with a ``period`` is decided from one period (see _eval_periodic):
    CONVERGED, or DIVERGES without a value, reporting ``period`` iterations.
    Only a parabolic period falls through to the forward recurrence, which
    serves every other spec.  It stops as CONVERGED when two consecutive
    convergent differences fall below the internal threshold and the
    candidate limit is distinguishable from accumulated rounding noise, or
    the convergents are exactly stationary; otherwise it runs to
    ctx.max_iter and reports MAX_ITERATIONS without a value.  Transient
    B_k = 0 is tolerated by skipping the undefined convergent.
    """
    if spec.period is not None:
        decided = _eval_periodic(spec, ctx)
        if decided is not None:
            return decided

    mp = ctx.mp
    stop = ctx.stop_tol
    floor = ctx.noise_floor
    bits = ctx.bits
    rescale = mp.ldexp(1, -bits)

    a_prev = mp.mpf(1)
    a_cur = ctx.number(spec.b0)
    b_prev = mp.mpf(0)
    b_cur = mp.mpf(1)
    f1 = f2 = None  # the two previous convergents, None where B_k = 0

    for k in range(1, ctx.max_iter + 1):
        a_k, b_k = spec.terms(k)
        a_k = ctx.number(a_k)
        b_k = ctx.number(b_k)
        a_cur, a_prev = b_k * a_cur + a_k * a_prev, a_cur
        b_cur, b_prev = b_k * b_cur + a_k * b_prev, b_cur
        if mp.mag(b_cur) > bits or mp.mag(a_cur) > bits:
            a_cur *= rescale
            a_prev *= rescale
            b_cur *= rescale
            b_prev *= rescale
        f = a_cur / b_cur if b_cur != 0 else None
        if f is not None and f1 is not None and f2 is not None:
            if (
                abs(f - f1) < stop
                and abs(f - f2) < stop
                and (abs(f) > floor or f == f1 == f2)
            ):
                return CFResult(f, k, CFStatus.CONVERGED)
        f1, f2 = f, f1
    return CFResult(None, ctx.max_iter, CFStatus.MAX_ITERATIONS)


def _period_product(spec: CFSpec, ctx: PrecisionContext):
    """One period's product M = T_1...T_n, T_k = [[0, a_k], [1, b_k]].

    Returns (M, partial, growth): M as (a, b, c, d) for [[a, b], [c, d]],
    partial[m] = (A_m, B_m) the second column of T_1...T_m for m < n, so that
    the m-th partial map sends 0 to A_m/B_m, and growth the largest binary
    magnitude of any entry on the way.
    """
    mp = ctx.mp
    a, b, c, d = mp.mpf(1), mp.mpf(0), mp.mpf(0), mp.mpf(1)
    partial = []
    growth = 0
    for k in range(1, spec.period + 1):
        partial.append((b, d))
        a_k, b_k = spec.terms(k)
        a_k = ctx.number(a_k)
        b_k = ctx.number(b_k)
        a, b, c, d = b, a * a_k + b * b_k, d, c * a_k + d * b_k
        growth = max(growth, mp.mag(b), mp.mag(d))
    return (a, b, c, d), partial, growth


def _fixed_point(m, lam) -> tuple:
    """Fixed point of w -> (a*w + b)/(c*w + d) with multiplier lam, as (u, v) ~ u/v.

    Both (b, lam - a) and (lam - d, c) are eigenvectors of M for lam; the
    larger one is the better conditioned.
    """
    a, b, c, d = m
    p, q = (b, lam - a), (lam - d, c)
    return p if abs(p[0]) + abs(p[1]) >= abs(q[0]) + abs(q[1]) else q


def _near(points, q, tol_bits: int, mp) -> bool:
    """Whether some point p = (u, v) ~ u/v lies within chordal distance
    2^-tol_bits of the point q, infinity being (1, 0).

    The chordal distance |u*v' - v*u'| / (|(u, v)| * |(u', v')|) is taken
    from binary magnitudes (mp.mag), which fix its logarithm to a few bits.
    """
    u, v = q
    q_mag = max(mp.mag(u), mp.mag(v))
    return any(
        mp.mag(a * v - b * u) - max(mp.mag(a), mp.mag(b)) - q_mag < -tol_bits
        for a, b in points
    )


def _eval_periodic(spec: CFSpec, ctx: PrecisionContext) -> Optional[CFResult]:
    """Decide a periodic fraction from the product M of one period.

    The approximants of index kn + m are M^k applied to S_m(0), the m-th
    partial map at 0 (m < n).  If M is loxodromic, M^k(w) tends to the
    attracting fixed point for every w except the repelling one, so the
    fraction converges to the attracting point unless some S_m(0) is the
    repelling point (then that subsequence stays there) or the attracting
    point is infinity.  An elliptic M rotates every other point about its
    fixed points, so the fraction diverges.  Points are compared in chordal
    distance at the context tolerance.  A zero a_k makes M singular: the
    fraction terminates, the image of M is the attracting point and its
    kernel plays the repelling one, so the same test applies.

    The partial products grow and cancel, losing about twice the binary
    magnitude g of their largest entry.  The product is formed with the
    context's working precision raised by the guard bits; if that does not
    cover the measured loss (2g > guard_bits) it is formed again at
    bits + 2g + guard_bits.  The limit is rounded back to the context's
    precision on return.  Returns None for a parabolic
    M, whose double fixed point is too ill-conditioned to read off; the
    forward recurrence handles it.
    """
    n = spec.period
    mp = ctx.mp
    with mp.workprec(ctx.bits + ctx.guard_bits):
        m, partial, growth = _period_product(spec, ctx)
        if 2 * growth > ctx.guard_bits:
            mp.prec = ctx.bits + 2 * growth + ctx.guard_bits
            m, partial, _ = _period_product(spec, ctx)
        a, b, c, d = m
        trace = a + d
        s = mp.sqrt(trace * trace - 4 * (a * d - b * c))
        big, small = (trace + s) / 2, (trace - s) / 2
        if abs(big) < abs(small):
            big, small = small, big
        floor = ctx.noise_floor
        if abs(s) <= floor * abs(big):
            return None  # parabolic
        if abs(small) >= abs(big) * (1 - floor):
            return CFResult(None, n, CFStatus.DIVERGES)  # elliptic
        attracting = _fixed_point(m, big)
        repelling = _fixed_point(m, small)
        tol_bits = ctx.bits - ctx.guard_bits
        if _near([attracting], (1, 0), tol_bits, mp) or _near(partial, repelling, tol_bits, mp):
            return CFResult(None, n, CFStatus.DIVERGES)
        limit = attracting[0] / attracting[1]
    return CFResult(ctx.number(limit) + ctx.number(spec.b0), n, CFStatus.CONVERGED)


# -- the Rogers-Ramanujan continued fraction ---------------------------------


def rr_cfspec(q) -> CFSpec:
    """CFSpec for R(q) without its q^(1/5) factor: partial numerators 1, q, q^2, ..."""

    def terms(k: int):
        return (q ** (k - 1), 1)

    return CFSpec(b0=0, terms=terms)


def rr_cf(q, mode: RootMode = RootMode.PRINCIPAL, ctx: Optional[PrecisionContext] = None) -> CFResult:
    """Evaluate R(q) for 0 < |q| < 1 or q = +-1.

    A converged fraction is multiplied by root(q, 5, mode); any other result
    is returned as eval_infinite gave it.  For |q| > 1 the fraction diverges
    (DivergenceError).  Unimodular q other than +-1 must go through the
    root-of-unity interface, which handles the primitive-root classification.
    """
    if ctx is None:
        ctx = PrecisionContext()
    qv = ctx.number(q)
    if qv == 0:
        raise ValueError("R(q) requires q != 0")
    aq = abs(qv)
    if aq > 1:
        raise DivergenceError("R(q) diverges for |q| > 1")
    if aq == 1 and qv != 1 and qv != -1:
        raise ValueError(
            "unimodular q other than +-1: use rr_at_root_of_unity / "
            "rr_root_of_unity_direct for primitive roots of unity"
        )
    res = eval_infinite(rr_cfspec(qv), ctx)
    if res.converged:
        res = replace(res, value=root(qv, 5, mode, ctx) * res.value)
    return res


# -- Schur classification at roots of unity ----------------------------------


def legendre5(n: int) -> int:
    """Legendre symbol (n/5): 0 if 5|n, +1 if n = 1,4 (mod 5), else -1."""
    if n <= 0:
        raise ValueError("n must be a positive integer")
    return (0, 1, -1, -1, 1)[n % 5]


@dataclass(frozen=True)
class SchurClassification:
    """Behaviour of R at a primitive n-th root of unity."""

    n: int
    diverges: bool
    lam: Optional[int] = None
    rho: Optional[int] = None
    exponent: Optional[int] = None

    def __post_init__(self):
        if not self.diverges:
            if (self.lam * self.rho * self.n) % 5 != 1:
                raise AssertionError(
                    f"integrality witness failed: lam*rho*n = "
                    f"{self.lam * self.rho * self.n} != 1 (mod 5) for n={self.n}"
                )


def schur_classify(n: int) -> SchurClassification:
    """Classify R at a primitive n-th root of unity.

    Diverges iff 5 | n; otherwise returns lam = (n/5), rho = n mod 5 in
    [1,4], and the exact integer exponent (lam*rho*n - 1)/5.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")
    if n % 5 == 0:
        return SchurClassification(n=n, diverges=True)
    lam = legendre5(n)
    rho = n % 5
    num = lam * rho * n - 1
    assert num % 5 == 0
    return SchurClassification(n=n, diverges=False, lam=lam, rho=rho, exponent=num // 5)


@dataclass(frozen=True)
class _UnitRoot:
    """exp(2*pi*i*num/den), exact: mpmath's ``_mpmath_`` conversion hook
    evaluates it at the precision of whichever context reads it (the global
    context's mpc only carries the rounded parts across)."""

    num: int
    den: int

    def _mpmath_(self, prec: int, rounding: str):
        turns = 2 * self.num % (2 * self.den)  # exp(i*pi*turns/den)
        if turns % self.den == 0:
            return 1 if turns == 0 else -1
        x = libmp.from_rational(turns, self.den, prec, rounding)
        return _mp.make_mpc(libmp.mpf_cos_sin_pi(x, prec, rounding))


def rr_at_root_of_unity(n: int, j: int = 1, ctx: Optional[PrecisionContext] = None):
    """Value of R at q = exp(2*pi*i*j/n) by the classification formula.

    Returns lam * q^e * R(lam) with e the classification exponent,
    R(+1) = (sqrt(5)-1)/2 and R(-1) = -phi.  Raises DivergenceError if 5 | n.
    """
    if ctx is None:
        ctx = PrecisionContext()
    if math.gcd(j, n) != 1:
        raise ValueError(f"j={j} is not coprime to n={n}: q is not a primitive root")
    cls = schur_classify(n)
    if cls.diverges:
        raise DivergenceError(f"R diverges at primitive {n}-th roots of unity (5 | n)")
    phi = golden_phi(ctx)
    r_lam = 1 / phi if cls.lam == 1 else -phi
    return cls.lam * ctx.number(_UnitRoot(j * cls.exponent, n)) * r_lam


def rr_root_of_unity_spec(n: int, j: int = 1) -> CFSpec:
    """CFSpec of the prefactor-free fraction at q = exp(2*pi*i*j/n), period n.

    Each power q^(k-1) is the exact root exp(2*pi*i*r/n) with r = (k-1)*j
    reduced mod n, converted at the precision of the evaluating context, so
    no precision decays with depth or is capped by the spec.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")

    def terms(k: int):
        return (_UnitRoot((k - 1) * j % n, n), 1)

    return CFSpec(b0=0, terms=terms, period=n)


def rr_root_of_unity_direct(n: int, j: int = 1, ctx: Optional[PrecisionContext] = None) -> CFResult:
    """Evaluate R at a primitive n-th root of unity from the fraction itself.

    The prefactor-free fraction is periodic with period n, so eval_infinite
    decides it from one period's product in n terms, independently of
    Schur's formula.  Its limit F satisfies F = q^e * R(lam), so the
    Legendre sign lam plays the role of the fifth-root prefactor here: the
    returned value is lam * F, directly comparable with rr_at_root_of_unity.
    Where the fraction has no limit (5 | n) the result is DIVERGES after n
    iterations, with no value.
    """
    if ctx is None:
        ctx = PrecisionContext()
    spec = rr_root_of_unity_spec(n, j)  # first: it rejects n <= 0
    if math.gcd(j, n) != 1:
        raise ValueError(f"j={j} is not coprime to n={n}: q is not a primitive root")
    res = eval_infinite(spec, ctx)
    if not res.converged:
        return res
    return replace(res, value=legendre5(n) * res.value)
