"""Generalized continued fraction evaluation and root-of-unity classification.

A continued fraction b0 + a1/(b1 + a2/(b2 + ...)) is described by a CFSpec:
the leading term b0 and a generator k -> (a_k, b_k) for k >= 1.

Finite evaluation uses the backward recurrence and is exact on rational
input.  Infinite evaluation of a periodic spec is decided from one period's
Moebius product (the classical periodic-fraction theorem): divergence is
decided there and nowhere else.  Any other spec must have real terms and
goes through the forward convergent recurrence A_k = b_k*A_{k-1} +
a_k*A_{k-2} (B_k likewise), run on W-bit Python integers with joint
renormalisation and a two-difference stopping rule; one that has not
converged by max_iter ends MAX_ITERATIONS, without a value.  A spec whose
terms are all positive ints runs the same recurrence in blocks of
BLOCK_STEPS steps, composed exactly in small ints.

Non-convergence has one exception type, ConvergenceError (defined with
CFStatus in ``numerics``, whose ``certify`` raises it too): a CFResult's value
is read through CFResult.require, and every other loop bounded by max_iter
in the package iterates over ``bounded``, which raises it at the cap.  A loop
whose count has a closed-form lower bound checks it first with
``refuse_early``, which raises before the first iteration when the bound
exceeds the cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from math import log2
from typing import Callable, Optional

from .numerics import FIXED_UNITS, CFStatus, ConvergenceError, Nome, PrecisionContext, RootMode
from .numerics import _ball, _fixed, _prove, golden_phi, root

__all__ = [
    "CFSpec",
    "CFStatus",
    "CFResult",
    "ConvergenceError",
    "bounded",
    "refuse_early",
    "ZeroDenominatorError",
    "DivergenceError",
    "eval_finite",
    "eval_infinite",
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
    ``positive_ints`` states that every a_k and b_k is a positive int;
    eval_infinite then runs the blocked forward recurrence (_eval_blocked),
    which checks each term as it composes it and raises ValueError naming k
    at the first that is not.  Both are facts about the fraction, stated by
    the code that builds the spec, never user options.
    """

    b0: object
    terms: Callable[[int], tuple]
    period: Optional[int] = None
    positive_ints: bool = False


# Steps composed into one small-int matrix by the blocked forward recurrence
# (_eval_blocked).  Its renormalising shift falls at the multiples of it.
BLOCK_STEPS = 32


def bounded(route: str, ctx: PrecisionContext):
    """Iteration indices 1..ctx.max_iter for a loop that returns or breaks once
    it has converged; running past the last one raises ConvergenceError."""
    yield from range(1, ctx.max_iter + 1)
    raise ConvergenceError(route, CFStatus.MAX_ITERATIONS, ctx.max_iter)


def refuse_early(route: str, ctx: PrecisionContext, needed: float) -> int:
    """The least iteration count a loop can stop after, checked against max_iter
    before the loop starts.

    ``needed`` is a lower bound on the count that the caller computes in
    floating point, with its loop's own fixed-point rounding allowed for; it
    is rounded down past the float error (relative 2^-40 and one count).
    When the result exceeds max_iter this raises ConvergenceError
    (max-iterations, 0 iterations, and the count) instead of running into the
    cap; otherwise it returns the count.
    """
    least = max(1, math.floor(needed * (1 - 2.0**-40)) - 1)
    if least > ctx.max_iter:
        raise ConvergenceError(route, CFStatus.MAX_ITERATIONS, 0, least, ctx.max_iter)
    return least


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
    when they are rational.  Raises ZeroDenominatorError
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


def eval_infinite(spec: CFSpec, ctx: PrecisionContext) -> CFResult:
    """Evaluate an infinite continued fraction under the context.

    A spec with a ``period`` is decided from one period (see _eval_periodic):
    CONVERGED, or DIVERGES without a value, reporting ``period`` iterations.
    Only a parabolic period falls through to the forward recurrence, which
    serves every other spec and takes real terms only (ValueError otherwise).
    A spec that declares ``positive_ints`` runs it in blocks of BLOCK_STEPS
    steps (see _eval_blocked); the determinant gate below serves every
    other spec.

    The recurrence runs on integers: A_k and B_k are ints at the width W of
    ``numerics._fixed``, renormalised together by bit_length after every
    term, and each term enters as an exact (mantissa, shift) pair (see
    ``_pair``), so an integer term costs a small-int multiply.  The
    convergent f_k = A_k/B_k is taken at scale 2^W.  The loop stops as
    CONVERGED when two consecutive convergent differences fall below
    ctx.stop_tol and the candidate limit lies above ctx.noise_floor, or the
    convergents are exactly stationary; otherwise it runs to ctx.max_iter and
    reports MAX_ITERATIONS without a value.  Transient B_k = 0 is tolerated
    by skipping the undefined convergent.

    The division that forms f_k is most of a step's cost at high precision,
    and only the stop test reads it, so a determinant gate skips the test at
    steps where it cannot pass; values and iteration counts are those of the
    loop that tests every step.  The test at step k compares the integers
    F_j = floor(A_j 2^W / B_j) of steps k, k-1 and k-2, each formed from
    (A_j, B_j) as they stood at the end of step j (ints are immutable, so
    keeping them costs nothing), and it needs |F_k - F_(k-1)| < stop, where
    stop = 2^max(W - stop_bits, 0).

    The gate.  Let P, Q be (A, B) at the start of a step, P', Q' the pair
    before, and D = P Q' - P' Q.  Exactly, a step maps D to -a_k D and a
    renormalising shift s scales it by 2^-2s; the mixed determinant
    A_k B_(k-1) - A_(k-1) B_k that the test reads is 2^-s (-a_k D).  The
    integer step truncates: each new entry loses two floors of < 1 and each
    shifted entry one of < 2^s.  That moves a_k D by less than
    E = 2^(lam + 2 + 2 max(s, 0)) before the scaling, where |P|, |Q| < 2^lam
    (lam = W + 1, or the width of b0 * 2^W if larger).  A float t starts at
    log2 |D_0| = 2W; a step adds log2 |a_k| to it, giving u, and then -2s.
    While each step has u >= lam + 42 + 2 max(s, 0), truncation changes
    log2 |D| by less than log2(1 - 2^-40) per step, so t stays within slack
    bits of log2 |D|; the first step that breaks this, or has a_k = 0, shuts
    the gate for good.
    slack = max_iter * 2^-30 bounds those losses plus the float rounding of t
    (under 2^-31 a step while W, the shifts and the terms' binary exponents
    stay below 2^18).  With L_j the bit length of B_j, the estimate
    u - s - (L_k - 1) - (L_(k-1) - 1) of log2 |f_k - f_(k-1)| is high by at
    most 2 + slack bits (the bit lengths) and low by at most slack.  Step k
    skips its test while the estimate is at least log2(stop) - W + margin,
    margin = 3 + slack: then |F_k - F_(k-1)| > 2 stop - 1 >= stop, the floors
    of the two F's costing less than one unit.  The argument holds for every
    context PrecisionContext accepts (bits - guard_bits >= 4, SAFETY_BITS =
    12): with one guard bit W may fall below stop_bits, stop is then 1 and the
    test asks for exactly stationary F's, and the gate still skips only tests
    that fail.
    """
    if spec.period is not None:
        decided = _eval_periodic(spec, ctx)
        if decided is not None:
            return decided

    w, (a_cur,) = _fixed(ctx, "continued fraction", None, spec.b0)
    stop_exp = max(w - ctx.stop_bits, 0)
    floor = 1 << (w - ctx.bits // 2)
    if spec.positive_ints:
        return _eval_blocked(spec, ctx, w, a_cur, stop_exp, floor)
    stop = 1 << stop_exp
    a_prev = b_cur = 1 << w
    b_prev = 0
    # (A, B) at the end of the two previous steps, and their convergents where
    # formed (None where not, or where B = 0)
    a1 = b1 = a2 = b2 = 0
    f1 = f2 = None
    # the determinant gate: t tracks log2 |D|, lq1 is L_(k-1)
    slack = ctx.max_iter * 2.0**-30
    valid = max(w + 1, a_cur.bit_length()) + 42 + slack
    margin = 3 + slack
    shut = stop_exp - w - 2 + margin
    gate = True
    t = 2.0 * w
    lq1 = w + 1

    for k in range(1, ctx.max_iter + 1):
        a_k, b_k = spec.terms(k)
        ma, sa = _pair(a_k, ctx)
        mb, sb = _pair(b_k, ctx)
        a_cur, a_prev = (mb * a_cur >> sb) + (ma * a_prev >> sa), a_cur
        b_cur, b_prev = (mb * b_cur >> sb) + (ma * b_prev >> sa), b_cur
        lq = b_cur.bit_length()
        shift = max(a_cur.bit_length(), lq) - w
        if shift > 0:
            a_cur >>= shift
            a_prev >>= shift
            b_cur >>= shift
            b_prev >>= shift
            lq = b_cur.bit_length()
        elif shift < 0 and (a_cur or b_cur):
            a_cur <<= -shift
            a_prev <<= -shift
            b_cur <<= -shift
            b_prev <<= -shift
            lq -= shift
        skip = False
        if gate:
            if ma:
                u = t + log2(abs(ma)) - sa
                t = u - 2 * shift
                gate = u >= valid and t >= valid
                skip = gate and u - shift - lq - lq1 >= shut
            else:
                gate = False
        f = None
        if not skip and b_cur and b1 and b2:
            f = (a_cur << w) // b_cur
            if f1 is None:
                f1 = (a1 << w) // b1
            if f2 is None:
                f2 = (a2 << w) // b2
            if _settled(f, f1, f2, stop, floor):
                return CFResult(ctx.mp.mpf((f, -w)), k, CFStatus.CONVERGED)
        a2, b2, f2 = a1, b1, f1
        a1, b1, f1 = a_cur, b_cur, f
        lq1 = lq
    return CFResult(None, ctx.max_iter, CFStatus.MAX_ITERATIONS)


def _settled(f, f1, f2, stop: int, floor: int) -> bool:
    """The stop test on F_k, F_(k-1), F_(k-2): two differences below stop, and
    the candidate above the noise floor or the three exactly equal."""
    return abs(f - f1) < stop and abs(f - f2) < stop and (abs(f) > floor or f == f1 == f2)


def _eval_blocked(spec: CFSpec, ctx: PrecisionContext, w: int, a_cur: int, stop_exp: int, floor: int):
    """eval_infinite's forward recurrence for a spec that declares positive_ints.

    Steps run in blocks of K = BLOCK_STEPS, the last one cut at max_iter.  A
    block composes its terms' matrices T_k = [[b_k, 1], [a_k, 0]] exactly in
    small ints, (A_e, A_(e-1)) = (A_(s-1), A_(s-2)) T_s ... T_e for steps s..e,
    applies the product once to the W-bit state (A, A', B, B'), and shifts
    the four together by bit_length at the block's end, the one rounding in
    the block.  A term that is not a positive int raises ValueError naming k.

    The stop test is eval_infinite's (_settled), on F_j = floor(A_j 2^W / B_j)
    for the state as it stood after step j.  It runs before the shift, and
    after the shift F_(e-1) and F_e are taken from the shifted state, so at
    every step of a block F_k and F_(k-1) are exact convergents of the same
    fraction: the terms of the block, started from the block's start state.

    No test in the block can pass when B_(s-1) > 0 and
    |D_e| 2^W >= (stop + 1) B_e B_(e-1), D_k = A_k B_(k-1) - A_(k-1) B_k.
    Positive terms keep B_k >= B_(k-1) > 0, and a step maps D to -a_k D, so
    |f_k - f_(k-1)| = |D_k| / (B_k B_(k-1)) shrinks by the factor
    a_k B_(k-2) / (b_k B_(k-1) + a_k B_(k-2)) <= 1 at each step.  Every step
    of the block then has 2^W |f_k - f_(k-1)| >= stop + 1, and the floors cost
    less than one unit, so |F_k - F_(k-1)| > stop.  A block that fails the
    test is replayed one step at a time from its start state, testing every
    step, with the same single shift at its end: blocked and replayed runs
    are bit for bit the same, and the count and value are those of the loop
    that tests every step and shifts only at the multiples of K.

    The value proves its radius to ``certify`` (``numerics._prove``).  With
    positive terms the convergents of a fraction alternate about its limit,
    so the limit f' of the fraction the state describes lies between f_k and
    f_(k-1): within |F_k - F_(k-1)| + 2 units of F_k 2^-W, the floors of the
    two F's included.  f' is the limit of the exact terms started from a state
    that each block-end shift truncated.  A shift floors A, A', B, B', which
    moves N = A w + A' and D = B w + B' by less than w + 1 units, where
    w >= b_(e+1) >= 1 is the exact tail of the fraction; so it moves N/D by
    less than 2(1 + |f|)/B, and B >= 2^(W-1)/max(1, |f|), since A/B is a
    convergent f_e and max(|A|, B) >= 2^(W-1).  Every convergent from the
    first on lies between f_1 and f_2, so |f| < F = floor(|b0|) + floor(a_1/b_1)
    + 3, and each of at most k/K shifts costs at most 4F(F + 1) units.  b0's
    conversion adds FIXED_UNITS.
    """
    b0 = a_cur
    stop = 1 << stop_exp
    a_prev = b_cur = 1 << w
    b_prev = 0
    # (A, B) as they stood after the two previous steps, and F where formed
    a1 = b1 = a2 = b2 = 0
    f1 = f2 = None
    end = 0
    while end < ctx.max_iter:
        start, end = end + 1, min(end + BLOCK_STEPS, ctx.max_iter)
        p, q, r, t = 1, 0, 0, 1
        for k in range(start, end + 1):
            a_k, b_k = spec.terms(k)
            if type(a_k) is not int or type(b_k) is not int or a_k <= 0 or b_k <= 0:
                raise ValueError(f"positive_ints spec: term k={k} is {(a_k, b_k)!r}, not two positive ints")
            p, q = p * b_k + q * a_k, p
            r, t = r * b_k + t * a_k, r
        a_end, a_end1 = a_cur * p + a_prev * r, a_cur * q + a_prev * t
        b_end, b_end1 = b_cur * p + b_prev * r, b_cur * q + b_prev * t
        bb = b_end * b_end1
        if b_cur and abs(a_end * b_end1 - a_end1 * b_end) << w >= (bb << stop_exp) + bb:
            a_cur, a_prev, b_cur, b_prev = a_end, a_end1, b_end, b_end1
        else:
            for k in range(start, end + 1):
                a_k, b_k = spec.terms(k)
                a_cur, a_prev = b_k * a_cur + a_k * a_prev, a_cur
                b_cur, b_prev = b_k * b_cur + a_k * b_prev, b_cur
                f = None
                if b_cur and b1 and b2:
                    f = (a_cur << w) // b_cur
                    if f1 is None:
                        f1 = (a1 << w) // b1
                    if f2 is None:
                        f2 = (a2 << w) // b2
                    if _settled(f, f1, f2, stop, floor):
                        t1 = spec.terms(1)
                        big = (abs(b0) >> w) + t1[0] // t1[1] + 3
                        units = abs(f - f1) + 2 + FIXED_UNITS + k // BLOCK_STEPS * 4 * big * (big + 1)
                        return CFResult(_prove(*_ball(ctx, f, -w, units)), k, CFStatus.CONVERGED)
                a2, b2, f2 = a1, b1, f1
                a1, b1, f1 = a_cur, b_cur, f
        shift = max(a_cur.bit_length(), b_cur.bit_length()) - w
        if shift > 0:
            a_cur, a_prev, b_cur, b_prev = (x >> shift for x in (a_cur, a_prev, b_cur, b_prev))
        elif shift < 0 and (a_cur or b_cur):
            a_cur, a_prev, b_cur, b_prev = (x << -shift for x in (a_cur, a_prev, b_cur, b_prev))
        a1, b1, a2, b2 = a_cur, b_cur, a_prev, b_prev
        f1 = f2 = None
    return CFResult(None, ctx.max_iter, CFStatus.MAX_ITERATIONS)


def _pair(x, ctx: PrecisionContext) -> tuple:
    """A real term x as an exact pair (m, s), x = m * 2^-s with s >= 0.

    An int passes as (x, 0); any other value is rounded to the context by
    ctx.number, and its binary mantissa and exponent are read off exactly.
    """
    if type(x) is int:
        return x, 0
    v = ctx.number(x)
    if isinstance(v, ctx.mp.mpc):
        raise ValueError(f"continued fraction takes real terms, got {v}")
    sign, man, exp, _ = v._mpf_
    if not man and exp:
        raise ValueError(f"continued fraction takes finite terms, got {v}")
    if sign:
        man = -man
    return (man << exp, 0) if exp >= 0 else (man, -exp)


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
    magnitude g of their largest entry.  The product is formed on the context
    widened by the guard bits; if they do not cover the measured loss
    (2g > guard_bits) it is formed again on the context widened by
    2g + guard_bits.  The limit is rounded back to the context on return.
    Returns None for a parabolic M, whose double fixed point is too
    ill-conditioned to read off; the forward recurrence handles it.
    """
    n = spec.period
    wide = ctx.widened(ctx.guard_bits)
    m, partial, growth = _period_product(spec, wide)
    if 2 * growth > ctx.guard_bits:
        wide = ctx.widened(2 * growth + ctx.guard_bits)
        m, partial, _ = _period_product(spec, wide)
    mp = wide.mp
    a, b, c, d = m
    trace = a + d
    s = mp.sqrt(trace * trace - 4 * (a * d - b * c))
    big, small = (trace + s) / 2, (trace - s) / 2
    if abs(big) < abs(small):
        big, small = small, big
    floor = mp.mpf(ctx.noise_floor)  # an mpf rounds at its own context's precision
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
    """CFSpec for R(q) without its q^(1/5) factor: partial numerators 1, q, q^2, ...

    Each power is formed by one multiply from the one before and cached,
    since eval_finite reads the terms in reverse order.
    """
    powers = [q**0]

    def terms(k: int):
        while len(powers) < k:
            powers.append(powers[-1] * q)
        return (powers[k - 1], 1)

    return CFSpec(b0=0, terms=terms)


def rr_cf(q, ctx: PrecisionContext, mode: RootMode = RootMode.PRINCIPAL) -> CFResult:
    """Evaluate R(q) for 0 < |q| < 1 or q = +-1.

    A converged fraction is multiplied by root(q, 5, mode); any other result
    is returned as eval_infinite gave it.  For |q| > 1 the fraction diverges
    (DivergenceError).  Unimodular q other than +-1 must go through the
    root-of-unity interface, which handles the primitive-root classification.
    """
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
    num = lam * rho * n - 1  # SchurClassification checks that 5 divides it
    return SchurClassification(n=n, diverges=False, lam=lam, rho=rho, exponent=num // 5)


def rr_at_root_of_unity(n: int, j: int, ctx: PrecisionContext):
    """Value of R at q = exp(2*pi*i*j/n) by the classification formula.

    Returns lam * q^e * R(lam) with e the classification exponent,
    R(+1) = (sqrt(5)-1)/2 and R(-1) = -phi.  Raises DivergenceError if 5 | n.
    """
    if math.gcd(j, n) != 1:
        raise ValueError(f"j={j} is not coprime to n={n}: q is not a primitive root")
    cls = schur_classify(n)
    if cls.diverges:
        raise DivergenceError(f"R diverges at primitive {n}-th roots of unity (5 | n)")
    phi = golden_phi(ctx)
    r_lam = 1 / phi if cls.lam == 1 else -phi
    return cls.lam * ctx.number(Nome.unit_root(j * cls.exponent, n)) * r_lam


def rr_root_of_unity_spec(n: int, j: int = 1) -> CFSpec:
    """CFSpec of the prefactor-free fraction at q = exp(2*pi*i*j/n), period n.

    Each power q^(k-1) is the exact root Nome.unit_root(r, n) with r = (k-1)*j
    reduced mod n, converted at the precision of the (widened) context that
    reads it, so no precision decays with depth or is capped by the spec.
    """
    if n <= 0:
        raise ValueError("n must be a positive integer")

    def terms(k: int):
        return (Nome.unit_root((k - 1) * j % n, n), 1)

    return CFSpec(b0=0, terms=terms, period=n)


def rr_root_of_unity_direct(n: int, j: int, ctx: PrecisionContext) -> CFResult:
    """Evaluate R at a primitive n-th root of unity from the fraction itself.

    The prefactor-free fraction is periodic with period n, so eval_infinite
    decides it from one period's product in n terms, independently of
    Schur's formula.  Its limit F satisfies F = q^e * R(lam), so the
    Legendre sign lam plays the role of the fifth-root prefactor here: the
    returned value is lam * F, directly comparable with rr_at_root_of_unity.
    Where the fraction has no limit (5 | n) the result is DIVERGES after n
    iterations, with no value.
    """
    spec = rr_root_of_unity_spec(n, j)  # first: it rejects n <= 0
    if math.gcd(j, n) != 1:
        raise ValueError(f"j={j} is not coprime to n={n}: q is not a primitive root")
    res = eval_infinite(spec, ctx)
    if not res.converged:
        return res
    return replace(res, value=legendre5(n) * res.value)
