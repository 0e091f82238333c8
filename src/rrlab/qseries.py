"""q-Pochhammer symbols, the Rogers-Ramanujan functions, theta and chi
functions, finite-form mu/nu polynomials, and exact series expansions.

Numeric routines take a PrecisionContext and real arguments, truncate with tail
bounds tied to the context tolerance and run on fixed-point integers
(``numerics._fixed``).  G, H and chi are Euler sums on one kernel, ``_rr_sum``;
near q = 1 it forms the terms before the peak, far below the total, as one
head: a division-free product, or (q; q)_inf by Dedekind-eta inversion and a
short series.  Its loop tests for a stop neither before the peak nor where a
gate (``quiet``) proves none.  The product sides (R_product, the product
backends of G and H, Euler's E and theta at q < 0) are rows {(A, B): e} of
``_THETA_ROUTES`` (R's is ``cf.R_ROW``'s), prod S_(A,B)^e, which ``series_R``
and ``formal.eta_sum`` form exactly: S_(A,B)(q) = sum over all m of (-1)^m
q^((A m^2 - B m)/2) is a sparse alternating sum, the Jacobi triple product,
summed by ``_jacobi_sum`` in O(sqrt(bits/h)) terms, h = -ln|q|, with guard bits
for the cancellation (``_direct_quotient``).  For q > 0 their Jacobi imaginary
transformation (``_poisson_quotient``) takes one term each near q = 1 and
proves its radius, as theta does, phi(-q^2)^2/phi(-q), in place of its sum
(``_phi_sum``); ``cf._cheapest`` chooses the route.  Every kernel predicts a
lower bound on its term count and raises ConvergenceError before it starts when
that exceeds max_iter (``cf.refuse_early``).  S's default route is
``cf.rr_value``.  The finite-form mu/nu polynomials take exact rationals and
sum Gaussian polynomials in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from mpmath import libmp

from .formal import FormalSeries, eta_sum, product_one_minus_inv
from .numerics import _MEMO, FIXED_UNITS, Ball, PrecisionContext, RootMode, _ball, _fixed, _nome_units
from . import cf as _cf

__all__ = [
    "pochhammer_inf",
    "G",
    "H",
    "R_product",
    "S",
    "chi",
    "theta_phi",
    "finite_mu",
    "finite_nu",
    "series_G",
    "series_H",
    "series_R",
]


def _decay(x: int, one: int) -> float:
    """-ln(|x|/one) in floating point, for 0 < |x| < one.

    A ratio within 2^-960 of 1 counts as 2^-960 from it: that overstates the
    decay, so the term counts predicted from it stay lower bounds.
    """
    if 2 * abs(x) < one:
        return math.log(one) - math.log(abs(x))
    return -math.log1p(-max((one - abs(x)) / one, 2.0**-960))


def pochhammer_inf(a, q, ctx: PrecisionContext):
    """Infinite q-Pochhammer (a; q)_inf for real a and real |q| < 1.

    Runs on integers: a*q^k at scale 2^W (see ``_fixed``) and the product as a
    W-bit mantissa with a binary exponent, renormalised after every factor.
    Truncates once the remaining factors are within tolerance of 1:
    |a*q^N| / (1 - |q|) below ctx.stop_tol bounds the relative truncation error.
    For |a| < 1 the count N is predicted first (``cf.refuse_early``): after k
    factors the integer a*q^k is within k units of |a| |q|^k 2^W, so the loop
    cannot stop while that exceeds the stop level by max_iter units.
    """
    route = "q-Pochhammer product"
    w, (step, aqk) = _fixed(ctx, route, q, a)
    if aqk == 0:
        return ctx.mp.mpf(1)
    one = 1 << w
    limit = -(-(one - abs(step)) >> ctx.stop_bits)  # |aqk| < limit: tail below stop_tol
    level = limit + ctx.max_iter
    if step and level <= abs(aqk) < one:  # |a| >= 1 may meet a zero factor and stop at once
        _cf.refuse_early(route, ctx, (math.log(abs(aqk)) - math.log(level)) / _decay(step, one))
    man, exp = one, -w
    for _ in _cf.bounded(route, ctx):
        man *= one - aqk
        if not man:
            return ctx.mp.mpf(0)
        shift = man.bit_length() - w
        man >>= shift
        exp += shift - w
        aqk = aqk * step >> w
        if abs(aqk) < limit:
            return ctx.mp.mpf((man, exp))


def _power(x: int, k: int, w: int) -> int:
    """x^k at scale 2^W for k >= 1 and |x| <= 2^W, by square-and-multiply:
    within k - 1 units, since squaring a power within e units leaves it within
    2e + 1 and multiplying it by x within e + 1."""
    out = x
    for bit in bin(k)[3:]:
        out = out * out >> w
        if bit == "1":
            out = out * x >> w
    return out


def _scaled_power(x: int, k: int, w: int):
    """x^k as (mantissa, exponent) with a W-bit mantissa, for 0 < x < 2^W at
    scale 2^W and k >= 1, by square-and-multiply on W-bit mantissas.

    Each product truncates by less than 2^(1-W) relatively and squaring doubles
    the relative error it squares, so the result is below x^k by less than
    2(k - 1) units of 2^-W relatively; unlike ``_power`` it never underflows.
    """
    shift = w - x.bit_length()
    base, bexp = x << shift, -w - shift
    man, exp = base, bexp
    for bit in bin(k)[3:]:
        man, exp = man * man, 2 * exp
        if bit == "1":
            shift = man.bit_length() - w
            man, exp = (man >> shift) * base, exp + shift + bexp
        shift = man.bit_length() - w
        man, exp = man >> shift, exp + shift
    return man, exp


# Bits by which the head of ``_rr_sum`` ends below the peak term, beyond
# the stop rule's bits and the bit length of the peak's index (``_head_length``)
HEAD_MARGIN = 8


def _head_length(decay: float, first: int, step: int, den: int, peak: int, stop_bits: int) -> int:
    """n0, the length of the head of ``_rr_sum``, for 0 < q = e^-h < 1,
    h = decay: predicted in floating point, and proven by the kernel.

    The rule: the last n before the peak term whose term is predicted below
    2^-(stop_bits + bit_length(peak) + HEAD_MARGIN) of the peak term, or 0.
    log(t_j/t_(j-1)) = f(j) = -h(first + step(j-1)) - log(1 - e^(-h den j))
    falls and is convex in j, and f(peak) >= 0 (``peak`` is the predicted
    first n with rho_n < 1), so f(j) >= s (peak - j) for j <= peak with
    s = -f'(peak) = h step + h den/(e^(h den peak) - 1), and the peak term is
    at least e^(s m(m-1)/2) times t_(peak - m).  n0 = peak - m for the least
    m at which that factor reaches the bits.
    """
    c = decay * den * peak
    slope = decay * step + decay * den * math.exp(-c) / -math.expm1(-c)
    bits = (stop_bits + peak.bit_length() + HEAD_MARGIN) * math.log(2)
    return max(peak - math.ceil((1 + math.sqrt(1 + 8 * bits / slope)) / 2), 0)


def _product_head(x: int, w: int, n0: int, first: int, step: int, den: int):
    """t_(n0) of ``_rr_sum``'s sum for 0 < q < 1, in place of its first n0 indices,
    as (mantissa, exponent, units, q^(den(n0+1)), q^(first + step n0)), the
    powers at scale 2^W; or None unless the terms rise through t_(n0).

    t_(n0) = q^E / P with E = first n0 + step n0(n0 - 1)/2 and P the product
    of 1 - q^(den k) over k <= n0.  P runs on the mantissa-exponent loop of
    ``pochhammer_inf``: two multiplies a factor, one per index, with no
    division, no running total and no stop test.  q^E is a
    ``_scaled_power``, and one division gives t_(n0).  This is the head for
    short heads; ``_eta_head`` forms the same result from a series of about
    W'/(den h n0) terms, and ``_eta_pays`` picks between them.  Every power
    is truncated downwards, so q^(den(n0+1)) +
    q^(first + step n0) >= 1 in the integers proves t_(n0+1) >= t_(n0); the
    ratios fall, so t_0 <= t_1 <= ... <= t_(n0) and the terms before t_(n0)
    sum to at most n0 t_(n0).

    units bounds the relative error of t_(n0) in units of 2^-W: q^E is below
    its exact value by at most 2(E - 1); q^(den k) is within den k units, so
    each factor of P is above its exact value by at most den k/(1 - q^(den k))
    <= den n0/(1 - q^(den n0)) relatively (m/(1 - q^m) increases in m); the
    n0 truncations of P move t_(n0) up by at most 4 n0, and the division and
    its shift down by at most 4.
    """
    one = 1 << w
    xden = _power(x, den, w)
    qn, man, exp = xden, one, -w  # q^(den k) and P
    for _ in range(n0):
        man *= one - qn
        shift = man.bit_length() - w
        man >>= shift
        exp += shift - w
        qn = qn * xden >> w
    lead = _power(x, first + step * n0, w)
    d = one - qn - den * (n0 + 1)  # at most (1 - q^(den(n0+1))) 2^W
    if qn + lead < one or d <= 0:
        return None
    e = first * n0 + step * n0 * (n0 - 1) // 2
    pman, pexp = _scaled_power(x, e, w)
    term = (pman << w) // man
    shift = term.bit_length() - w
    units = 2 * e + -(-(den * n0 * n0 << w) // d) + 4 * n0 + 4
    return term >> shift, pexp - exp - w + shift, units, qn, lead


# Bits by which ``_eta_head`` works wider than W plus the bit length of its
# largest logarithm
ETA_MARGIN = 16

# The fixed cost of one ``_eta_head`` (its logs, exps and pi) and the cost of
# one term of its series (two multiplies and a division), in product-loop
# steps at its width W': measured 62-160 and 1.5-3.0 from 300 to 4,200 bits
ETA_CALL_STEPS = 100
ETA_TERM_STEPS = 2


def _eta_width(w: int, decay: float, e: int, den: int) -> int:
    """W', the width of ``_eta_head``: W + the bit length of max(E h, pi^2/(6 h_p))
    + ETA_MARGIN, for q = e^-h, h = decay, and h_p = den h."""
    return w + math.ceil(max(e * decay, math.pi**2 / (6 * den * decay))).bit_length() + ETA_MARGIN


def _eta_pays(decay: float, w: int, n0: int, first: int, step: int, den: int) -> bool:
    """The head rule of ``_rr_sum``: True where ``_eta_head`` is predicted to
    cost less than the n0 factors of ``_product_head``.

    The series takes about W' ln 2/(h_p (n0 + 1)) terms, since its m-th term
    is below a^m with a = e^(-h_p (n0 + 1)), plus ETA_CALL_STEPS; both at
    ``_step_cost`` of W', against n0 steps at W.  It is taken only where
    e^(-4 pi^2/h_p) is below 2^-(2 W'), so that ``_eta_head``'s own check on it
    passes.
    """
    hp = decay * den
    v = _eta_width(w, decay, first * n0 + step * n0 * (n0 - 1) // 2, den)
    if 4 * math.pi**2 < 2 * v * hp:
        return False
    terms = v * math.log(2) / (hp * (n0 + 1))
    return (ETA_TERM_STEPS * terms + ETA_CALL_STEPS) * _cf._step_cost(v) < n0 * _cf._step_cost(w)


def _eta_head(x: int, w: int, n0: int, first: int, step: int, den: int):
    """``_product_head`` (the same arguments and result) by Dedekind-eta
    inversion: t_(n0) = q^E/(p; p)_(n0) with p = q^den, from
    (p; p)_(n0) = (p; p)_inf/(a; p)_inf, a = p^(n0+1), in O(W'/(h_p n0))
    terms instead of n0 factors.  Also None when e^(-4 pi^2/h_p) is not
    proven below 2^-W' or the error of ln t_(n0) below 2^-7, which
    ``_eta_pays`` and the width never let happen.

    It forms q^(den(n0+1)) and q^(first + step n0) by ``_power``, so the rise
    proof of ``_product_head`` holds as it stands.  With h = -ln q, h_p = den h
    and q~ = e^(-4 pi^2/h_p), eta(-1/tau) = sqrt(-i tau) eta(tau) gives
    ln (p; p)_inf = ln(2 pi/h_p)/2 + h_p/24 - pi^2/(6 h_p) + ln (q~; q~)_inf,
    and ln (a; p)_inf = -Sigma/(1 - p), Sigma = sum_(m>=1) a^m/(m D_m) with
    D_m = (1 - p^m)/(1 - p) = 1 + p + ... + p^(m-1), so
        ln t_(n0) = pi^2/(6 h_p) - E h - h_p/24 - ln(2 pi/h_p)/2 - Sigma/(1 - p)
                    - ln (q~; q~)_inf.
    Each part is an integer at scale 2^V, V = ``_eta_width``, and their sum L
    is within delta units of 2^-V of ln t_(n0):
    - mpmath's log, exp and pi, and every product and quotient of mpfs at
      precision V, count one ulp, at most 2^(1-V) relatively, as in
      ``numerics._fixed``.  h (log), h_p (a product) and pi^2/(6 h_p) (four
      roundings past h and pi) are within 1, 2 and 8 ulps, and E h within 3;
      2 pi/h_p is within 5, so its log is within 11 units plus its own ulp.
      With the truncations to integers these parts add at most
      16 pi^2/(6 h_p) + 6 E h + ln(2 pi/h_p) + 10 units, and h_p/24 adds 2.
    - Sigma runs at scale 2^V.  a = exp(-(n0 + 1) h_p) is within 6 units
      (its argument within 3 ulps and exp one more, at most
      (3.2 a |ln a| + 1.1 a) 2^(1-V) <= 4.6 units, and the truncation), so
      a^m is within 7m; p = x^den/2^(W den) exactly, floored to p', and
      D'_m = 1 + floor(p' D'_(m-1)) >= 1 is below D_m by at most m(m+1)/2
      units.  So a^m/(m D'_m), floored, is within 8 + a^m (m + 1)/2 units of
      its term, and the M terms summed are within 8M + 1/(2(1 - a)^2).  The
      terms fall by at least the ratio a, so what the loop leaves out is at
      most a^(M+1)/((M + 1)(1 - a)); it stops once the integer a^M is at most
      (M + 1)(1 - a) units, where that is below 1 + 7/(1 - a) units.
      1/(1 - p) = 2^(W den)/(2^(W den) - x^den) is exact, and its product is
      floored once more.
    - |ln (q~; q~)_inf| <= q~/(1 - q~)^2 <= 2 q~, 2 units once 24 times the
      integer part of pi^2/(6 h_p) is at least V (then 4 pi^2/h_p > V ln 2).
    t_(n0) = e^L is read at precision W, within one ulp; with |L - ln t_(n0)|
    = delta 2^-V <= 2^-7, units = 3 + 2 delta 2^(W-V) bounds its relative
    error in units of 2^-W.
    """
    one = 1 << w
    qn, lead = _power(x, den * (n0 + 1), w), _power(x, first + step * n0, w)
    if qn + lead < one or one - qn - den * (n0 + 1) <= 0:
        return None
    e = first * n0 + step * n0 * (n0 - 1) // 2
    v = _eta_width(w, _decay(x, one), e, den)
    big = 1 << v
    rnd = libmp.round_nearest

    def fixed(f):
        return libmp.to_int(libmp.mpf_shift(f, v))

    h = libmp.mpf_neg(libmp.mpf_log(libmp.from_man_exp(x, -w), v, rnd))
    hp = libmp.mpf_mul(h, libmp.from_int(den), v, rnd)
    pi = libmp.mpf_pi(v, rnd)
    inverse = fixed(libmp.mpf_div(libmp.mpf_mul(pi, pi, v, rnd), libmp.mpf_mul(hp, libmp.from_int(6), v, rnd), v, rnd))
    if 24 * (inverse >> v) < v:
        return None
    eh = fixed(libmp.mpf_mul(h, libmp.from_int(e), v, rnd))
    half_log = fixed(libmp.mpf_log(libmp.mpf_div(libmp.mpf_shift(pi, 1), hp, v, rnd), v, rnd)) >> 1
    a = fixed(libmp.mpf_exp(libmp.mpf_neg(libmp.mpf_mul(hp, libmp.from_int(n0 + 1), v, rnd)), v, rnd))
    cut, xd = 1 << w * den, x**den  # p = xd/cut
    p = (xd << v) // cut
    gap = big - a - 6  # at most (1 - a) 2^V, and positive: the rise check left 1 - a above 2^-W
    total = m = 0
    power, d = big, 0  # a^m and D_m at scale 2^V
    while True:
        m += 1
        power = power * a >> v
        d = big + (p * d >> v)
        total += (power << v) // (m * d)
        if power << v <= (m + 1) * gap:
            break
    series_units = 8 * m + -(-big * big // (2 * gap * gap)) + -(-7 * big // gap) + 1
    sigma = total * cut // (cut - xd)
    delta = (16 * inverse + 6 * eh + 2 * half_log >> v) + 12 + -(-series_units * cut // (cut - xd)) + 1 + 2
    if delta >> v - 7:
        return None
    log = inverse - eh - fixed(hp) // 24 - half_log - sigma
    _, man, exp, bc = libmp.mpf_exp(libmp.from_man_exp(log, -v), w, rnd)
    return man << w - bc, exp - (w - bc), 3 + -(-delta >> v - w - 1), qn, lead


def _lost_bits(top: int, total: int) -> float:
    """log2(top/|total|): the bits a sum of terms of size at most top lost to cancellation."""
    return math.log2(top) - math.log2(abs(total))


def _rr_sum(q, ctx: PrecisionContext, route: str, first: int, step: int, den: int, widen: bool = True) -> Ball:
    """The Euler sum of t_n, t_0 = 1, t_n = t_(n-1) q^(first + step(n-1)) / (1 - q^(den n)),
    for real |q| < 1, as a Ball whose radius is None for q < 0.

    (first, step, den) = (1, 2, 1) is G's sum q^(n^2)/(q;q)_n, (2, 2, 1) is H's
    q^(n^2+n)/(q;q)_n, (1, 2, 2) is q^(n^2)/(q^2;q^2)_n = (-q;q^2)_inf and
    (1, 1, 1) is q^(n(n+1)/2)/(q;q)_n = (-q;q)_inf; for q >= 0 every term is
    positive.  The term and the total share one binary exponent, renormalised
    by bit_length to keep them at W bits (see ``_fixed``).
    rho_n = |q|^(first + step n) / (1 - |q|^(den(n+1))) decreases in n and bounds
    |t_(k+1)/t_k| for every k >= n, so the tail after t_n is at most
    |t_n| rho_n / (1 - rho_n); the sum stops once that is within
    ctx.stop_tol * max(1, |total|).  That test needs rho_n < 1, which first
    holds at a term count predicted before the loop (``cf.refuse_early``).

    The head (q > 0).  Near q = 1 the terms rise from 1 to a peak far above
    2^W and fall again; the terms long before the peak lie below 2^-W of the
    total and only seed the next one.  So the first n0 indices
    (``_head_length``, 0 unless q is near 1) form t_(n0) directly, and the
    loop runs from n0 + 1 with term = total = t_(n0).  One predicted-cost
    rule (``_eta_pays``) forms it by the product, two multiplies an index
    (``_product_head``), or by Dedekind-eta inversion and a series of
    O(W/(h n0)) terms (``_eta_head``).  The head proves the terms rise through
    t_(n0), so the n0 terms it leaves out sum to at most n0 t_(n0), and
    t_(n0) is within its units of its integer; the radius adds that bound,
    and the units add to c below.  If the head is not proven to rise, or the
    bound exceeds the tail bound, the sum runs again from n0 = 0.  The loop
    after either head counts from index n0 + 1 of ``cf.bounded``, so the
    iteration counts and the max_iter exit are those of the loop from 0.

    The gate.  The stop test runs only where it may pass: before the peak
    the gap is <= 0, and after it the terms must first fall stop_bits below
    the total.  From n0 + BLOCK_STEPS on, after a tested step ``quiet`` tries
    to prove that the next k steps cannot stop (k = ``cf.BLOCK_STEPS``,
    doubled after a proof, halved after a failure, which at BLOCK_STEPS
    waits as many steps); those steps run only the division, the sum, the
    powers and the shift (at 256 bits about 1.2 us, 1.7-1.9 tested), and
    values, radii and ``cf.bounded`` indices are those of the loop that
    tests every step.  The proof, from the integers after step n: a power
    is at least r = |q|^step (y = |q|^den) times the last, less a unit, so
    through step n + k |lead| >= l = |lead| r^k - k, |qn| >= c = |qn| y^k - k
    and every gap is at most g = 2^W - l - c; if g <= 0 no step stops.  Else,
    while |lead| + |qn| + 2k < 2^W (a power grows at most a unit a step, so
    no ratio exceeds 1; term != 0, as the test at n failed) and |total| +
    k(|term| + k) < 2^W (no shift), each ratio is at least lam = min(l/d, 1),
    d = 2^W - c for q > 0 and 2^W + |qn| + k for q < 0, and no step stops if
    (|term| lam^k - k) l 2^stop_bits > (max(|total|, unit) + k(|term| + k)) g.
    The floats take the powers low by eps = (k + 1024)(W + 1) 2^-51
    relatively (their rounding and that of log2 of a W-bit int), differences
    gain 2^-48, bounds below 2^-1000 enter only g, and the comparison keeps
    a bit for |term| lam^k - k >= 2^(lt-1), lt = log2(|term| lam^k) >
    log2(2k), and a bit for rounding while eps <= 2^-12.

    The radius (q >= 0, n terms, S the exact sum at the converted q).  Every
    integer step truncates downwards, so the computed total is below the sum
    it runs from t_(n0).  q^a in ``lead`` is within a units of 2^-W and
    q^(den n) in ``qn`` within den n, so the computed ratio of term j is
    within a_j 2^-W / q^(a_j) + den j 2^-W / (1 - q^(den j)) of the exact one,
    relatively; each step's floor and shifts lose at most 2^(e+1), e the
    shared exponent, and 2^e <= 2 max(1, total) 2^-W.  Carried through the
    later terms with the decreasing ratios, these lose at most c S with
    c 2^W = n(n+1)(den + first + step)/(1 - q^(den(n+1))) + 2n(n+4), using
    that m/(1 - q^m) increases in m; the head's units add to c.  The tail is
    bounded from the last term summed, t_n rho_n/(1 - rho_n), with t_n and
    rho_n from the final integers plus their error units; the converted q
    adds its part through ``numerics._nome_units``; all after the loop.

    For q < 0 the terms alternate in sign.  The loop keeps the largest |t_n|
    at the shared exponent; when the total is more than 2^guard_bits times
    smaller (``_lost_bits``), the sum runs once more (``widen``) on
    ``ctx.widened`` by the bits it lost, and the value is rounded back.
    """
    w, (x,) = _fixed(ctx, route, q)
    one = 1 << w
    stop = ctx.stop_bits
    xstep, xden = _power(x, step, w), _power(x, den, w)
    head = 0
    if x:
        # The integer q^(den(n+1)) + q^(first + step n) of term n is within
        # `slack` units of its exact value f(n) 2^W, and f(n) - f(n+1) >= 1 - |q|
        # while f(n) >= 1, so rounding moves the first n with f(n) < 1 by at most
        # slack / (2^W (1 - |q|)) terms.
        decay = _decay(x, one)

        def blocked(n):
            return math.exp(-decay * den * (n + 1)) + math.exp(-decay * (first + step * n)) >= 1

        lo, hi = 0, 1  # the first n with f(n) < 1 lies in (lo, hi]
        while blocked(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if blocked(mid) else (lo, mid)
        slack = (den + step) * (ctx.max_iter + 1) + first
        _cf.refuse_early(route, ctx, hi - -(-slack // (one - abs(x))))
        if x > 0:
            head = _head_length(decay, first, step, den, hi, stop)
    form_head = _eta_head if head and _eta_pays(decay, w, head, first, step, den) else _product_head

    def quiet(k, term, total, unit, lead, qn):  # the gate: True if none of the next k steps can stop
        eps = (k + 1024) * (w + 1) * 2.0**-51
        ll, lq = (abs(v) / one * 2.0 ** (k * (math.log2(max(abs(r), 1)) - w)) * (1 - eps) - k / one
                  for v, r in ((lead, xstep), (qn, xden)))
        gap = 1 - ll - lq + 2.0**-48
        if gap <= 0:
            return True
        up, d = abs(term) + k, (1 - lq if x > 0 else 1 + (abs(qn) + k) / one) + 2.0**-48
        if eps > 2.0**-12 or ll <= 2.0**-1000 or abs(lead) + abs(qn) + 2 * k >= one or abs(total) + k * up >= one:
            return False
        lt = math.log2(abs(term)) + k * math.log2(min(ll / d, 1))
        rhs = math.log2(max(abs(total), unit) + k * up) + math.log2(gap) + 2
        return lt > math.log2(2 * k) and lt + math.log2(ll) + stop > rhs

    for n0 in (head, 0) if head else (0,):
        qn, lead = xden, _power(x, first, w)  # q^(den n) and q^(first + step(n-1)), n = 1
        term = top = unit = one  # top: the largest |term|; unit: 1 at the shared exponent
        exp, units = -w, 0
        if n0:
            start = form_head(x, w, n0, first, step, den)
            if start is None:
                continue
            term, exp, units, qn, lead = start
            unit = 1 << max(-exp, 0)
        total = term
        shut, retry, span = n0, n0 + _cf.BLOCK_STEPS, _cf.BLOCK_STEPS  # no stop through `shut`; gate tried at `retry`
        for n in _cf.bounded(route, ctx, n0 + 1):
            term = term * lead // (one - qn)
            total += term
            if x < 0 and abs(term) > top:
                top = abs(term)
            qn = qn * xden >> w
            lead = lead * xstep >> w
            if n > shut:
                gap = one - abs(qn) - abs(lead)  # (1 - rho_n) * (1 - |q|^(den(n+1))) * 2^W
                if gap > 0 and abs(term) * abs(lead) << stop <= max(abs(total), unit) * gap:
                    break
                if n >= retry and quiet(span, term, total, unit, lead, qn):
                    shut, span = n + span, 2 * span
                elif n >= retry:
                    retry, span = n + (1 if span > _cf.BLOCK_STEPS else span), max(span // 2, _cf.BLOCK_STEPS)
            if total >= one or x < 0 and max(abs(term), -total) >= one:
                shift = max(term.bit_length(), total.bit_length()) - w
                term >>= shift
                total >>= shift
                top >>= shift
                unit = max(unit >> shift, 1)
                exp += shift
        if x < 0:
            lost = _lost_bits(top, total)
            if widen and lost > ctx.guard_bits:
                wide = _rr_sum(q, ctx.widened(math.ceil(lost)), route, first, step, den, widen=False)
                return Ball(ctx.mp.mpf(wide.mid))
            return _ball(ctx, total, exp, None)
        a = first + step * n  # q^a = q^(first + step n), within a units of lead
        d = one - qn - den * (n + 1)  # at most (1 - q^(den(n+1))) 2^W
        rate = _nome_units(x, w)
        radius = None
        if d > lead + a and rate is not None:
            c = -(-(n * (n + 1) * (den + first + step) << w) // d) + 2 * n * (n + 4) + units
            if 2 * c <= one:
                bound = -(-total * one // (one - c))  # the exact partial sum is at most total/(1 - c)
                rounding = -(-c * bound >> w)
                tail = -(-(term + rounding) * (lead + a) // (d - lead - a))
                # the n0 terms before t_(n0), each at most t_(n0) <= (1 + 2 units 2^-W) times its integer
                skipped = -(-(n0 * start[0] * (one + 2 * units)) >> w + exp - start[1]) if n0 else 0
                if skipped <= tail:
                    radius = rounding + tail + skipped + -(-rate * (bound + tail + skipped) >> w)
        if radius is not None or not n0:
            return _ball(ctx, total, exp, radius)


# -- sparse theta sums -----------------------------------------------------------


# The fixed cost of one direct sum (conversions, the prediction and the
# result), in steps at the context's width W: about 25 us against 1 us per
# step at 256 bits.
CALL_STEPS = 25


def _guard(decay: float, loss: float) -> int:
    """Predicted cancellation in bits of a sum that cancels to exp(-loss/h), h = decay."""
    return math.ceil(loss / (decay * math.log(2)))


def _sparse_terms(decay: float, a: int, b: int, bits: float) -> float:
    """The real m >= 0 at which q^((A m^2 - B m)/2) falls to 2^-bits, for |q| = e^-decay."""
    return (b + math.sqrt(b * b + 8 * a * max(bits, 0) * math.log(2) / decay)) / (2 * a)


def _jacobi_sum(x: int, base: int, ctx: PrecisionContext, route: str, parts, loss: float):
    """sum over the parts (A, B, weight) of c S_(A,B)(q) at real q = x 2^-W, |q| < 1,
    W = base (``numerics._fixed``), where

        S_(A,B)(q) = 1 + sum_{m>=1} (-1)^m q^(m(Am-B)/2) (1 + q^(Bm))
                   = sum over all integers m of (-1)^m q^((A m^2 - B m)/2),

    which the Jacobi triple product makes (q^A; q^A)_inf (q^((A-B)/2); q^A)_inf
    (q^((A+B)/2); q^A)_inf; it needs A > B >= 0 with A - B even.  c is 1 for
    weight None; otherwise weight(w, q 2^w) returns c 2^w at width w.

    The terms are at most 1 in size, but near q = 1 the total cancels to
    about exp(-loss/h), h = -ln|q| (loss = pi^2/(2A) for one part).  So each
    pass runs at width w = W + g, with g guard bits for that cancellation, and
    stops a part once its tail is below 2^-(stop_bits + g): the ratio of
    consecutive terms, |q|^(Am + (A-B)/2) = |slo|, falls with m, so the tail
    after term m is at most 2 |q^(m(Am-B)/2)| / (1 - |slo|).  The first pass
    predicts g from `loss`.
    After the loop the total's bit length measures the cancellation: when
    the total is below 2^-g the sum is redone once with g set to what was
    measured (plus two bits), and a sum that comes out short again raises
    ArithmeticError.  Each pass predicts its term count before it starts
    (``cf.refuse_early``): the integer q^(m(Am-B)/2) is within (A + 2) m^2
    units of its exact value.
    """
    decay = _decay(x, 1 << base) if x else math.inf
    guard = _guard(decay, loss) if x else 0
    for _ in range(2):
        w = base + guard
        one = 1 << w
        shift = ctx.stop_bits + guard + 1
        xw = x << guard
        weights = [one if weight is None else weight(w, xw) for _, _, weight in parts]
        shifts = [shift + max(c.bit_length() - w, 0) for c in weights]
        if xw:
            # no part stops while |q|^(m(Am-B)/2) exceeds 2^-cshift plus its rounding
            _cf.refuse_early(route, ctx, max(
                _sparse_terms(decay, a, b, min(cshift, w - math.log2((a + 2) * (ctx.max_iter + 1) ** 2)) - 1)
                for (a, b, _), cshift in zip(parts, shifts)
            ))
        total = 0
        for (a, b, _), c, cshift in zip(parts, weights, shifts):
            qa, slo, shi = (xw**k >> (k - 1) * w for k in (a, (a - b) // 2, (a + b) // 2))
            lo = hi = part = one  # lo, hi: q^(m(Am -+ B)/2); slo, shi: their next ratios
            for m in _cf.bounded(route, ctx):
                lo = lo * slo >> w
                hi = hi * shi >> w
                part += lo + hi if m % 2 == 0 else -(lo + hi)
                slo = slo * qa >> w
                shi = shi * qa >> w
                if abs(lo) << cshift <= one - abs(slo):
                    break
            total += part * c >> w
        measured = w + 1 - total.bit_length()  # |total| < 2^-measured + ...
        if measured <= guard:
            return ctx.mp.mpf((total, -w))
        guard = measured + 2
    raise ArithmeticError(f"{route} cancelled past {guard - 2} bits on both passes")


# A transformed sum's fixed cost (logs, exps, cosines) in steps at its width V: 95-160
# at 256-1024 bits, 180-270 at 4,096 (so V/3,072 above); V's bits above W + len(c)
POISSON_CALL_STEPS = 120
POISSON_MARGIN = 8


def _poisson_plan(decay: float, w: int, ctx: PrecisionContext, row):
    """(V, each distinct sum's real count k of terms down to its stop, their plan for
    ``cf._cheapest``) of ``_poisson_quotient`` at q = e^-decay."""
    cs = [math.pi**2 / (2 * a * decay) for a, _ in row]
    v, bits = w + math.ceil(max(cs)).bit_length() + POISSON_MARGIN, (ctx.stop_bits + POISSON_MARGIN) * math.log(2)
    terms = [(math.sqrt(1 + bits / c) - 1) / 2 for c in cs]
    return v, terms, [(sum(POISSON_CALL_STEPS * max(1, v / 3072) + 2 * math.ceil(k) for k in terms), v)]


def _poisson_quotient(x: int, w: int, ctx: PrecisionContext, route: str, row) -> Ball:
    """A row of ``_THETA_ROUTES``, a quotient of theta sums, at
    q = x 2^-W = e^-h, 0 < q < 1, by Poisson summation (Jacobi's imaginary
    transformation) of each S_(A,B) of ``_jacobi_sum``, c = pi^2/(2 A h):
        S = 2 sqrt(2 pi/(A h)) e^(h B^2/(8A) - c) T,  T = sum_k cos((2k+1) pi B/(2A)) u^(k(k+1)/2),
    u = e^(-8c), as a Ball (``numerics._ball``) whose radius is None where u > 1/16.
    The first weight is at least cos(3 pi/10) > 0.58, so T > 1/2 once u <= 1/16:
    nothing cancels.  h comes from x, each A's c and prefactor once, each distinct
    sum's T once, each libmp operation rounded once at the width V of
    ``_poisson_plan``.  Weights step by cos(j+2) = 2 cos(2) cos(j) - cos(j-2) in units
    of pi B/(2A); a sum stops once its tail, below the next term over 1 - u^(k+1), is
    below 2^-(stop_bits + POISSON_MARGIN).

    The radius, in units of 2^-V relative to the value:
    - every libmp operation counts one ulp, 2 units.  h is within 2; c, through
      pi^2 and A h, within 13 c, so e^-c is within 14 c + 3 and a prefactor within
      14 c + 11.  A prefactor that the numerator and denominator share cancels
      exactly (R), so only the net count n_A of each A's prefactors counts;
      e^(h e), e = sum +-B^2/(8A), counts 8 |e| h + 3, and each sum its two
      products, 4;
    - the integer loop, in units of 2^-V of T: the first weight is within 8 units
      and 2 cos(pi B/A) within 66, so by the Chebyshev form of the recurrence
      weight k is within 134 (k+1)^2; u is within 9 (c u <= 1/(8e)), u^(k+1)
      within 10 (k+1) and u^(k(k+1)/2) within 11 k^2, so term k is within
      147 (k+1)^2 and K terms within 100 (K+1)^3; the tail after them is at most
      the next power over 1 - u^K, from the final integers plus their units;
      T > 1/2 doubles these relatively;
    - the converted nome: x is within FIXED_UNITS units of 2^-W of q
      (``numerics._fixed``), so h moves by at most 8 2^-W/(q - 8 2^-W).  Per
      sum, d ln S/dh is -1/(2h) + B^2/(8A) + c/h - (c/h) T'/T with |T'/T| <= 18 u,
      and (c/h) 18 u <= 0.83/h; the c/h terms add to (pi^2/2) sum_A n_A/(A h^2),
      which cancels in R and phi.  With 1/h <= 1/(1 - q_hi), q_hi = (x + 8) 2^-W,
      as in ``numerics._nome_units``, |d ln Q/dh| <= D = sum over the sums of
      (1 + 2/h) + 5 |sum_A n_A/A|/h^2, and Q moves by at most 2 D 8 2^-W/q_lo
      while that is at most 1.
    Together these bound the relative error by s <= 1/4; |value - Q| is then
    within 4 s |value|.
    """
    decay = _decay(x, 1 << w)
    v, terms, _ = _poisson_plan(decay, w, ctx, row)
    _cf.refuse_early(route, ctx, max(terms))
    big, stop, lm = 1 << v, ctx.stop_bits + POISSON_MARGIN, libmp

    def op(f, *args):  # one libmp operation, rounded at V
        return f(*args, v, lm.round_nearest)

    h, pi = lm.mpf_neg(op(lm.mpf_log, lm.from_man_exp(x, -w))), op(lm.mpf_pi)
    signed = [(sign, a, b) for sign, side in zip((1, -1), _sides(row)) for a, b in side]
    e = sum(Fraction(sign * b * b, 8 * a) for sign, a, b in signed)
    value, forms, factors = op(lm.mpf_exp, op(lm.mpf_mul, h, op(lm.from_rational, e.numerator, e.denominator))), {}, {}
    net = {a: sum(sign for sign, a2, _ in signed if a2 == a) for _, a, _ in signed}
    units, proven = math.ceil(8 * abs(e) * decay) + 3 + 4 * len(signed), True
    for sign, a, b in signed:
        if a not in forms:  # 2 sqrt(2 pi/(A h)) e^-c, and u = e^(-8c) at scale 2^V
            ah = op(lm.mpf_mul, h, lm.from_int(a))
            ec = op(lm.mpf_exp, lm.mpf_neg(op(lm.mpf_div, op(lm.mpf_mul, pi, pi), lm.mpf_shift(ah, 1))))
            root = op(lm.mpf_sqrt, op(lm.mpf_div, lm.mpf_shift(pi, 3), ah))
            forms[a] = op(lm.mpf_mul, root, ec), lm.to_int(lm.mpf_shift(op(lm.mpf_pow_int, ec, 8), v))
            units += abs(net[a]) * (math.ceil(14 * math.pi**2 / (2 * a * decay)) + 11)
            proven = proven and forms[a][1] + 9 <= big >> 4
        prefactor, u = forms[a]
        if (a, b) not in factors:
            weight = last = lm.to_int(lm.mpf_shift(op(lm.mpf_cos_pi, op(lm.from_rational, b, 2 * a)), v))
            double, total, power, ratio = (weight * weight >> v - 2) - 2 * big, 0, big, u  # 2 cos(pi B/A)
            for k in _cf.bounded(route, ctx):  # at term k: u^(k(k+1)/2) and u^(k+1)
                total += weight * power >> v
                power = power * ratio >> v
                if power << stop <= big - ratio:
                    break
                ratio = ratio * u >> v
                weight, last = (weight * double >> v) - last, weight
            tail = -(-(power + 11 * k * k) * big // max(big - ratio - 10 * k, 1))
            factors[a, b] = op(lm.mpf_mul, prefactor, lm.from_man_exp(total, -v)), 2 * (100 * (k + 1) ** 3 + tail)
        factor, loop = factors[a, b]
        units += loop
        value = op(lm.mpf_mul if sign > 0 else lm.mpf_div, value, factor)
    one, gap = 1 << w, (1 << w) - x - FIXED_UNITS
    tilt = sum(Fraction(n, a) for a, n in net.items())
    span = len(signed) * (gap * gap + 2 * one * gap) + -(-5 * abs(tilt.numerator) * one * one // tilt.denominator)
    nome = -(-16 * one * span // max((x - FIXED_UNITS) * gap * gap, 1))
    units += nome << v - w
    neg, man, exp, _ = value
    proven = proven and gap > 0 and x > FIXED_UNITS and nome <= one and units << 2 <= big
    return _ball(ctx, -man if neg else man, exp, (4 * man * units >> v) + 1 if proven else None)


def _sides(row) -> tuple:
    """A row's factor lists (numerator, denominator): each (A, B) once per unit of |e|."""
    return tuple([k for k, e in row.items() for _ in range(sign * e)] for sign in (1, -1))


def _quotient_route(x: int, base: int, ctx: PrecisionContext, row) -> str:
    """The route of ``_theta_quotient`` for a row at q = x 2^-W, W = base: "direct"
    (``_direct_quotient``), each sum's terms at its guarded width plus CALL_STEPS at W,
    or for q > 0 "transformed" (``_poisson_plan``), from q = 0.91-0.96 on at 256 bits
    (R: 0.964), 0.64-0.83 at 2,048."""
    direct, transformed, factors = [], None, sum(_sides(row), [])
    if x > 0:
        decay = _decay(x, 1 << base)
        direct.append((len(factors) * CALL_STEPS, base))
        for a, b in factors:
            g = _guard(decay, math.pi**2 / (2 * a))
            direct.append((2 * _sparse_terms(decay, a, b, ctx.stop_bits + g), base + g))
        transformed = _poisson_plan(decay, base, ctx, row)[2]
    return _cf._cheapest({"direct": direct, "transformed": transformed})


def _direct_quotient(x: int, w: int, ctx: PrecisionContext, route: str, row) -> Ball:
    """A row of ``_THETA_ROUTES`` at q = x 2^-W by its direct sums (``_jacobi_sum``), no radius."""
    num, den = ([_jacobi_sum(x, w, ctx, route, ((a, b, None),), math.pi**2 / (2 * a)) for a, b in side]
                for side in _sides(row))
    return Ball(math.prod(num, start=ctx.mp.one) / math.prod(den, start=ctx.mp.one))


def _theta_quotient(q, ctx: PrecisionContext, name):
    """The row `name` of ``_THETA_ROUTES``, or the one factor `name` = (A, B), at q as
    converted once, by the route ``_quotient_route`` names: ``_direct_quotient`` or
    ``_poisson_quotient`` (O(sqrt(bits h)) terms at about W bits, radius proven).  While a
    command runs (``numerics._MEMO``) each (name, type and value of q, ctx) is computed
    once, unless it raises; a check that needs one route calls its function."""
    memo = _MEMO.get()
    key = (name, type(q), q, ctx)
    if memo is not None and (ball := memo.get(key)) is not None:
        return ball
    route, row = _THETA_ROUTES[name] if isinstance(name, str) else ("theta sum", {name: 1})
    w, (x,) = _fixed(ctx, route, q)
    kernel = _poisson_quotient if _quotient_route(x, w, ctx, row) == "transformed" else _direct_quotient
    ball = kernel(x, w, ctx, route, row)
    if memo is not None:
        memo[key] = ball
    return ball


# name: (route, row {(A, B): e}, the product of the S_(A,B)^e, numerator first)
_THETA_ROUTES = {
    # R(q)/q^(1/5) = theta_H/theta_G, the product of ``cf.R_ROW``: this very dict
    "R": ("R theta sum", _cf.R_ROW.product),
    # G = theta_G/E = 1/((q; q^5)(q^4; q^5)) and H = theta_H/E = 1/((q^2; q^5)(q^3; q^5))
    "G": ("G theta sum", {(5, 1): 1, (3, 1): -1}),
    "H": ("H theta sum", {(5, 3): 1, (3, 1): -1}),
    # Euler's E = (q; q)_inf, the pentagonal number theorem
    "E": ("Euler pentagonal sum", {(3, 1): 1}),
    # phi(-q) = sum (-1)^m q^(m^2) = (q^2; q^2)(q; q^2)^2
    "phi-": ("theta sum", {(2, 0): 1}),
    # phi(q) = phi(-q^2)^2/phi(-q), theta_phi near q = 1
    "phi+": ("theta series", {(4, 0): 2, (2, 0): -1}),
}


def _rr_function(q, ctx: PrecisionContext, name: str, backend: str = "series") -> Ball:
    """The Ball of G (name "G") or H ("H"): the series ``_rr_sum`` at
    (1 or 2, 2, 1), which proves its radius at q >= 0, or the product
    theta_G/E or theta_H/E (``_theta_quotient``)."""
    if backend == "series":
        return _rr_sum(q, ctx, f"{name} series", 1 if name == "G" else 2, 2, 1)
    if backend == "product":
        return _theta_quotient(q, ctx, name)
    raise ValueError(f"unknown backend {backend!r}")


def G(q, ctx: PrecisionContext, backend: str = "series"):
    """Rogers-Ramanujan function G(q), by series or infinite-product backend
    (the midpoint of ``_rr_function``)."""
    return _rr_function(q, ctx, "G", backend).mid


def H(q, ctx: PrecisionContext, backend: str = "series"):
    """Rogers-Ramanujan function H(q), by series or infinite-product backend
    (the midpoint of ``_rr_function``)."""
    return _rr_function(q, ctx, "H", backend).mid


def R_product(q, ctx: PrecisionContext, mode: RootMode = RootMode.PRINCIPAL):
    """R(q) = q^(1/5) * theta_H(q)/theta_G(q), ``cf.R_ROW``'s prefactor times its product row."""
    qv = ctx.number(q)
    if qv == 0 or abs(qv) >= 1:
        raise ValueError("R_product requires 0 < |q| < 1")
    return _cf._prefactor(qv, mode, ctx) * _theta_quotient(q, ctx, "R").mid


def _s_nome(q, ctx: PrecisionContext):
    """q as a number of the context, or ValueError unless it lies in S's domain (0, 1]."""
    qv = ctx.number(q)
    if not (0 < qv <= 1):
        raise ValueError("S(q) requires real q in (0, 1]")
    return qv


def S(q, ctx: PrecisionContext, method: Optional[str] = None):
    """Alternating counterpart S(q) = -R(-q) for real q in (0, 1].

    "cf" evaluates the alternating continued fraction (R at -q, real fifth
    root), and "product" the product route, for q < 1.  The default takes the
    cheaper of the fraction at q and S's modular relation (``cf.rr_value``).
    """
    qv = _s_nome(q, ctx)
    if method is None:
        return _cf.rr_value(q, ctx, alternating=True).require("S continued fraction")
    if method == "cf":
        return -_cf.rr_cf(-qv, ctx, RootMode.REAL_ODD).require("S continued fraction")
    if method == "product":
        return -R_product(-qv, ctx, RootMode.REAL_ODD)
    raise ValueError(f"unknown method {method!r}")


def chi(q, ctx: PrecisionContext):
    """chi(q) = (-q; q^2)_inf for real |q| < 1, the midpoint of ``_chi``."""
    return _chi(q, ctx).mid


def _chi(q, ctx: PrecisionContext) -> Ball:
    """The Ball of chi(q) = (-q; q^2)_inf for real |q| < 1, by one of Euler's sums.

    For q >= 0 it is sum q^(n^2)/(q^2;q^2)_n.  For q < 0, with p = -q, it is
    (p; p^2)_inf = 1/(-p; p)_inf and (-p; p)_inf = sum p^(n(n+1)/2)/(p;p)_n.
    Both sums have positive terms, so nothing cancels, and both prove their
    radius (``_rr_sum``; for q < 0 that of the sum, through ``Ball.reciprocal``).
    At 256 bits the sum stops after 651 indices at q = 999/1000, where the
    product takes 84,856 factors, and after 37,510 at 1 - 10^-5; the head takes
    49 and 31,654 of them, as 49 factors and as a series of 366 terms, and the
    loop sums the other 602 and 5,856.
    """
    route = "chi series"
    qv = ctx.number(q)
    if not isinstance(qv, ctx.mp.mpc) and qv < 0:
        return _rr_sum(-q, ctx, route, 1, 1, 1).reciprocal(ctx)
    return _rr_sum(q, ctx, route, 1, 2, 2)


def theta_phi(q, ctx: PrecisionContext):
    """Theta function 1 + 2*sum_{n>=1} q^(n^2) for real |q| < 1, the midpoint of ``_theta_phi``."""
    return _theta_phi(q, ctx).mid


def _theta_phi(q, ctx: PrecisionContext) -> Ball:
    """The Ball of theta_phi(q) = 1 + 2*sum_{n>=1} q^(n^2) for real |q| < 1: for q >= 0
    by the route ``_phi_route`` names, ``_phi_sum`` or phi(-q^2)^2/phi(-q) on
    ``_poisson_quotient`` ("phi+"), both with a proven radius; for q < 0 the
    alternating sum phi(-|q|), which cancels to about exp(-pi^2/(4h)), h = -ln|q|,
    as the quotient "phi-" (``_theta_quotient``)."""
    route = "theta series"
    w, (x,) = _fixed(ctx, route, q)
    if x < 0:
        return _theta_quotient(-q, ctx, "phi-")
    if _phi_route(x, w, ctx) == "transformed":
        return _poisson_quotient(x, w, ctx, *_THETA_ROUTES["phi+"])
    return _phi_sum(x, w, ctx)


def _phi_terms(x: int, w: int, ctx: PrecisionContext) -> Optional[float]:
    """The least n after which ``_phi_sum`` at q = x 2^-W can stop, or None at q <= 0 or
    where the n^2 units of the term q^(n^2) alone reach stop_tol."""
    one = 1 << w
    level = -(-one >> ctx.stop_bits) + ctx.max_iter**2
    return math.sqrt((math.log(one) - math.log(level)) / _decay(x, one)) if x > 0 and level <= one else None


def _phi_route(x: int, w: int, ctx: PrecisionContext) -> str:
    """The route of ``_theta_phi`` at 0 <= q = x 2^-W < 1: "sum", ``_phi_terms`` plus
    CALL_STEPS at W, or "transformed" ("phi+", ``_poisson_plan``), from about q = 0.997
    on at 256 bits (1 - 10^-5: 4,084 terms of the sum), 0.986 at 1024."""
    needed = _phi_terms(x, w, ctx)
    transformed = None if needed is None else _poisson_plan(_decay(x, 1 << w), w, ctx, _THETA_ROUTES["phi+"][1])[2]
    return _cf._cheapest({"sum": [(CALL_STEPS + (needed or 0), w)], "transformed": transformed})


def _phi_sum(x: int, w: int, ctx: PrecisionContext) -> Ball:
    """The Ball of theta_phi(q) at q = x 2^-W >= 0 (``numerics._fixed``), summed until the
    term q^(n^2) and the tail 2 sum_{m>n} q^(m^2) <= 2 q^(n^2) q^(2n+1)/(1 - q^(2n+1))
    are both below ctx.stop_tol.  The integer q^(n^2) is within n^2 - 1 units and
    q^(2n+1) within 2n, which predicts the least n (``_phi_terms``, ``cf.refuse_early``)
    and proves the radius: the powers' units, at most 2 sum n^2, the tail from the last
    integers plus their units, and the converted q's part (``numerics._nome_units``)."""
    route, one = "theta series", 1 << w
    limit = -(-one >> ctx.stop_bits)  # stop_tol at scale 2^W, rounded up
    if (needed := _phi_terms(x, w, ctx)) is not None:
        _cf.refuse_early(route, ctx, needed)
    x2 = x * x >> w
    total = power = one  # power: q^(n^2)
    odd = x  # q^(2n-1), then q^(2n+1)
    for n in _cf.bounded(route, ctx):
        power = power * odd >> w
        total += 2 * power
        odd = odd * x2 >> w
        # 2 q^(n^2) q^(2n+1)/(1 - q^(2n+1)) bounds the tail; it needs a second
        # look only once the term itself is below stop_tol
        if abs(power) < limit and (power * odd >> w) << ctx.stop_bits + 1 <= one - odd:
            break
    d = one - odd - 2 * n  # at most (1 - q^(2n+1)) 2^W
    rate = _nome_units(x, w)
    units = None
    if d > 0 and rate is not None:
        # the summed powers' units, then the tail from the last integers plus theirs
        units = n * (n + 1) * (2 * n + 1) // 3 + -(-2 * (power + n * n) * (odd + 2 * n) // d)
        units += -(-rate * (total + units) >> w)
    return _ball(ctx, total, -w, units)


def _finite_sum(n: int, a, q, extra: int) -> Fraction:
    """sum_{k <= m/2} a^k q^(k^2 + extra*k) [m-k choose k]_q, m = n+1-extra, for
    int or Fraction a and q (TypeError otherwise), as one Fraction.

    With a = c/d and q = u/v, H(j, k) = v^(k(j-k)) [j choose k]_q is an integer:
    the q-Pascal rule gives H(j, k) = v^(j-k) H(j-1, k-1) + u^k H(j-1, k), which
    never divides, so every rational q works, q = 1 and q = -1 included.  Term k
    is c^k u^(k^2 + extra*k) H(m-k, k) / (d^k v^(k(n+1-k))), and k(n+1-k)
    increases up to K = floor(m/2), so the sum is one integer over d^K v^(K(n+1-K)).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    for x in (a, q):
        if not isinstance(x, (int, Fraction)):
            raise TypeError(f"finite forms take int or Fraction arguments, not {type(x).__name__}")
    c, d, u, v = a.numerator, a.denominator, q.numerator, q.denominator
    m = n + 1 - extra
    top = m // 2
    row = [1]  # H(j, k) for k <= min(j, top), from j = 0
    picked = [1] * (top + 1)  # H(m-k, k)
    for j in range(1, m + 1):
        row = [1] + [
            v ** (j - k) * row[k - 1] + (u**k * row[k] if k < j else 0)
            for k in range(1, min(j, top) + 1)
        ]
        if m - j <= top:
            picked[m - j] = row[m - j]
    e = top * (n + 1 - top)
    num = sum(
        c**k * d ** (top - k) * u ** (k * (k + extra)) * v ** (e - k * (n + 1 - k)) * h
        for k, h in enumerate(picked)
    )
    return Fraction(num, d**top * v**e)


def finite_mu(n: int, a, q) -> Fraction:
    """Finite-form numerator: sum over k <= floor((n+1)/2); exact rationals only."""
    return _finite_sum(n, a, q, extra=0)


def finite_nu(n: int, a, q) -> Fraction:
    """Finite-form denominator: sum over k <= floor(n/2); exact rationals only."""
    return _finite_sum(n, a, q, extra=1)


# -- exact series expansions ---------------------------------------------------


def _rr_series(order: int, side: str, extra: int, residues: tuple) -> FormalSeries:
    """Exact expansion of G (extra 0, residues (1, 4)) or H (1, (2, 3)).

    'sum' is sum_n q^(n^2 + extra n) / (q;q)_n; 'product' is prod 1/(1 - q^k)
    over the k congruent to the residues mod 5.  The sum is acc_1 by Horner's
    rule: acc_(N+1) = 1, acc_n = 1 + q^(2n-1+extra)/(1 - q^n) acc_(n+1), N the last
    n with n^2 + extra n <= order.  acc_n is needed through order - (n-1)^2 -
    extra (n-1), so step n divides the order - n^2 - extra n + 1 coefficients of
    acc_(n+1) by 1 - q^n (a prefix sum in each class mod n) and prepends 1 and
    2n - 2 + extra zeros.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if side == "product":
        return product_one_minus_inv([k for k in range(1, order + 1) if k % 5 in residues], order)
    if side != "sum":
        raise ValueError(f"unknown side {side!r}")
    n = (math.isqrt(4 * order + extra) - extra) // 2  # N, as extra is 0 or 1
    acc = [1] + [0] * (order - n * n - extra * n)
    while n:
        for r in range(n):
            acc[r::n] = accumulate(acc[r::n])
        acc = [1] + [0] * (2 * n - 2 + extra) + acc
        n -= 1
    return FormalSeries(acc, 0, order)


def series_G(order: int, side: str = "sum") -> FormalSeries:
    """Exact expansion of G; 'sum' and 'product' sides must agree."""
    return _rr_series(order, side, 0, (1, 4))


def series_H(order: int, side: str = "sum") -> FormalSeries:
    """Exact expansion of H; 'sum' and 'product' sides must agree."""
    return _rr_series(order, side, 1, (2, 3))


def series_R(order: int) -> FormalSeries:
    """Exact expansion of R in t (t^5 = q): ``cf.R_ROW``, its prefactor t times its
    product row S_(5,3)/S_(5,1) = H/G at t^5.  The divisor S_(5,1) = 1 - q^2 - q^3 + q^9 + ...
    has lead 1 and about 2 sqrt(2m/5) nonzero terms through q^m, all +-1, so each
    coefficient of the quotient is the numerator's less those terms against the
    coefficients already found: no product and no reciprocal."""
    if order < 1:
        raise ValueError("order must be >= 1")
    front = _cf.R_ROW.prefactor
    m = order // front.denominator + 1
    num, den = (eta_sum([(1, 0, {k: side.count(k) for k in side})], m).coeffs
                for side in _sides(_cf.R_ROW.product))
    terms = [(k, d) for k, d in enumerate(den) if d and k]  # exponents ascending
    ratio = []
    for n, c in enumerate(num):
        for k, d in terms:
            if k > n:
                break
            c -= d * ratio[n - k]
        ratio.append(c)
    return FormalSeries(ratio, 0, m).stretch(front.denominator).shift(front.numerator).truncate(order)
