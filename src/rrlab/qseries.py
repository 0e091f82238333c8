"""q-Pochhammer symbols, the Rogers-Ramanujan functions, theta and chi
functions, finite-form mu/nu polynomials, and exact series expansions.

Numeric routines take a PrecisionContext and truncate with tail bounds tied
to the context tolerance; the infinite products and series take real
arguments and run on fixed-point integers (``numerics._fixed``).  G, H and
chi are Euler sums on one kernel, ``_rr_sum``; near q = 1 it forms the terms
before the peak, which lie far below the total, as one term (its head) and
sums only the terms that reach the total.  A short head is a division-free
product; a long one comes from (q; q)_inf in closed form by Dedekind-eta
inversion and a short series, by one predicted-cost rule.  The product sides
(R_product, the product backends of G and H, Euler's E = (q;q)_inf of the
identity checks and theta at q < 0) are quotients of sparse alternating sums
S_(A,B)(q) = sum over all m of (-1)^m q^((A m^2 - B m)/2), the Jacobi triple
product and pentagonal number theorem, on a second kernel, ``_jacobi_sum``:
O(sqrt(bits/h)) terms at h = -ln|q|, with guard bits for the cancellation
it predicts and then measures.  For q > 0 one predicted-cost rule
(``_theta_quotient``) takes their Jacobi imaginary transformation instead,
one term each near q = 1 (``_poisson_quotient``).  Every kernel predicts a
lower bound on its term count before it starts and raises ConvergenceError
at once when it exceeds max_iter (``cf.refuse_early``).  S's default route is
``cf.rr_value``: the alternating fraction at q, or near q = 1 the paper's
modular relation, which runs the fraction at exp(-pi^2/ln(1/q)) instead.
The finite-form mu/nu polynomials take exact rationals only, and sum
Gaussian polynomials in integers.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Optional

from mpmath import libmp

from .formal import FormalSeries, product_one_minus_inv, theta_series
from .numerics import _MEMO, PrecisionContext, RootMode, _ball, _fixed, _nome_units, _prove, root
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
    return (ETA_TERM_STEPS * terms + ETA_CALL_STEPS) * _step_cost(v) < n0 * _step_cost(w)


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


def _rr_sum(q, ctx: PrecisionContext, route: str, first: int, step: int, den: int, widen: bool = True):
    """The Euler sum of t_n, t_0 = 1, t_n = t_(n-1) q^(first + step(n-1)) / (1 - q^(den n)),
    for real |q| < 1, as (value, radius); the radius is None for q < 0.

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
    rule (``_eta_pays``, from q, n0 and W) forms it by the product, two
    multiplies an index (``_product_head``), or by Dedekind-eta inversion
    and a series of O(W/(h n0)) terms (``_eta_head``): at 256 bits the
    product up to about q = 1 - 2e-4, the series above, 516 terms for G's
    44,964 indices at 1 - 1e-5.  The head proves the terms rise through t_(n0),
    so the n0 terms it leaves out sum to at most n0 t_(n0), and t_(n0) is
    within its units of its integer; the radius adds that bound, and the
    units add to c below.  If the head is not proven to rise, or the bound
    exceeds the tail bound, the sum runs again from n0 = 0.  The loop after
    either head counts from index n0 + 1 of ``cf.bounded``, so the iteration
    counts and the max_iter exit are those of the loop from 0.

    The radius (q >= 0, n terms, S the exact sum at the converted q).  Every
    integer step of the loop truncates downwards, so the computed total is
    below the sum it runs from t_(n0).  The power q^a in ``lead`` is within
    a units of 2^-W and q^(den n) in ``qn`` within den n, so the computed
    ratio of term j is within
    a_j 2^-W / q^(a_j) + den j 2^-W / (1 - q^(den j)) of the exact one,
    relatively; each step's floor and shifts lose at most 2^(e+1), e the
    shared exponent, and 2^e <= 2 max(1, total) 2^-W.  Carried through the
    later terms with the decreasing ratios, these lose at most c S with
    c 2^W = n(n+1)(den + first + step)/(1 - q^(den(n+1))) + 2n(n+4), using
    that m/(1 - q^m) increases in m; the head's units add to c.  The tail is
    bounded from the last term summed, t_n rho_n/(1 - rho_n), with t_n,
    rho_n taken from the final integers plus their error units; the
    converted q adds its part through ``numerics._nome_units``.  All of it
    is computed once, after the loop.

    For q < 0 the terms alternate in sign.  The loop keeps the largest |t_n|
    at the shared exponent; when the total is more than 2^guard_bits times
    smaller (``_lost_bits``), the sum runs again on ``ctx.widened`` by the
    bits it lost, with ``widen`` False so that it does so once, and the
    value is rounded back to the context.
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
        for n in _cf.bounded(route, ctx, n0 + 1):
            term = term * lead // (one - qn)
            total += term
            if x < 0 and abs(term) > top:
                top = abs(term)
            qn = qn * xden >> w
            lead = lead * xstep >> w
            gap = one - abs(qn) - abs(lead)  # (1 - rho_n) * (1 - |q|^(den(n+1))) * 2^W
            if gap > 0 and abs(term) * abs(lead) << stop <= max(abs(total), unit) * gap:
                break
            shift = max(term.bit_length(), total.bit_length()) - w
            if shift > 0:
                term >>= shift
                total >>= shift
                top >>= shift
                unit = max(unit >> shift, 1)
                exp += shift
        if x < 0:
            lost = _lost_bits(top, total)
            if widen and lost > ctx.guard_bits:
                value, _ = _rr_sum(q, ctx.widened(math.ceil(lost)), route, first, step, den, widen=False)
                return ctx.mp.mpf(value), None
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


def _reciprocal(ctx: PrecisionContext, value, radius):
    """(1/value, its radius) for a positive value within radius of the exact one."""
    mp = ctx.mp
    inverse = 1 / value
    if radius is None or radius >= value:
        return inverse, None
    low = mp.fmul(value, mp.fsub(value, radius, rounding="d"), rounding="d")
    # |1/s - 1/value| <= radius/(value (value - radius)), plus the division's rounding
    return inverse, mp.fadd(mp.fdiv(radius, low, rounding="u"), mp.ldexp(inverse, 1 - ctx.bits), rounding="u")


# -- sparse theta sums -----------------------------------------------------------


def _step_cost(width: int) -> float:
    """Predicted time of one product-loop step at `width` bits, in arbitrary units.

    (width + 256)^1.6 fits CPython's int multiply (schoolbook below about
    2,100 bits, Karatsuba above) plus the loop's own overhead to within 25 %
    between 300 and 20,000 bits; a term of the sparse sums costs two such
    steps (four multiplies against two).
    """
    return (width + 256) ** 1.6


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


def _jacobi_sum(q, ctx: PrecisionContext, route: str, parts, loss: float):
    """sum over the parts (A, B, weight) of c S_(A,B)(q), for real |q| < 1, where

        S_(A,B)(q) = 1 + sum_{m>=1} (-1)^m q^(m(Am-B)/2) (1 + q^(Bm))
                   = sum over all integers m of (-1)^m q^((A m^2 - B m)/2),

    which the Jacobi triple product makes (q^A; q^A)_inf (q^((A-B)/2); q^A)_inf
    (q^((A+B)/2); q^A)_inf; it needs A > B >= 0 with A - B even.  c is 1 for
    weight None; otherwise weight(w, q 2^w) returns c 2^w at width w.

    The terms are at most 1 in size, but near q = 1 the total cancels to
    about exp(-loss/h), h = -ln|q| (loss = pi^2/(2A) for one part).  So each
    pass runs at width w = W + g (W from ``_fixed``), with g guard bits for
    that cancellation, and stops a part once its tail is below
    2^-(stop_bits + g): the ratio of consecutive terms, |q|^(Am + (A-B)/2)
    = |slo|, falls with m, so the tail after term m is at most
    2 |q^(m(Am-B)/2)| / (1 - |slo|).  The first pass predicts g from `loss`.
    After the loop the total's bit length measures the cancellation: when
    the total is below 2^-g the sum is redone once with g set to what was
    measured (plus two bits), and a sum that comes out short again raises
    ArithmeticError.  Each pass predicts its term count before it starts
    (``cf.refuse_early``): the integer q^(m(Am-B)/2) is within (A + 2) m^2
    units of its exact value.
    """
    base, (x,) = _fixed(ctx, route, q)
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


def _poisson_plan(decay: float, w: int, ctx: PrecisionContext, sums):
    """(V, each sum's real count k of terms down to its stop, its cost) of ``_poisson_quotient`` at q = e^-decay."""
    cs = [math.pi**2 / (2 * a * decay) for a, _ in sums[0] + sums[1]]
    v, bits = w + math.ceil(max(cs)).bit_length() + POISSON_MARGIN, (ctx.stop_bits + POISSON_MARGIN) * math.log(2)
    terms = [(math.sqrt(1 + bits / c) - 1) / 2 for c in cs]
    return v, terms, sum(POISSON_CALL_STEPS * max(1, v / 3072) + 2 * math.ceil(k) for k in terms) * _step_cost(v)


def _poisson_quotient(x: int, w: int, ctx: PrecisionContext, route: str, sums):
    """The quotient of the theta sums ``sums`` (numerator, denominator) at
    q = x 2^-W = e^-h, 0 < q < 1, by Poisson summation (Jacobi's imaginary
    transformation) of each S_(A,B) of ``_jacobi_sum``, c = pi^2/(2 A h):
        S = 2 sqrt(2 pi/(A h)) e^(h B^2/(8A) - c) sum_k cos((2k+1) pi B/(2A)) e^(-4c k(k+1)).
    The first weight is at least cos(3 pi/10) > 0.58, so a sum is at least 1/2 once
    e^(-8c) <= 1/16: nothing cancels.  h comes from x, each A's c and prefactor once
    (e^-c cancels exactly in R), each libmp operation rounded once at the width V of
    ``_poisson_plan``, so e^-c is within about 6c 2^-V <= 2^-W.  Weights step by
    cos(j+2) = 2 cos(2) cos(j) - cos(j-2) in units of pi B/(2A); a sum stops once its
    tail, below the next term over 1 - e^(-8c(k+1)), is below 2^-(stop_bits + POISSON_MARGIN).
    """
    v, terms, _ = _poisson_plan(_decay(x, 1 << w), w, ctx, sums)
    _cf.refuse_early(route, ctx, max(terms))
    big, stop, lm = 1 << v, ctx.stop_bits + POISSON_MARGIN, libmp

    def op(f, *args):  # one libmp operation, rounded at V
        return f(*args, v, lm.round_nearest)

    h, pi = lm.mpf_neg(op(lm.mpf_log, lm.from_man_exp(x, -w))), op(lm.mpf_pi)
    signed = [(1, a, b) for a, b in sums[0]] + [(-1, a, b) for a, b in sums[1]]
    e = sum(Fraction(sign * b * b, 8 * a) for sign, a, b in signed)
    value, forms = op(lm.mpf_exp, op(lm.mpf_mul, h, op(lm.from_rational, e.numerator, e.denominator))), {}
    for sign, a, b in signed:
        if a not in forms:  # 2 sqrt(2 pi/(A h)) e^-c, and u = e^(-8c) at scale 2^V
            ah = op(lm.mpf_mul, h, lm.from_int(a))
            ec = op(lm.mpf_exp, lm.mpf_neg(op(lm.mpf_div, op(lm.mpf_mul, pi, pi), lm.mpf_shift(ah, 1))))
            root = op(lm.mpf_sqrt, op(lm.mpf_div, lm.mpf_shift(pi, 3), ah))
            forms[a] = op(lm.mpf_mul, root, ec), lm.to_int(lm.mpf_shift(op(lm.mpf_pow_int, ec, 8), v))
        prefactor, u = forms[a]
        weight = last = lm.to_int(lm.mpf_shift(op(lm.mpf_cos_pi, op(lm.from_rational, b, 2 * a)), v))
        double, total, power, ratio = (weight * weight >> v - 2) - 2 * big, 0, big, u  # 2 cos(pi B/A)
        for _ in _cf.bounded(route, ctx):  # at term k: u^(k(k+1)/2) and u^(k+1)
            total += weight * power >> v
            power = power * ratio >> v
            if power << stop <= big - ratio:
                break
            ratio = ratio * u >> v
            weight, last = (weight * double >> v) - last, weight
        value = op(lm.mpf_mul if sign > 0 else lm.mpf_div, value, op(lm.mpf_mul, prefactor, lm.from_man_exp(total, -v)))
    return +ctx.mp.make_mpf(value)


def _theta_quotient(q, ctx: PrecisionContext, name: str):
    """One of the quotients of theta sums in ``_THETA_ROUTES``, by the cheaper route.

    Each is a quotient of Jacobi triple product sums S_(A,B), summed directly
    (``_jacobi_sum``, O(sqrt(bits/h)) terms at W + pi^2/(2A h ln 2) bits,
    h = -ln|q|) or for q > 0 transformed (``_poisson_quotient``, O(sqrt(bits h))
    terms at about W bits), whichever costs less as predicted: the transformation
    from q = 0.91-0.96 on at 256 bits (R from 0.964), from 0.64-0.83 at 2,048.

    While a command runs (``numerics._MEMO``) each (name, type and value of q,
    ctx) is computed once: a later call returns the value the first one
    returned, and a call that raises stores nothing.  The quotient proves no
    radius, so ``certify`` sees the same either way; a kernel that proves one
    and is memoised must hand the proof to ``_prove`` again on a hit.
    """
    memo = _MEMO.get()
    key = (name, type(q), q, ctx)
    if memo is not None and (value := memo.get(key)) is not None:
        return value
    route, sums = _THETA_ROUTES[name]
    base, (x,) = _fixed(ctx, route, q)
    if x > 0:  # each direct sum's terms at its guarded width, plus CALL_STEPS at W
        decay, direct = _decay(x, 1 << base), len(sums[0] + sums[1]) * CALL_STEPS * _step_cost(base)
        for a, b in sums[0] + sums[1]:
            g = _guard(decay, math.pi**2 / (2 * a))
            direct += 2 * _sparse_terms(decay, a, b, ctx.stop_bits + g) * _step_cost(base + g)
    if x > 0 and POISSON_CALL_STEPS * _step_cost(base) < direct and _poisson_plan(decay, base, ctx, sums)[2] < direct:
        value = _poisson_quotient(x, base, ctx, route, sums)
    else:
        num, den = ([_jacobi_sum(q, ctx, route, ((a, b, None),), math.pi**2 / (2 * a)) for a, b in side]
                    for side in sums)
        value = math.prod(num, start=ctx.mp.one) / math.prod(den, start=ctx.mp.one)
    if memo is not None:
        memo[key] = value
    return value


# name: (route, (numerator, denominator) sums (A, B))
_THETA_ROUTES = {
    # R(q)/q^(1/5) = theta_H/theta_G = (q; q^5)(q^4; q^5) / ((q^2; q^5)(q^3; q^5))
    "R": ("R theta sum", (((5, 3),), ((5, 1),))),
    # G = theta_G/E = 1/((q; q^5)(q^4; q^5)) and H = theta_H/E = 1/((q^2; q^5)(q^3; q^5))
    "G": ("G theta sum", (((5, 1),), ((3, 1),))),
    "H": ("H theta sum", (((5, 3),), ((3, 1),))),
    # Euler's E = (q; q)_inf, the pentagonal number theorem
    "E": ("Euler pentagonal sum", (((3, 1),), ())),
    # phi(-q) = sum (-1)^m q^(m^2) = (q^2; q^2)(q; q^2)^2
    "phi-": ("theta sum", (((2, 0),), ())),
}


def _rr_function(q, ctx: PrecisionContext, backend: str, name: str, first: int):
    """G (name "G", first 1) or H ("H", 2): the series ``_rr_sum`` at
    (first, 2, 1), or the product theta_G/E or theta_H/E (``_theta_quotient``),
    which proves no radius."""
    if backend == "series":
        return _prove(*_rr_sum(q, ctx, f"{name} series", first, 2, 1))
    if backend == "product":
        return _theta_quotient(q, ctx, name)
    raise ValueError(f"unknown backend {backend!r}")


def G(q, ctx: PrecisionContext, backend: str = "series"):
    """Rogers-Ramanujan function G(q), by series or infinite-product backend.

    The series at q >= 0 proves its radius (``_rr_sum``) to ``certify``.
    """
    return _rr_function(q, ctx, backend, "G", 1)


def H(q, ctx: PrecisionContext, backend: str = "series"):
    """Rogers-Ramanujan function H(q), by series or infinite-product backend.

    The series at q >= 0 proves its radius (``_rr_sum``) to ``certify``.
    """
    return _rr_function(q, ctx, backend, "H", 2)


def R_product(q, ctx: PrecisionContext, mode: RootMode = RootMode.PRINCIPAL):
    """R(q) = q^(1/5) * H(q)/G(q) = q^(1/5) * theta_H(q)/theta_G(q), the product side."""
    qv = ctx.number(q)
    if qv == 0 or abs(qv) >= 1:
        raise ValueError("R_product requires 0 < |q| < 1")
    return root(qv, 5, mode, ctx) * _theta_quotient(q, ctx, "R")


def _s_nome(q, ctx: PrecisionContext):
    """q as a number of the context, or ValueError unless it lies in S's domain (0, 1]."""
    qv = ctx.number(q)
    if not (0 < qv <= 1):
        raise ValueError("S(q) requires real q in (0, 1]")
    return qv


def S(q, ctx: PrecisionContext, method: Optional[str] = None):
    """Alternating counterpart S(q) = -R(-q) for real q in (0, 1].

    "cf" evaluates the alternating continued fraction (R at -q with the real
    fifth root), and "product" the product route, for q < 1.  The default
    takes the cheaper of the fraction at q and S's modular relation
    (``cf.rr_value``); checks name "cf" or "product", so that no identity
    compares the relation with itself.
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
    """chi(q) = (-q; q^2)_inf for real |q| < 1, by one of Euler's sums.

    For q >= 0 it is sum q^(n^2)/(q^2;q^2)_n.  For q < 0, with p = -q, it is
    (p; p^2)_inf = 1/(-p; p)_inf and (-p; p)_inf = sum p^(n(n+1)/2)/(p;p)_n.
    Both sums have positive terms, so nothing cancels, and both prove their
    radius (``_rr_sum``; for q < 0 that of the sum, carried through 1/sum)
    to ``certify``.  At 256 bits the sum stops after 651 indices at
    q = 999/1000, where the product takes 84,856 factors, and after 37,510
    at 1 - 10^-5; the head takes 49 and 31,654 of them, as 49 factors and as
    a series of 366 terms, and the loop sums the other 602 and 5,856.
    """
    route = "chi series"
    qv = ctx.number(q)
    if not isinstance(qv, ctx.mp.mpc) and qv < 0:
        return _prove(*_reciprocal(ctx, *_rr_sum(-q, ctx, route, 1, 1, 1)))
    return _prove(*_rr_sum(q, ctx, route, 1, 2, 2))


def theta_phi(q, ctx: PrecisionContext):
    """Theta function 1 + 2*sum_{n>=1} q^(n^2) for real |q| < 1.

    For q >= 0, sums at scale 2^W (see ``_fixed``) until the term q^(n^2) and
    the tail after it, 2 sum_{m>n} q^(m^2) <= 2 q^(n^2) q^(2n+1)/(1 - q^(2n+1)),
    are both below ctx.stop_tol; near q = 1 the tail is the larger, 24 times
    the term at 1 - 1e-5.  The integer q^(n^2) is within n^2 - 1 units of its
    exact value and q^(2n+1) within 2n, which predicts the least n before the
    loop (``cf.refuse_early``) and gives the radius proved to ``certify``:
    the summed powers' units, at most 2 sum n^2, the tail from the last
    integers plus their units, and the converted q's part
    (``numerics._nome_units``).
    For q < 0 it is the alternating sum 1 + 2 sum_{n>=1} (-1)^n |q|^(n^2),
    which cancels down to about exp(-pi^2/(4h)), h = -ln|q| (8.5e-106 at
    q = -0.99): ``_theta_quotient`` "phi-" sums it with guard bits for that,
    or near q = -1 sums its theta_2 transformation, whose terms do not
    cancel; neither route proves a radius.
    """
    route = "theta series"
    w, (x,) = _fixed(ctx, route, q)
    if x < 0:
        return _theta_quotient(-q, ctx, "phi-")
    one = 1 << w
    limit = -(-one >> ctx.stop_bits)  # stop_tol at scale 2^W, rounded up
    level = limit + ctx.max_iter**2
    if x and level <= one:
        _cf.refuse_early(route, ctx, math.sqrt((math.log(one) - math.log(level)) / _decay(x, one)))
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
    return _prove(*_ball(ctx, total, -w, units))


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
    """Exact expansion of R in t (t^5 = q): t * (S_(5,3)/S_(5,1))(t^5), lowest term t.

    By the Jacobi triple product the quotient of the two sparse theta series is
    the paper's product (q;q^5)(q^4;q^5)/((q^2;q^5)(q^3;q^5)) = H/G.  The divisor
    S_(5,1) = 1 - q^2 - q^3 + q^9 + ... has lead 1 and about 2 sqrt(2m/5) nonzero
    terms through q^m, all +-1, so each coefficient of the quotient is the
    numerator's less those terms against the coefficients already found: no
    product and no reciprocal.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    m = order // 5 + 1
    num = theta_series(5, 3, m).coeffs
    den = theta_series(5, 1, m).coeffs
    terms = [(k, d) for k, d in enumerate(den) if d and k]  # exponents ascending
    ratio = []
    for n, c in enumerate(num):
        for k, d in terms:
            if k > n:
                break
            c -= d * ratio[n - k]
        ratio.append(c)
    return FormalSeries(ratio, 0, m).stretch(5).shift(1).truncate(order)
