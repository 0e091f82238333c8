"""q-Pochhammer symbols, the Rogers-Ramanujan functions, theta and chi
functions, finite-form mu/nu polynomials, and exact series expansions.

Numeric routines take a PrecisionContext and truncate with tail bounds tied
to the context tolerance; the infinite products and series take real
arguments and run on fixed-point integers (``numerics._fixed``).  G, H and
chi are Euler sums on one kernel, ``_rr_sum``.  The product sides (R_product,
the product backends of G and H, Euler's E = (q;q)_inf of the identity
checks and theta at q < 0) are quotients of sparse alternating sums
S_(A,B)(q) = sum over all m of (-1)^m q^((A m^2 - B m)/2), the Jacobi triple
product and pentagonal number theorem, on a second kernel, ``_jacobi_sum``:
O(sqrt(bits/h)) terms at h = -ln|q|, with guard bits for the cancellation
it predicts and then measures.  One predicted-cost rule
(``_theta_quotient``) sends them to the product ``pochhammer_inf`` instead,
which only happens near |q| = 1.  Every kernel predicts a lower bound on its
term count before it starts and raises ConvergenceError at once when it
exceeds max_iter (``cf.refuse_early``).  The mu/nu sums operate on whatever
number type they are given and are exact on rationals.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add

from .formal import FormalSeries, product_one_minus_inv, theta_series
from .numerics import PrecisionContext, RootMode, _ball, _fixed, _nome_units, _prove, root
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
    """x^k at scale 2^W by k - 1 truncating products, so within k - 1 units."""
    out = x
    for _ in range(k - 1):
        out = out * x >> w
    return out


def _rr_sum(q, ctx: PrecisionContext, route: str, first: int, step: int, den: int):
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

    The radius (q >= 0, n terms, S the exact sum at the converted q).  Every
    integer step truncates downwards, so the computed total is below S.  The
    power q^a in ``lead`` is within a units of 2^-W and q^(den n) in ``qn``
    within den n, so the computed ratio of term j is within
    a_j 2^-W / q^(a_j) + den j 2^-W / (1 - q^(den j)) of the exact one,
    relatively; each step's floor and shifts lose at most 2^(e+1), e the
    shared exponent, and 2^e <= 2 max(1, total) 2^-W.  Carried through the
    later terms with the decreasing ratios, these lose at most c S with
    c 2^W = n(n+1)(den + first + step)/(1 - q^(den(n+1))) + 2n(n+4), using
    that m/(1 - q^m) increases in m.  The tail is bounded from the last term
    summed, t_n rho_n/(1 - rho_n), with t_n, rho_n taken from the final
    integers plus their error units; the converted q adds its part through
    ``numerics._nome_units``.  All three are computed once, after the loop.
    """
    w, (x,) = _fixed(ctx, route, q)
    one = 1 << w
    xstep, xden = _power(x, step, w), _power(x, den, w)
    qn, lead = xden, _power(x, first, w)  # q^(den n) and q^(first + step(n-1)), n = 1
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
    term = total = unit = one  # unit: 1 at the shared exponent
    exp = -w
    for n in _cf.bounded(route, ctx):
        term = term * lead // (one - qn)
        total += term
        qn = qn * xden >> w
        lead = lead * xstep >> w
        gap = one - abs(qn) - abs(lead)  # (1 - rho_n) * (1 - |q|^(den(n+1))) * 2^W
        if gap > 0 and abs(term) * abs(lead) << ctx.stop_bits <= max(abs(total), unit) * gap:
            break
        shift = max(term.bit_length(), total.bit_length()) - w
        if shift > 0:
            term >>= shift
            total >>= shift
            unit = max(unit >> shift, 1)
            exp += shift
    a = first + step * n  # q^a = q^(first + step n), within a units of lead
    d = one - qn - den * (n + 1)  # at most (1 - q^(den(n+1))) 2^W
    rate = _nome_units(x, w)
    if x < 0 or d <= lead + a or rate is None:
        return _ball(ctx, total, exp, None)
    c = -(-(n * (n + 1) * (den + first + step) << w) // d) + 2 * n * (n + 4)
    if 2 * c > one:
        return _ball(ctx, total, exp, None)
    bound = -(-total * one // (one - c))  # the exact partial sum is at most total/(1 - c)
    rounding = -(-c * bound >> w)
    tail = -(-(term + rounding) * (lead + a) // (d - lead - a))
    return _ball(ctx, total, exp, rounding + tail + -(-rate * (bound + tail) >> w))


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


# The fixed cost of one call of either kernel (conversions, the prediction and
# the result), in steps at the context's width W: about 25 us against 1 us
# per step at 256 bits.
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


def _theta_quotient(q, ctx: PrecisionContext, name: str):
    """One of the quotients of theta sums in ``_THETA_ROUTES``, by the cheaper route.

    Each is a quotient of Jacobi triple product sums S_(A,B) (``_jacobi_sum``)
    and equally a quotient of q-Pochhammer products (q^j; q^k)_inf
    (``pochhammer_inf``).  The sums need O(sqrt(bits/h)) terms but
    pi^2/(2A h ln 2) extra bits, h = -ln|q|; the products need
    O(bits/h) factors at W bits.  The rule: predict each route's step count
    times ``_step_cost`` of its width, plus CALL_STEPS per kernel call, and
    take the sums unless the products cost less.  At 256 bits that happens
    near |q| = 1 (from about 1 - 2e-4 on) and, where either route takes a
    few steps, for G and H below about q = 1/20 and for E below e^-60.
    """
    route, sums, products = _THETA_ROUTES[name]
    base, (x,) = _fixed(ctx, route, q)
    sparse = product = 0.0
    if x:
        decay = _decay(x, 1 << base)
        for a, b in sums[0] + sums[1]:
            g = _guard(decay, math.pi**2 / (2 * a))
            sparse += 2 * _sparse_terms(decay, a, b, ctx.stop_bits + g) * _step_cost(base + g)
            sparse += CALL_STEPS * _step_cost(base)
        for _, k in products[0] + products[1]:
            product += (ctx.stop_bits * math.log(2) / (k * decay) + CALL_STEPS) * _step_cost(base)
    if product < sparse:
        qv = ctx.number(q)
        num, den = ([pochhammer_inf(qv**j, qv**k, ctx) for j, k in side] for side in products)
    else:
        num, den = (
            [_jacobi_sum(q, ctx, route, ((a, b, None),), math.pi**2 / (2 * a)) for a, b in side]
            for side in sums
        )
    return math.prod(num, start=ctx.mp.one) / math.prod(den, start=ctx.mp.one)


# name: (route, (numerator, denominator) sums (A, B), (numerator, denominator) products (j, k))
_THETA_ROUTES = {
    # R(q)/q^(1/5) = theta_H/theta_G = (q; q^5)(q^4; q^5) / ((q^2; q^5)(q^3; q^5))
    "R": ("R theta sum", (((5, 3),), ((5, 1),)), (((1, 5), (4, 5)), ((2, 5), (3, 5)))),
    # G = theta_G/E = 1/((q; q^5)(q^4; q^5)) and H = theta_H/E = 1/((q^2; q^5)(q^3; q^5))
    "G": ("G theta sum", (((5, 1),), ((3, 1),)), ((), ((1, 5), (4, 5)))),
    "H": ("H theta sum", (((5, 3),), ((3, 1),)), ((), ((2, 5), (3, 5)))),
    # Euler's E = (q; q)_inf, the pentagonal number theorem
    "E": ("Euler pentagonal sum", (((3, 1),), ()), (((1, 1),), ())),
    # phi(-q) = sum (-1)^m q^(m^2) = (q^2; q^2)(q; q^2)^2
    "phi-": ("theta sum", (((2, 0),), ()), (((2, 2), (1, 2), (1, 2)), ())),
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
    return root(qv, 5, mode, ctx) * _theta_quotient(qv, ctx, "R")


def S(q, ctx: PrecisionContext, method: str = "cf"):
    """Alternating counterpart S(q) = -R(-q) for real q in (0, 1].

    The default route evaluates the alternating continued fraction (R at -q
    with the real fifth root); the product route is available for |q| < 1.
    """
    qv = ctx.number(q)
    if not (0 < qv <= 1):
        raise ValueError("S(q) requires real q in (0, 1]")
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
    to ``certify``.  At q = 999/1000 and 256 bits the sum takes 651 terms,
    where the product takes 84,856.
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
    or near q = -1 takes the product (q^2; q^2)_inf (-q; q^2)_inf^2; that
    route proves no radius.
    """
    route = "theta series"
    w, (x,) = _fixed(ctx, route, q)
    if x < 0:
        return _theta_quotient(-ctx.number(q), ctx, "phi-")
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


def _finite_sum(n: int, a, q, extra: int):
    """sum_{k <= m/2} a^k q^(k^2 + extra*k) (q;q)_(m-k) / ((q;q)_k (q;q)_(m-2k)), m = n+1-extra."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n + 1 - extra
    qq = [1]  # (q;q)_j for j = 0..m
    qk = 1
    for _ in range(m):
        qk *= q
        qq.append(qq[-1] * (1 - qk))
    total = 0
    for k in range(0, m // 2 + 1):
        total += a**k * q ** (k * (k + extra)) * qq[m - k] / (qq[k] * qq[m - 2 * k])
    return total


def finite_mu(n: int, a, q):
    """Finite-form numerator: sum over k <= floor((n+1)/2); exact on rationals."""
    return _finite_sum(n, a, q, extra=0)


def finite_nu(n: int, a, q):
    """Finite-form denominator: sum over k <= floor(n/2); exact on rationals."""
    return _finite_sum(n, a, q, extra=1)


# -- exact series expansions ---------------------------------------------------


def _rr_series(order: int, side: str, extra: int, residues: tuple) -> FormalSeries:
    """Exact expansion of G (extra 0, residues (1, 4)) or H (1, (2, 3)).

    'sum' is sum_n q^(n^2 + extra n) / (q;q)_n; 'product' is prod 1/(1 - q^k)
    over the k congruent to the residues mod 5.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if side == "product":
        return product_one_minus_inv([k for k in range(1, order + 1) if k % 5 in residues], order)
    if side != "sum":
        raise ValueError(f"unknown side {side!r}")
    acc = [1] + [0] * order
    # 1/(q;q)_n, kept only through order - shift: step n reads no further,
    # and every later step reads less
    inv = [1] + [0] * order
    n = 1
    while (shift := n * n + extra * n) <= order:
        top = order - shift + 1
        for r in range(n):  # times 1/(1 - q^n): a prefix sum in each residue class mod n
            inv[r:top:n] = accumulate(inv[r:top:n])
        acc[shift:] = map(add, acc[shift:], inv[:top])
        n += 1
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
