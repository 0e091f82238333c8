"""q-Pochhammer symbols, the Rogers-Ramanujan functions, theta and chi
functions, finite-form mu/nu polynomials, and exact series expansions.

Numeric routines take a PrecisionContext and truncate with tail bounds tied
to the context tolerance; the infinite products and series take real
arguments and run on fixed-point integers (``numerics._fixed``).  G, H and
chi are Euler sums on one kernel, ``_rr_sum``; the product
``pochhammer_inf`` serves the product backends, R_product, theta at q < 0
and the identity checks.  The kernel, the product and the theta sum predict
a lower bound on their term count before they start and raise
ConvergenceError at once when it exceeds max_iter (``cf.refuse_early``).
The mu/nu sums operate on whatever number type they are given and are
exact on rationals.
"""

from __future__ import annotations

import math
from itertools import accumulate
from operator import add
from typing import Optional

from .formal import FormalSeries, product_one_minus_inv
from .numerics import PrecisionContext, RootMode, _fixed, root
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
    for real |q| < 1.

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
    for _ in _cf.bounded(route, ctx):
        term = term * lead // (one - qn)
        total += term
        qn = qn * xden >> w
        lead = lead * xstep >> w
        gap = one - abs(qn) - abs(lead)  # (1 - rho_n) * (1 - |q|^(den(n+1))) * 2^W
        if gap > 0 and abs(term) * abs(lead) << ctx.stop_bits <= max(abs(total), unit) * gap:
            return ctx.mp.mpf((total, exp))
        shift = max(term.bit_length(), total.bit_length()) - w
        if shift > 0:
            term >>= shift
            total >>= shift
            unit = max(unit >> shift, 1)
            exp += shift


def _rr_function(q, ctx: PrecisionContext, backend: str, triangular: bool):
    """G (triangular=False) or H (triangular=True) by the series or product backend.

    The product is 1/((q^r; q^5)_inf (q^(5-r); q^5)_inf) with r = 1 for G, 2 for H.
    """
    if backend == "series":
        if triangular:
            return _rr_sum(q, ctx, "H series", 2, 2, 1)
        return _rr_sum(q, ctx, "G series", 1, 2, 1)
    if backend == "product":
        qv = ctx.number(q)
        q5 = qv**5
        r = 2 if triangular else 1
        return 1 / (pochhammer_inf(qv**r, q5, ctx) * pochhammer_inf(qv ** (5 - r), q5, ctx))
    raise ValueError(f"unknown backend {backend!r}")


def G(q, ctx: PrecisionContext, backend: str = "series"):
    """Rogers-Ramanujan function G(q), by series or infinite-product backend."""
    return _rr_function(q, ctx, backend, triangular=False)


def H(q, ctx: PrecisionContext, backend: str = "series"):
    """Rogers-Ramanujan function H(q), by series or infinite-product backend."""
    return _rr_function(q, ctx, backend, triangular=True)


def R_product(q, mode: RootMode = RootMode.PRINCIPAL, ctx: Optional[PrecisionContext] = None):
    """R(q) = q^(1/5) * H(q)/G(q), the product-side representation."""
    if ctx is None:
        ctx = PrecisionContext()
    qv = ctx.number(q)
    if qv == 0 or abs(qv) >= 1:
        raise ValueError("R_product requires 0 < |q| < 1")
    return root(qv, 5, mode, ctx) * H(qv, ctx, "product") / G(qv, ctx, "product")


def S(q, ctx: Optional[PrecisionContext] = None, method: str = "cf"):
    """Alternating counterpart S(q) = -R(-q) for real q in (0, 1].

    The default route evaluates the alternating continued fraction (R at -q
    with the real fifth root); the product route is available for |q| < 1.
    """
    if ctx is None:
        ctx = PrecisionContext()
    qv = ctx.number(q)
    if not (0 < qv <= 1):
        raise ValueError("S(q) requires real q in (0, 1]")
    if method == "cf":
        return -_cf.rr_cf(-qv, RootMode.REAL_ODD, ctx).require("S continued fraction")
    if method == "product":
        return -R_product(-qv, RootMode.REAL_ODD, ctx)
    raise ValueError(f"unknown method {method!r}")


def chi(q, ctx: PrecisionContext):
    """chi(q) = (-q; q^2)_inf for real |q| < 1, by one of Euler's sums.

    For q >= 0 it is sum q^(n^2)/(q^2;q^2)_n.  For q < 0, with p = -q, it is
    (p; p^2)_inf = 1/(-p; p)_inf and (-p; p)_inf = sum p^(n(n+1)/2)/(p;p)_n.
    Both sums have positive terms, so nothing cancels.  At q = 999/1000 and
    256 bits the sum takes 651 terms, where the product takes 84,856.
    """
    route = "chi series"
    qv = ctx.number(q)
    if not isinstance(qv, ctx.mp.mpc) and qv < 0:
        return 1 / _rr_sum(-qv, ctx, route, 1, 1, 1)
    return _rr_sum(qv, ctx, route, 1, 2, 2)


def theta_phi(q, ctx: PrecisionContext):
    """Theta function 1 + 2*sum_{n>=1} q^(n^2) for real |q| < 1.

    For q >= 0, sums at scale 2^W (see ``_fixed``) until a term q^(n^2) is
    below ctx.stop_tol; the integer q^(n^2) is within n^2 units of its exact
    value, which predicts the least n before the loop (``cf.refuse_early``).
    For q < 0 that sum cancels terms of size about 1 down to a value as small
    as 1e-106 (q = -0.99), so it returns the Jacobi triple product
    (q^2; q^2)_inf chi(q)^2 instead, whose factors are all positive there.
    """
    route = "theta series"
    w, (x,) = _fixed(ctx, route, q)
    if x < 0:
        q2 = ctx.number(q) ** 2
        return pochhammer_inf(q2, q2, ctx) * chi(q, ctx) ** 2
    one = 1 << w
    limit = -(-one >> ctx.stop_bits)  # stop_tol at scale 2^W, rounded up
    level = limit + ctx.max_iter**2
    if x and level <= one:
        _cf.refuse_early(route, ctx, math.sqrt((math.log(one) - math.log(level)) / _decay(x, one)))
    x2 = x * x >> w
    total = power = one  # power: q^(n^2)
    odd = x  # q^(2n-1)
    for _ in _cf.bounded(route, ctx):
        power = power * odd >> w
        total += 2 * power
        if abs(power) < limit:
            return ctx.mp.mpf((total, -w))
        odd = odd * x2 >> w


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


def _rr_series(order: int, side: str, triangular: bool) -> FormalSeries:
    """Exact expansion of G (triangular=False) or H (triangular=True).

    'sum' is sum_n q^(n^2 [+n]) / (q;q)_n; 'product' is prod 1/(1 - q^k) over
    k = 1, 4 (mod 5) for G and k = 2, 3 (mod 5) for H.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    if side == "product":
        residues = (2, 3) if triangular else (1, 4)
        return product_one_minus_inv([k for k in range(1, order + 1) if k % 5 in residues], order)
    if side != "sum":
        raise ValueError(f"unknown side {side!r}")
    acc = [1] + [0] * order
    # 1/(q;q)_n, kept only through order - shift: step n reads no further,
    # and every later step reads less
    inv = [1] + [0] * order
    n = 1
    while (shift := n * n + (n if triangular else 0)) <= order:
        top = order - shift + 1
        for r in range(n):  # times 1/(1 - q^n): a prefix sum in each residue class mod n
            inv[r:top:n] = accumulate(inv[r:top:n])
        acc[shift:] = map(add, acc[shift:], inv[:top])
        n += 1
    return FormalSeries(acc, 0, order)


def series_G(order: int, side: str = "sum") -> FormalSeries:
    """Exact expansion of G; 'sum' and 'product' sides must agree."""
    return _rr_series(order, side, triangular=False)


def series_H(order: int, side: str = "sum") -> FormalSeries:
    """Exact expansion of H; 'sum' and 'product' sides must agree."""
    return _rr_series(order, side, triangular=True)


def series_R(order: int) -> FormalSeries:
    """Exact expansion of R in t (t^5 = q): t * H(t^5)/G(t^5), lowest term t."""
    if order < 1:
        raise ValueError("order must be >= 1")
    m = order // 5 + 1
    g = series_G(m)
    h = series_H(m)
    ratio = h * g.reciprocal()  # q-series, unit constant term
    return ratio.stretch(5).shift(1).truncate(order)
