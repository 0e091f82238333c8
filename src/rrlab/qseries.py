"""q-Pochhammer symbols, the Rogers-Ramanujan functions, theta and chi
functions, finite-form mu/nu polynomials, and exact series expansions.

Numeric routines take a PrecisionContext and truncate with tail bounds tied
to the context tolerance; the infinite products and series take real
arguments and run on fixed-point integers (``_fixed``).  The finite
q-Pochhammer product and the mu/nu sums operate on whatever number type they
are given and are exact on rationals.
"""

from __future__ import annotations

from typing import Optional

from .formal import FormalSeries, product_one_minus_inv
from .numerics import PrecisionContext, RootMode, root
from . import cf as _cf

__all__ = [
    "pochhammer",
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


def pochhammer(a, q, n: int):
    """Finite q-Pochhammer (a; q)_n = prod_{k<n} (1 - a*q^k); exact on rationals."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    out = 1
    qk = 1
    for _ in range(n):
        out *= 1 - a * qk
        qk *= q
    return out


def _fixed(ctx: PrecisionContext, route: str, q, *xs):
    """The fixed-point width W of the context, and q and each x as int(v * 2^W).

    W = bits + guard_bits + bit_length(max_iter), so a loop of at most max_iter
    steps that loses one unit of 2^-W per step stays guard_bits clear of the
    context's precision.  An int mantissa m with exponent e converts back as
    ``ctx.mp.mpf((m, e))``.  Raises ValueError unless all are real and |q| < 1.
    """
    width = ctx.bits + ctx.guard_bits + ctx.max_iter.bit_length()
    out = []
    for x in (q, *xs):
        v = ctx.number(x)
        if isinstance(v, ctx.mp.mpc):
            raise ValueError(f"{route} takes real arguments, got {v}")
        out.append(int(ctx.mp.ldexp(v, width)))
    if abs(out[0]) >= 1 << width:
        raise ValueError(f"{route} requires |q| < 1")
    return width, out


def pochhammer_inf(a, q, ctx: PrecisionContext):
    """Infinite q-Pochhammer (a; q)_inf for real a and real |q| < 1.

    Runs on integers: a*q^k at scale 2^W (see ``_fixed``) and the product as a
    W-bit mantissa with a binary exponent, renormalised after every factor.
    Truncates once the remaining factors are within tolerance of 1:
    |a*q^N| / (1 - |q|) below ctx.stop_tol bounds the relative truncation error.
    """
    route = "q-Pochhammer product"
    w, (step, aqk) = _fixed(ctx, route, q, a)
    if aqk == 0:
        return ctx.mp.mpf(1)
    one = 1 << w
    limit = -(-(one - abs(step)) >> ctx.stop_bits)  # |aqk| < limit: tail below stop_tol
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


def _rr_sum(q, ctx: PrecisionContext, triangular: bool):
    """sum q^(n^2) / (q;q)_n (triangular=False) or q^(n(n+1)) / (q;q)_n, real |q| < 1.

    The term t_n = t_(n-1) * q^(2n-1 or 2n) / (1 - q^n) and the total share one
    binary exponent, renormalised by bit_length to keep them at W bits (see
    ``_fixed``).  rho_n = |q|^(2n+1 or 2n+2) / (1 - |q|^(n+1)) decreases in n and
    bounds |t_(k+1)/t_k| for every k >= n, so the tail after t_n is at most
    |t_n| rho_n / (1 - rho_n); the sum stops once that is within
    ctx.stop_tol * max(1, |total|).
    """
    route = "H series" if triangular else "G series"
    w, (x,) = _fixed(ctx, route, q)
    one = 1 << w
    x2 = x * x >> w
    qn, lead = x, (x2 if triangular else x)  # q^n and q^(2n) or q^(2n-1), n = 1
    term = total = unit = one  # unit: 1 at the shared exponent
    exp = -w
    for _ in _cf.bounded(route, ctx):
        term = term * lead // (one - qn)
        total += term
        qn = qn * x >> w
        lead = lead * x2 >> w
        gap = one - abs(qn) - abs(lead)  # (1 - rho_n) * (1 - |q|^(n+1)) * 2^W
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
        return _rr_sum(q, ctx, triangular)
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
    """chi(q) = (-q; q^2)_inf."""
    qv = ctx.number(q)
    return pochhammer_inf(-qv, qv**2, ctx)


def theta_phi(q, ctx: PrecisionContext):
    """Theta function 1 + 2*sum_{n>=1} q^(n^2) for real |q| < 1.

    For q >= 0, sums at scale 2^W (see ``_fixed``) until a term q^(n^2) is
    below ctx.stop_tol.  For q < 0 that sum cancels terms of size about 1 down
    to a value as small as 1e-106 (q = -0.99), so it returns the Jacobi
    triple product (q^2; q^2)_inf chi(q)^2 instead, whose factors are all
    positive there.
    """
    route = "theta series"
    w, (x,) = _fixed(ctx, route, q)
    if x < 0:
        q2 = ctx.number(q) ** 2
        return pochhammer_inf(q2, q2, ctx) * chi(q, ctx) ** 2
    one = 1 << w
    limit = -(-one >> ctx.stop_bits)  # stop_tol at scale 2^W, rounded up
    x2 = x * x >> w
    total = power = one  # power: q^(n^2)
    odd = x  # q^(2n-1)
    for _ in _cf.bounded(route, ctx):
        power = power * odd >> w
        total += 2 * power
        if abs(power) < limit:
            return ctx.mp.mpf((total, -w))
        odd = odd * x2 >> w


def _qq(q, n: int):
    """(q; q)_n."""
    return pochhammer(q, q, n)


def _finite_sum(n: int, a, q, extra: int):
    """sum_{k <= m/2} a^k q^(k^2 + extra*k) (q;q)_(m-k) / ((q;q)_k (q;q)_(m-2k)), m = n+1-extra."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    m = n + 1 - extra
    total = 0
    for k in range(0, m // 2 + 1):
        total += a**k * q ** (k * (k + extra)) * _qq(q, m - k) / (_qq(q, k) * _qq(q, m - 2 * k))
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
    acc = [0] * (order + 1)
    acc[0] = 1
    inv = [0] * (order + 1)  # prod_{j<=n} 1/(1-q^j)
    inv[0] = 1
    n = 1
    while (n * n + (n if triangular else 0)) <= order:
        for j in range(n, order + 1):
            if inv[j - n] != 0:
                inv[j] += inv[j - n]
        shift = n * n + (n if triangular else 0)
        for j in range(shift, order + 1):
            if inv[j - shift] != 0:
                acc[j] += inv[j - shift]
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
