"""Identity verification registry: numeric sweeps and exact checks.

The registry ``_CASES`` maps each identity id to its (grid, sides) tables: the
grid lists labelled points and the sides yield only (suffix, lhs, rhs) triples,
the left and right value at each point.  A nome a grid lists or a side forms
from an exact argument is a ``Nome``.  A side that cancels is a ``_real_sum``,
formed again on the context widened by the bits it measures: 1/R - 1 - R,
1/R^5 - 11 - R^5, cubic's v - u^3 and the factorization's left side.  ``verify``
runs the tables on the package's one check driver, ``numerics.check_tables``,
whose one record rule, ``numerics.record``, judges each record by the type of
its two values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add

from . import cf as _cf
from . import qseries as _qs
from . import special_values as _sv
from .formal import FormalSeries, stretched_product, theta_series
from .numerics import Nome, PrecisionContext, RootMode, _fixed, _log2, check_tables, golden_phi, root

__all__ = [
    "VerificationReport",
    "UnknownIdentityError",
    "identity_ids",
    "verify",
    "cf2_spec",
    "cf2_value",
    "jims_identity",
    "asymptotic_check",
]


class UnknownIdentityError(KeyError):
    pass


@dataclass
class VerificationReport:
    id: str
    records: list
    max_deviation: object
    status: str

    def to_json(self, ctx: PrecisionContext) -> dict:
        fmt = ctx.decimal
        return {
            "id": self.id,
            "context": {"bits": ctx.bits, "tol": fmt(ctx.tol)},
            "records": [
                {
                    "point": r["point"],
                    "lhs": fmt(r["lhs"]),
                    "rhs": fmt(r["rhs"]),
                    "abs_dev": fmt(r["abs_dev"]),
                    "agree_bits": r["agree_bits"],
                }
                for r in self.records
            ],
            "max_deviation": fmt(self.max_deviation),
            "status": self.status,
        }


# -- the identity table ------------------------------------------------------------


def _q_grid(samples: int, series_order: int) -> list:
    """Evenly spaced rational nomes in [1/20, 1/2]; 10 samples gives steps of 1/20."""
    lo, step = Fraction(1, 20), Fraction(9, 20) / max(samples - 1, 1)
    return [(f"q={lo + i * step}", Nome.rational(lo + i * step)) for i in range(samples)]


def _point(label: str):
    """A one-point grid; the point is the series order."""
    return lambda samples, series_order: [(label, series_order)]


def _R(q, ctx: PrecisionContext):
    return _qs.R_product(q, ctx)


def _R_cf(q, ctx: PrecisionContext):
    return _cf.rr_cf(q, ctx).require("R continued fraction")


def _euler_prod(q, ctx):
    return _qs._theta_quotient(q, ctx, "E").mid


# -- numeric sides ----------------------------------------------------------------


def _entry15a_series_quotient(a, b, q, ctx: PrecisionContext):
    """Quotient of the two double series sum b^n q^(n^2 [+n]) / ((aq;q)_n (q;q)_n).

    Runs on q, a and b read at scale 2^W (``numerics._fixed``): the n-th terms
    are the (n-1)-th times b q^(2n-1) resp. b q^(2n), over (1 - a q^n)(1 - q^n).
    Stops once both terms are below ctx.stop_tol, after at least three; one division.
    """
    route = "entry15a double series"
    w, (x, av, bv) = _fixed(ctx, route, q, a, b)
    one = 1 << w
    limit = 1 << (w - ctx.stop_bits)
    num = den = tn = td = qn = one  # qn: q^(n-1), then q^n
    for n in _cf.bounded(route, ctx):
        lead = bv * qn >> w
        qn = qn * x >> w
        lead = lead * qn >> w  # b q^(2n-1)
        pair = (one - (av * qn >> w)) * (one - qn) >> w
        tn = tn * lead // pair
        td = td * (lead * x >> w) // pair
        num += tn
        den += td
        if abs(tn) < limit and abs(td) < limit and n >= 3:
            break
    return ctx.mp.mpf(((num << w) // den, -w))


_ENTRY15A_VALUES = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1))
_ENTRY15A_Q = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))


def _entry15a_grid(a_values):
    return lambda samples, series_order: [
        (f"a={a}, b={b}, q={qf}", (a, b, Nome.rational(qf)))
        for a in a_values
        for b in _ENTRY15A_VALUES
        for qf in _ENTRY15A_Q
    ]


def _entry15a(point, ctx: PrecisionContext):
    """The double series' quotient against 1 + b q/(1 - a q + b q^2/(1 - a q^2 + ...)),
    whose terms enter the loop as exact pairs at the width W of ``_fixed``."""
    a, b, nome = point
    lhs = _entry15a_series_quotient(a, b, nome, ctx)
    w, (x, av, bv) = _fixed(ctx, "entry15a fraction", nome, a, b)
    powers = [1 << w]

    def terms(k):
        while len(powers) <= k:
            powers.append(powers[-1] * x >> w)
        return (bv * powers[k] >> w, w), ((1 << w) - (av * powers[k] >> w), w)

    res = _cf.eval_infinite(_cf.CFSpec(b0=1, terms=terms), ctx)
    yield "", lhs, res.require(f"entry15a fraction at a={a}, b={b}, q={nome.arg}")


def _cf_vs_product(nome, ctx: PrecisionContext):
    q = ctx.number(nome)
    yield "", _R_cf(q, ctx), _R(q, ctx)


def _modular_grid(samples, series_order):
    return [(f"alpha={j}*pi/2", j) for j in range(1, samples + 1)]


def _modular_relation(j, ctx: PrecisionContext):
    """R at e^(-2 alpha) = Nome.exp(j), alpha = j pi/2, and at e^(-2 pi^2/alpha), by the
    direct theta sums: their transformation is the relation's other side."""
    phi = golden_phi(ctx)
    r1, r2 = (root(ctx.number(q), 5, RootMode.PRINCIPAL, ctx) * _qs._direct_quotient(q, ctx, "R").mid
              for q in (Nome.exp(j), Nome.exp(Fraction(4, j))))
    yield "", (phi + r1) * (phi + r2), (5 + ctx.mp.sqrt(5)) / 2


def _r_cancelling(q, ctx: PrecisionContext):
    """1/R - 1 - R at q, a ``_real_sum``."""

    def terms(c):
        r = _R(q, c)
        return 1 / r, -1, -r

    return _real_sum(terms, ctx)


def _r_identity_1(nome, ctx: PrecisionContext):
    q = ctx.number(nome)
    t = root(q, 5, RootMode.PRINCIPAL, ctx)
    yield "", _r_cancelling(q, ctx), _euler_prod(t, ctx) / (t * _euler_prod(q**5, ctx))


def _r_identity_2(nome, ctx: PrecisionContext):
    q = ctx.number(nome)

    def terms(c):
        r5 = _R(q, c) ** 5
        return 1 / r5, -11, -r5

    yield "", _real_sum(terms, ctx), _euler_prod(q, ctx) ** 6 / (q * _euler_prod(q**5, ctx) ** 6)


def _real_sum(terms, ctx: PrecisionContext):
    """The sum of the real terms(ctx), in order.  When its largest term is 2^k
    times larger than it, k > 0, the terms are formed and summed again on
    ctx.widened(ceil(k)), and rounded back to the context."""
    mp = ctx.mp
    parts = terms(ctx)
    total = sum(parts[1:], parts[0])
    extra = math.ceil(max(_log2(mp.mpf(p)) for p in parts) - _log2(total))
    if extra > 0:
        parts = terms(ctx.widened(extra))
        total = mp.mpf(sum(parts[1:], parts[0]))
    return total


def _gamma(sign: int, ctx: PrecisionContext):  # the factorization's root constant
    return (1 + sign * ctx.mp.sqrt(5)) / 2


def factorization_sides(sign: int, q, ctx: PrecisionContext):
    """Sides of the factorization with root constant gamma = (1 + sign*sqrt5)/2.

    Left: 1/sqrt(t) - gamma*sqrt(t) with t = R(q).  Right: q^(-1/10) *
    sqrt((q;q)_inf / (q^5;q^5)_inf) * prod_{n>=1} 1/(1 + gamma*x^n + x^(2n))
    with x = q^(1/5).  For sign 1 the left side cancels, so it is a
    ``_real_sum``: R and gamma are formed again on the context widened by the
    bits it measures.
    """
    mp = ctx.mp

    def terms(c):
        st = c.mp.sqrt(_R(q, c))
        return 1 / st, -_gamma(sign, c) * st

    lhs = _real_sum(terms, ctx)
    x = root(q, 5, RootMode.PRINCIPAL, ctx)
    rhs = q ** (-mp.mpf(1) / 10) * mp.sqrt(_euler_prod(q, ctx) / _euler_prod(q**5, ctx))
    return lhs, rhs / _factorization_denominator(sign, x, ctx)


def _factorization_denominator(sign: int, x, ctx: PrecisionContext):
    """prod_{n>=1} (1 + gamma*x^n + x^(2n)) for real |x| < 1 and gamma = (1 + sign*sqrt5)/2.

    The Jacobi triple product at z = e^(i theta), 2 cos(theta) = -gamma, makes
    it F/(x;x)_inf with F = sum_{n>=1} (-1)^(n+1) c_n x^(n(n-1)/2), where
    c_n = sin((2n-1) theta/2)/sin(theta/2) has period 5: 1, 1 - gamma, 0,
    gamma - 1, -1 for n = 1, ..., 5 (mod 5).  Grouped by n mod 5, F is
    S_(25,5)(x) + (gamma - 1) x S_(25,15)(x), two parts of one
    ``qseries._jacobi_sum``, which forms gamma - 1 = (-1 + sign*sqrt5)/2 at its
    own width.  With 2 cos(a) = gamma, 2 cos(b) = -gamma and h = -ln|x|, F cancels
    to about exp(-a^2/(2h)) for x > 0, and for x < 0, where the odd factors
    take -gamma, to about exp(-((a^2 + b^2)/4 - pi^2/8)/h).
    """
    def weight(w, xw):  # (gamma - 1) x at scale 2^w
        return ((sign * math.isqrt(5 << 2 * w) - (1 << w)) >> 1) * xw >> w

    gamma = float(_gamma(sign, ctx))
    a, b = math.acos(gamma / 2), math.acos(-gamma / 2)
    loss = a * a / 2 if x.real >= 0 else (a * a + b * b) / 4 - math.pi**2 / 8
    f = _qs._jacobi_sum(x, ctx, "factorization sum", ((25, 5, None), (25, 15, weight)), loss)
    return f / _euler_prod(x, ctx)


def _factorization(sign: int):
    """Sides of the factorization with root constant (1 + sign*sqrt5)/2."""
    return lambda nome, ctx: [("", *factorization_sides(sign, ctx.number(nome), ctx))]


def _factorization_product(nome, ctx: PrecisionContext):
    q = ctx.number(nome)
    (l1, r1), (l2, r2) = (factorization_sides(s, q, ctx) for s in (-1, 1))
    cancelling = _r_cancelling(q, ctx)
    yield " (recovers 1/R-1-R)", l1 * l2, cancelling
    yield " (rhs product)", r1 * r2, cancelling


def _cubic(nome, ctx: PrecisionContext):
    q = ctx.number(nome)
    u, v = _R(q, ctx), _R(q**3, ctx)
    cancelling = _real_sum(lambda c: (_R(c.number(q) ** 3, c), -_R(q, c) ** 3), ctx)
    yield "", cancelling * (1 + u * v**3), 3 * u**2 * v**2


def _k_param(nome, ctx: PrecisionContext):
    # R(q^(1/2)) in k needs k <= sqrt(5) - 2 = R(1)^3, which k nears only as q -> 1
    mp = ctx.mp
    q = ctx.number(nome)
    rq = _R(q, ctx)
    rq2 = _R(q**2, ctx)
    k = rq * rq2**2
    yield ": R^5(q)", rq**5, k * ((1 - k) / (1 + k)) ** 2
    yield ": R^5(q^2)", rq2**5, k**2 * (1 + k) / (1 - k)
    display = (
        k ** (mp.mpf(1) / 10)
        * (1 + k) ** (mp.mpf(4) / 5)
        * (1 - k) ** (mp.mpf(1) / 5)
        / (mp.sqrt(k) + mp.sqrt(1 + k - k * k))
    )
    yield ": R(q^(1/2))", _R(mp.sqrt(q), ctx), display


def _quintic_grid(samples, series_order):
    return [("q=exp(-pi)", Nome.exp(1)), ("q=1/5", Nome.rational(Fraction(1, 5)))]


def _quintic_corollary(nome, ctx: PrecisionContext):
    q = ctx.number(nome)
    p = _sv.p_value(q, ctx)
    u, v = _sv.quintic_uv(p, ctx)
    rq = _R_cf(q, ctx)
    rq4 = _R_cf(q**4, ctx)
    yield ": 1/R(q) - R(q^4)", 1 / rq - rq4, 2 / u
    yield ": 1/R(q^4) - R(q)", 1 / rq4 - rq, 2 / v
    yield ": u*v", u * v, p


_FINITE_A = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2))
_FINITE_Q = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


def _finite_grid(samples, series_order):
    points = [(n, a, q) for n in range(13) for a in _FINITE_A for q in _FINITE_Q]
    return [(f"n={n}, a={a}, q={q}", (n, a, q)) for n, a, q in points]


def _finite_form(point, ctx: PrecisionContext):
    n, a, q = point
    spec = _cf.CFSpec(b0=Fraction(1), terms=lambda k: (a * q**k, Fraction(1)))
    yield "", _qs.finite_mu(n, a, q) / _qs.finite_nu(n, a, q), _cf.eval_finite(spec, n)


def _schur_witness(point, ctx: PrecisionContext):
    """Integrality witness, exact: the n <= 10^4 prime to 5 with lam*rho*n != 1 (mod 5)."""
    bad = sum(1 for n in range(1, 10_001) if n % 5 != 0 and _cf.legendre5(n) * (n % 5) * n % 5 != 1)
    yield "", bad, 0


def _schur_grid(samples, series_order):
    return [(f"n={n}: ", n) for n in (2, 3, 4, 6, 7, 8, 9, 11, 5, 10)]  # convergent, then divergent


def _schur(n, ctx: PrecisionContext):
    """Schur's classification of R at exp(2 pi i/n) against the fraction evaluated directly."""
    direct = _cf.rr_root_of_unity_direct(n, 1, ctx)
    status = direct.status.value
    if _cf.schur_classify(n).diverges:
        label = f"direct evaluation {status}, period {direct.iterations}"
        yield label, status, _cf.CFStatus.DIVERGES.value
    elif direct.converged:
        yield "direct vs formula", direct.value, _cf.rr_at_root_of_unity(n, 1, ctx)
    else:
        yield "direct evaluation converged", status, _cf.CFStatus.CONVERGED.value


def cf2_spec() -> _cf.CFSpec:
    """The fraction 1/1+ 1/1+ 2/1+ 3/1+ ...: a_1 = 1, a_k = k-1 for k >= 2.

    Its terms are positive ints, so eval_infinite runs it in blocks.
    """

    def terms(k: int):
        return (1 if k == 1 else k - 1, 1)

    return _cf.CFSpec(b0=0, terms=terms, positive_ints=True)


def cf2_value(ctx: PrecisionContext) -> tuple:
    """(value, iterations) of the cf2 fraction; raises ConvergenceError if it stops short."""
    res = _cf.eval_infinite(cf2_spec(), ctx)
    return res.require("cf2 continued fraction"), res.iterations


def jims_identity(ctx: PrecisionContext) -> dict:
    """Double-factorial series plus the cf2 fraction against sqrt(pi*e/2)."""
    mp = ctx.mp
    series = mp.mpf(0)
    term = mp.mpf(1)
    for n in _cf.bounded("double-factorial series", ctx):
        series += term
        term /= 2 * n + 1
        if abs(term) < ctx.stop_tol:
            break
    cf, iterations = cf2_value(ctx)
    target = mp.sqrt(mp.pi * mp.e / 2)
    return {
        "series": series,
        "cf": cf,
        "sum": series + cf,
        "target": target,
        "iterations": iterations,
    }


def _jims(point, ctx: PrecisionContext):
    data = jims_identity(ctx)
    yield "", data["sum"], data["target"]


_POLY_DENOMS = (12, 360, 5040, 60480, 1710720)


def asymptotic_check(x, ctx: PrecisionContext, reference=None) -> dict:
    """Small-x approximation of the cf2 fraction.

    approx = x*sqrt(e) * sum_{n>=1} exp(-(1+n*x)^2/2) + x/2 - x^2/12 - x^4/360
    - x^6/5040 - x^8/60480 - x^10/1710720; reference is the fraction itself.
    The claim is empirical ("nearly"): callers assert error decay, never equality.
    """
    mp = ctx.mp
    x = ctx.real(x)
    if not (0 < x <= ctx.real(Fraction(1, 2))):
        raise ValueError("asymptotic_check requires 0 < x <= 1/2")
    route = "Gaussian tail sum"
    w, (xf,) = _fixed(ctx, route, x)
    # term t_n = e^(-(1+nx)^2/2) and ratio r_n = t_(n+1)/t_n = e^(-x - x^2/2 - nx^2)
    wmp = ctx.widened(w - ctx.bits).mp
    xw = wmp.mpf(x)  # so that the arithmetic on it rounds at the wider precision
    x2 = xw * xw
    _, (step, r, t) = _fixed(
        ctx, route, wmp.exp(-x2), wmp.exp(-xw - 3 * x2 / 2), wmp.exp(-((1 + xw) ** 2) / 2)
    )
    limit = xf >> (ctx.bits - ctx.guard_bits)  # ctx.tol * x at scale 2^W
    total = 0
    for _ in _cf.bounded(route, ctx):
        total += t
        if t < limit:
            break
        t = t * r >> w
        r = r * step >> w
    approx = x * mp.sqrt(mp.e) * mp.mpf((total, -w)) + x / 2
    for i, d in enumerate(_POLY_DENOMS):
        approx -= x ** (2 * i + 2) / d
    if reference is None:
        reference = cf2_value(ctx)[0]
    return {"approx": approx, "reference": reference, "error": abs(approx - reference)}


# -- exact series sides: the point is the series order -----------------------------
#
# Each twin compares integer series with their denominators cleared: both
# sides are the identity's two sides times one series with constant term 1.
# Such a unit multiplier keeps a pass exact through the same order, and it
# keeps a mismatch in the identity at the same lowest exponent with the same
# coefficient difference.  No twin forms a reciprocal.


def _formal_cf_vs_product(order: int, ctx: PrecisionContext):
    """The fraction's truncation A_n/B_n at q = t^5, cleared: t A_n(t^5) against
    B_n(t^5) R, with R from ``series_R``.

    R = t/(1 + t^5/(1 + t^10/(1 + ...))), so A_k = A_(k-1) + q^(k-1) A_(k-2) from
    A_0 = 0, A_1 = 1, and B_k likewise from B_0 = B_1 = 1, kept through
    q^(order/5 + 1).  A_n/B_n - A_(n-1)/B_(n-1) = +-q^(n(n-1)/2), so the depth
    makes the truncation exact through that order; B_n has constant term 1.
    """
    q_order = order // 5 + 1
    depth = 2
    while depth * (depth - 1) // 2 <= q_order:
        depth += 1
    depth += 2
    one = [1] + [0] * q_order
    a_prev, a = [0] * (q_order + 1), one  # A_0, A_1
    b_prev, b = one, one  # B_0, B_1
    for s in range(1, depth):  # A_(s+1) = A_s + q^s A_(s-1), and B likewise
        a_prev, a = a, a[:s] + list(map(add, a[s:], a_prev))
        b_prev, b = b, b[:s] + list(map(add, b[s:], b_prev))
    lhs = FormalSeries(a, 0, q_order).stretch(5).shift(1).truncate(order)
    yield "", lhs, stretched_product(FormalSeries(b, 0, q_order), 5, _qs.series_R(order))


def _formal_r_identity_1(order: int, ctx: PrecisionContext):
    """(G^2 - t G H - t^2 H^2)(t^5) (t^5; t^5) against (t; t).

    With R = t (H/G)(t^5), t(1/R - 1 - R) = (G^2 - t G H - t^2 H^2)/(G H) at t^5,
    and G H = (q^5; q^5)/(q; q): both sides of t(1/R - 1 - R) = (t;t)/(t^25;t^25)
    times (t^25; t^25).  G and H are the sums at order/5 + 1.
    """
    m = order // 5 + 1
    g, h = _qs.series_G(m), _qs.series_H(m)
    euler = theta_series(3, 1, m)
    ge, he = g * euler, h * euler
    lhs = (g * ge).stretch(5) - (h * ge).stretch(5).shift(1) - (h * he).stretch(5).shift(2)
    yield "", lhs.truncate(order), theta_series(3, 1, order)


def _formal_r_identity_2(order: int, ctx: PrecisionContext):
    """(S1^10 - 11 q S1^5 S3^5 - q^2 S3^10) (q^5; q^5) against (q; q)^11, with
    S1 = S_(5,1) and S3 = S_(5,3).

    H/G = S3/S1 and S1 S3 = (q; q)(q^5; q^5), so both sides of
    q(1/R^5 - 11 - R^5) = (q;q)^6/(q^5;q^5)^6 times S1^5 S3^5 (q^5; q^5).
    """
    x = theta_series(5, 1, order) ** 5
    y = theta_series(5, 3, order) ** 5
    quadratic = x * x - 11 * (x * y).shift(1) - (y * y).shift(2)
    lhs = stretched_product(theta_series(3, 1, order // 5), 5, quadratic)  # times (q^5; q^5)
    yield "", lhs.truncate(order), theta_series(3, 1, order) ** 11


# -- registry and driver -------------------------------------------------------------


# Each id maps to its (grid, sides) tables.  grid(samples, series_order) lists
# (label, point) pairs and sides(point, ctx) yields (suffix, lhs, rhs) triples
# only; ``verify`` runs them on the one check driver, ``numerics.check_tables``.
_CASES = {
    "entry15a": ((_entry15a_grid(_ENTRY15A_VALUES), _entry15a),),
    "entry15a-corollary": ((_entry15a_grid((Fraction(0),)), _entry15a),),
    "cf-vs-product": (
        (_q_grid, _cf_vs_product),
        (_point("fraction truncations vs t*H/G in t"), _formal_cf_vs_product),
    ),
    "modular-relation": ((_modular_grid, _modular_relation),),
    "R-identity-1": (
        (_q_grid, _r_identity_1),
        (_point("t*(1/R - 1 - R) vs (t;t)/(t^25;t^25) in t"), _formal_r_identity_1),
    ),
    "R-identity-2": (
        (_q_grid, _r_identity_2),
        (_point("q*(1/R^5 - 11 - R^5) vs (q;q)^6/(q^5;q^5)^6 in q"), _formal_r_identity_2),
    ),
    "factorization-1": ((_q_grid, _factorization(-1)),),
    "factorization-2": ((_q_grid, _factorization(1)),),
    "factorization-product": ((_q_grid, _factorization_product),),
    "cubic": ((_q_grid, _cubic),),
    "k-param": ((_q_grid, _k_param),),
    "quintic-corollary": ((_quintic_grid, _quintic_corollary),),
    "finite-form": ((_finite_grid, _finite_form),),
    "schur-consistency": (
        (_point("lam*rho*n = 1 (mod 5) for n <= 10^4"), _schur_witness),
        (_schur_grid, _schur),
    ),
    "jims": ((_point("series + cf2 vs sqrt(pi*e/2)"), _jims),),
}


def identity_ids() -> list:
    return sorted(_CASES)


def verify(
    id: str,
    ctx: PrecisionContext,
    samples: int = 10,
    series_order: int = 150,
) -> VerificationReport:
    """Run every table of one identity; the report passes when every record does."""
    if samples < 1:
        raise ValueError("samples must be >= 1")
    try:
        tables = _CASES[id]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown identity {id!r}; known: {', '.join(identity_ids())}"
        ) from None
    records = check_tables(ctx, [(grid(samples, series_order), sides) for grid, sides in tables])
    deviation = max((ctx.real(r["abs_dev"]) for r in records), default=ctx.real(0))
    status = "pass" if all(r["passed"] for r in records) else "fail"
    return VerificationReport(id, records, deviation, status)
