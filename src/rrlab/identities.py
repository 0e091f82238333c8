"""Identity verification registry: numeric sweeps and exact series checks.

Each registered identity pairs left/right evaluators over a sample domain.
Numeric verification records per-sample deviations and passes each one below
the context tolerance tol = 2^-(bits - guard_bits).  Identities with
exact integer series on both sides are additionally checked coefficient by
coefficient, with zero tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

from . import cf as _cf
from . import qseries as _qs
from . import special_values as _sv
from .formal import FormalSeries, product_one_minus, product_one_minus_inv
from .numerics import Nome, PrecisionContext, RootMode, _fixed, agree_bits, golden_phi, root

__all__ = [
    "IdentityCase",
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


@dataclass(frozen=True)
class IdentityCase:
    id: str
    description: str
    numeric: Optional[Callable] = None  # (ctx, samples) -> (records, excluded)
    formal: Optional[Callable] = None  # order -> [(label, lhs, rhs, through)]


@dataclass
class VerificationReport:
    id: str
    bits: int
    records: list = field(default_factory=list)
    excluded: list = field(default_factory=list)
    max_deviation: object = 0
    status: str = "pass"
    notes: str = ""

    def to_json(self, ctx: PrecisionContext) -> dict:
        digits = ctx.digits

        def fmt(v):
            if v is None or isinstance(v, str):
                return v
            if isinstance(v, (int, Fraction)):
                return str(v)
            if isinstance(v, ctx.mp.mpc):
                return f"({ctx.mp.nstr(v.real, digits)}, {ctx.mp.nstr(v.imag, digits)})"
            return ctx.mp.nstr(ctx.mp.mpf(v), digits)

        return {
            "id": self.id,
            "context": {"bits": self.bits, "tol": fmt(ctx.tol)},
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
            "excluded": list(self.excluded),
            "max_deviation": fmt(self.max_deviation),
            "status": self.status,
            "notes": self.notes,
        }


# -- the identity table ------------------------------------------------------------


def _q_grid(samples: int) -> list:
    """Evenly spaced rational nomes in [1/20, 1/2]; 10 samples gives steps of 1/20."""
    if samples == 1:
        qs = [Fraction(1, 20)]
    else:
        lo, hi = Fraction(1, 20), Fraction(1, 2)
        step = (hi - lo) / (samples - 1)
        qs = [lo + i * step for i in range(samples)]
    return [(f"q={qf}", Nome.rational(qf)) for qf in qs]


def _record(ctx, point, lhs, rhs):
    dev = abs(lhs - rhs)
    return {
        "point": point,
        "lhs": lhs,
        "rhs": rhs,
        "abs_dev": dev,
        "agree_bits": agree_bits(lhs, rhs, ctx),
    }


def _exact_record(point, lhs, rhs):
    same = lhs == rhs
    return {
        "point": point,
        "lhs": lhs,
        "rhs": rhs,
        "abs_dev": 0 if same else 1,
        "agree_bits": None,
    }


def _table(grid: Callable, sides: Callable) -> Callable:
    """Numeric evaluator for one (lhs, rhs) identity over a grid of points.

    grid(samples) lists (label, point) pairs.  At each point sides(point, ctx)
    yields (suffix, lhs, rhs) triples, each becoming the record labelled
    label + suffix, or a string, which becomes the exclusion note label + string.
    """

    def run(ctx: PrecisionContext, samples: int):
        records, excluded = [], []
        for label, point in grid(samples):
            for item in sides(point, ctx):
                if isinstance(item, str):
                    excluded.append(label + item)
                else:
                    suffix, lhs, rhs = item
                    records.append(_record(ctx, label + suffix, lhs, rhs))
        return records, excluded

    return run


def _R(q, ctx: PrecisionContext):
    return _qs.R_product(q, RootMode.PRINCIPAL, ctx)


def _R_cf(q, ctx: PrecisionContext):
    return _cf.rr_cf(q, RootMode.PRINCIPAL, ctx).require("R continued fraction")


def _euler_prod(q, ctx):
    return _qs.pochhammer_inf(q, q, ctx)


# -- numeric sides ----------------------------------------------------------------


def _entry15a_series_quotient(a, b, q, ctx: PrecisionContext):
    """Quotient of the two double series sum b^n q^(n^2 [+n]) / ((aq;q)_n (q;q)_n).

    Runs on integers at scale 2^W (see ``numerics._fixed``): the n-th terms
    are the (n-1)-th times b q^(2n-1) resp. b q^(2n), over (1 - a q^n)(1 - q^n).
    Stops once both terms are below ctx.stop_tol, after at least three.
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
    return ctx.mp.mpf((num, -w)) / ctx.mp.mpf((den, -w))


_ENTRY15A_VALUES = (Fraction(0), Fraction(1, 2), Fraction(-1, 2), Fraction(1), Fraction(-1))
_ENTRY15A_Q = (Fraction(1, 10), Fraction(1, 5), Fraction(3, 10))


def _entry15a_grid(a_values):
    def grid(samples):
        return [
            (f"a={a}, b={b}, q={qf}", (a, b, qf))
            for a in a_values
            for b in _ENTRY15A_VALUES
            for qf in _ENTRY15A_Q
        ]

    return grid


def _entry15a(point, ctx: PrecisionContext):
    a, b, qf = point
    q = ctx.real(qf)
    av, bv = ctx.real(a), ctx.real(b)
    lhs = _entry15a_series_quotient(av, bv, q, ctx)
    res = _cf.eval_infinite(_cf.CFSpec(b0=1, terms=lambda k: (bv * q**k, 1 - av * q**k)), ctx)
    yield "", lhs, res.require(f"entry15a fraction at a={a}, b={b}, q={qf}")


def _cf_vs_product(nome, ctx: PrecisionContext):
    q = nome.value(ctx)
    yield "", _R_cf(q, ctx), _R(q, ctx)


def _modular_grid(samples):
    return [(f"alpha={j}*pi/2", j) for j in range(1, samples + 1)]


def _modular_relation(j, ctx: PrecisionContext):
    mp = ctx.mp
    phi = golden_phi(ctx)
    alpha = j * mp.pi / 2
    beta = mp.pi**2 / alpha
    r1 = _R(mp.exp(-2 * alpha), ctx)
    r2 = _R(mp.exp(-2 * beta), ctx)
    yield "", (phi + r1) * (phi + r2), (5 + mp.sqrt(5)) / 2


def _r_identity_1(nome, ctx: PrecisionContext):
    q = nome.value(ctx)
    r = _R(q, ctx)
    t = root(q, 5, RootMode.PRINCIPAL, ctx)
    yield "", 1 / r - 1 - r, _euler_prod(t, ctx) / (t * _euler_prod(q**5, ctx))


def _r_identity_2(nome, ctx: PrecisionContext):
    q = nome.value(ctx)
    r5 = _R(q, ctx) ** 5
    yield "", 1 / r5 - 11 - r5, _euler_prod(q, ctx) ** 6 / (q * _euler_prod(q**5, ctx) ** 6)


def factorization_sides(gamma, q, ctx: PrecisionContext):
    """Sides of the factorization with root constant gamma in {(1-sqrt5)/2, (1+sqrt5)/2}.

    Left: 1/sqrt(t) - gamma*sqrt(t) with t = R(q).  Right: q^(-1/10) *
    sqrt((q;q)_inf / (q^5;q^5)_inf) * prod_{n>=1} 1/(1 + gamma*x^n + x^(2n))
    with x = q^(1/5); each factor tends to 1 geometrically.
    """
    mp = ctx.mp
    t = _R(q, ctx)
    st = mp.sqrt(t)
    lhs = 1 / st - gamma * st
    x = root(q, 5, RootMode.PRINCIPAL, ctx)
    rhs = q ** (-mp.mpf(1) / 10) * mp.sqrt(_euler_prod(q, ctx) / _euler_prod(q**5, ctx))
    return lhs, rhs / _factorization_denominator(gamma, x, ctx)


def _factorization_denominator(gamma, x, ctx: PrecisionContext):
    """prod_{n>=1} (1 + gamma*x^n + x^(2n)) for real |x| < 1.

    Runs on integers like qseries.pochhammer_inf: x^n at scale 2^W (see
    ``numerics._fixed``) and the product as a W-bit mantissa with a binary
    exponent.  Stops once |x^n| (|gamma| + 1) / (1 - |x|), which bounds the
    log of the remaining factors, is below ctx.stop_tol.
    """
    route = "factorization product"
    w, (x, g) = _fixed(ctx, route, x, gamma)
    one = 1 << w
    scale = (abs(g) + one) << ctx.stop_bits
    limit = (one - abs(x)) << w  # |x^n| * scale < limit: the bound below stop_tol
    man, exp = one, -w
    xn = one
    for _ in _cf.bounded(route, ctx):
        xn = xn * x >> w
        man *= one + (g * xn >> w) + (xn * xn >> w)
        shift = man.bit_length() - w
        man >>= shift
        exp += shift - w
        if abs(xn) * scale < limit:
            return ctx.mp.mpf((man, exp))


def _gamma_minus(ctx):
    return (1 - ctx.mp.sqrt(5)) / 2


def _factorization_1(nome, ctx: PrecisionContext):
    yield ("", *factorization_sides(_gamma_minus(ctx), nome.value(ctx), ctx))


def _factorization_2(nome, ctx: PrecisionContext):
    yield ("", *factorization_sides(golden_phi(ctx), nome.value(ctx), ctx))


def _factorization_product(nome, ctx: PrecisionContext):
    q = nome.value(ctx)
    l1, r1 = factorization_sides(_gamma_minus(ctx), q, ctx)
    l2, r2 = factorization_sides(golden_phi(ctx), q, ctx)
    r = _R(q, ctx)
    yield " (recovers 1/R-1-R)", l1 * l2, 1 / r - 1 - r
    yield " (rhs product)", r1 * r2, 1 / r - 1 - r


def _cubic(nome, ctx: PrecisionContext):
    q = nome.value(ctx)
    u = _R(q, ctx)
    v = _R(q**3, ctx)
    yield "", (v - u**3) * (1 + u * v**3), 3 * u**2 * v**2


def k_param_bound(ctx: PrecisionContext):
    return ctx.mp.sqrt(5) - 2


def _k_param(nome, ctx: PrecisionContext):
    mp = ctx.mp
    q = nome.value(ctx)
    rq = _R(q, ctx)
    rq2 = _R(q**2, ctx)
    k = rq * rq2**2
    yield ": R^5(q)", rq**5, k * ((1 - k) / (1 + k)) ** 2
    yield ": R^5(q^2)", rq2**5, k**2 * (1 + k) / (1 - k)
    if k <= k_param_bound(ctx):
        display = (
            k ** (mp.mpf(1) / 10)
            * (1 + k) ** (mp.mpf(4) / 5)
            * (1 - k) ** (mp.mpf(1) / 5)
            / (mp.sqrt(k) + mp.sqrt(1 + k - k * k))
        )
        yield ": R(q^(1/2))", _R(mp.sqrt(q), ctx), display
    else:
        yield f": k={mp.nstr(k, 8)} > sqrt(5)-2, R(q^(1/2)) case excluded"


def _quintic_grid(samples):
    return [("q=exp(-pi)", Nome.exp(1)), ("q=1/5", Nome.rational(Fraction(1, 5)))]


def _quintic_corollary(nome, ctx: PrecisionContext):
    q = nome.value(ctx)
    p = _sv.p_value(q, ctx)
    u, v = _sv.quintic_uv(p, ctx)
    rq = _R_cf(q, ctx)
    rq4 = _R_cf(q**4, ctx)
    yield ": 1/R(q) - R(q^4)", 1 / rq - rq4, 2 / u
    yield ": 1/R(q^4) - R(q)", 1 / rq4 - rq, 2 / v
    yield ": u*v", u * v, p


_FINITE_A = (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-1, 2), Fraction(2))
_FINITE_Q = (Fraction(1, 2), Fraction(1, 3), Fraction(2, 3))


def _numeric_finite_form(ctx: PrecisionContext, samples: int):
    records = []
    for n in range(0, 13):
        for a in _FINITE_A:
            for q in _FINITE_Q:
                mu = _qs.finite_mu(n, a, q)
                nu = _qs.finite_nu(n, a, q)

                def terms(k, _a=a, _q=q):
                    return (_a * _q**k, Fraction(1))

                cf_val = _cf.eval_finite(_cf.CFSpec(b0=Fraction(1), terms=terms), n)
                records.append(_exact_record(f"n={n}, a={a}, q={q}", mu / nu, cf_val))
    return records, []


_SCHUR_CONVERGENT_N = (2, 3, 4, 6, 7, 8, 9, 11)
_SCHUR_DIVERGENT_N = (5, 10)


def _numeric_schur(ctx: PrecisionContext, samples: int):
    records = []
    # integrality witness, exact, for all n up to 10^4
    bad = sum(
        1
        for n in range(1, 10_001)
        if n % 5 != 0
        and (_cf.legendre5(n) * (n % 5) * n) % 5 != 1
    )
    records.append(_exact_record("lam*rho*n = 1 (mod 5) for n <= 10^4", bad, 0))
    for n in _SCHUR_CONVERGENT_N:
        direct = _cf.rr_root_of_unity_direct(n, 1, ctx)
        formula = _cf.rr_at_root_of_unity(n, 1, ctx)
        if not direct.converged:
            records.append(_exact_record(f"n={n}: direct evaluation converged", 0, 1))
        else:
            records.append(_record(ctx, f"n={n}: direct vs formula", direct.value, formula))
    for n in _SCHUR_DIVERGENT_N:
        res = _cf.rr_root_of_unity_direct(n, 1, ctx)
        records.append(
            _exact_record(
                f"n={n}: direct evaluation {res.status.value}, period {res.iterations}",
                res.status.value,
                _cf.CFStatus.DIVERGES.value,
            )
        )
    return records, []


def cf2_spec() -> _cf.CFSpec:
    """The fraction 1/1+ 1/1+ 2/1+ 3/1+ ...: a_1 = 1, a_k = k-1 for k >= 2."""

    def terms(k: int):
        return (1 if k == 1 else k - 1, 1)

    return _cf.CFSpec(b0=0, terms=terms)


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


def _jims_grid(samples):
    return [("series + cf2 vs sqrt(pi*e/2)", None)]


def _jims(point, ctx: PrecisionContext):
    data = jims_identity(ctx)
    yield "", data["sum"], data["target"]


_POLY_DENOMS = (12, 360, 5040, 60480, 1710720)


def asymptotic_check(x, ctx: PrecisionContext, include_polynomial: bool = True, reference=None) -> dict:
    """Small-x approximation of the cf2 fraction.

    approx = x*sqrt(e) * sum_{n>=1} exp(-(1+n*x)^2/2) + x/2 - x^2/12 - x^4/360
    - x^6/5040 - x^8/60480 - x^10/1710720; reference is the fraction itself.
    With include_polynomial=False the entire polynomial correction is omitted.
    The claim is empirical ("nearly"): callers assert error decay, never equality.
    """
    mp = ctx.mp
    x = ctx.real(x)
    if not (0 < x <= ctx.real(Fraction(1, 2))):
        raise ValueError("asymptotic_check requires 0 < x <= 1/2")
    route = "Gaussian tail sum"
    w, (xf,) = _fixed(ctx, route, x)
    with mp.workprec(w):
        # term t_n = e^(-(1+nx)^2/2) and ratio r_n = t_(n+1)/t_n = e^(-x - x^2/2 - nx^2)
        x2 = x * x
        _, (step, r, t) = _fixed(
            ctx, route, mp.exp(-x2), mp.exp(-x - 3 * x2 / 2), mp.exp(-((1 + x) ** 2) / 2)
        )
    limit = xf >> (ctx.bits - ctx.guard_bits)  # ctx.tol * x at scale 2^W
    total = 0
    for _ in _cf.bounded(route, ctx):
        total += t
        if t < limit:
            break
        t = t * r >> w
        r = r * step >> w
    approx = x * mp.sqrt(mp.e) * mp.mpf((total, -w))
    if include_polynomial:
        approx += x / 2
        for i, d in enumerate(_POLY_DENOMS):
            approx -= x ** (2 * i + 2) / d
    if reference is None:
        reference = cf2_value(ctx)[0]
    return {"approx": approx, "reference": reference, "error": abs(approx - reference)}


# -- formal (exact series) evaluators ----------------------------------------------


def _formal_cf_vs_product(order: int):
    """Finite truncations of the fraction, in series arithmetic, against t*H/G."""
    q_order = order // 5 + 1
    depth = 2
    while depth * (depth - 1) // 2 <= q_order:
        depth += 1
    depth += 2
    one = FormalSeries([1], 0, q_order)

    def terms(k: int):
        if k == 1:
            return (one, one)
        return (FormalSeries([1], k - 1, q_order), one)

    spec = _cf.CFSpec(b0=FormalSeries([0], 0, q_order), terms=terms)
    cf_series = _cf.eval_finite(spec, depth)
    lhs = cf_series.stretch(5).shift(1).truncate(order)
    rhs = _qs.series_R(order)
    return [("fraction truncations vs t*H/G in t", lhs, rhs, order)]


def _formal_r_identity_1(order: int):
    r = _qs.series_R(order + 2)
    t = FormalSeries([1], 1, order + 2)
    lhs = (t * r.reciprocal() - t - t * r).truncate(order)
    euler_t = product_one_minus(range(1, order + 1), order)
    inv_t25 = product_one_minus_inv(range(25, order + 1, 25), order)
    rhs = (euler_t * inv_t25).truncate(order)
    return [("t*(1/R - 1 - R) vs (t;t)/(t^25;t^25) in t", lhs, rhs, order)]


def _formal_r_identity_2(order: int):
    m = order + 2
    g = _qs.series_G(m)
    h = _qs.series_H(m)
    w = (h * g.reciprocal()) ** 5  # (H/G)^5, unit q-series
    q1 = FormalSeries([1], 1, m)
    lhs = (w.reciprocal() - 11 * q1 - q1 * q1 * w).truncate(order)
    euler = product_one_minus(range(1, m + 1), m)
    inv5 = product_one_minus_inv(range(5, m + 1, 5), m)
    rhs = ((euler**6) * (inv5**6)).truncate(order)
    return [("q*(1/R^5 - 11 - R^5) vs (q;q)^6/(q^5;q^5)^6 in q", lhs, rhs, order)]


# -- registry and driver -------------------------------------------------------------


_CASES = {
    c.id: c
    for c in (
        IdentityCase(
            "entry15a",
            "two-variable fraction equals the quotient of double series",
            numeric=_table(_entry15a_grid(_ENTRY15A_VALUES), _entry15a),
        ),
        IdentityCase(
            "entry15a-corollary",
            "a = 0 special case of the two-variable fraction",
            numeric=_table(_entry15a_grid((Fraction(0),)), _entry15a),
        ),
        IdentityCase(
            "cf-vs-product",
            "continued fraction equals q^(1/5) H(q)/G(q)",
            numeric=_table(_q_grid, _cf_vs_product),
            formal=_formal_cf_vs_product,
        ),
        IdentityCase(
            "modular-relation",
            "(phi + R(e^-2a))(phi + R(e^-2b)) = (5+sqrt5)/2 when ab = pi^2",
            numeric=_table(_modular_grid, _modular_relation),
        ),
        IdentityCase(
            "R-identity-1",
            "1/R - 1 - R equals the eta-type quotient",
            numeric=_table(_q_grid, _r_identity_1),
            formal=_formal_r_identity_1,
        ),
        IdentityCase(
            "R-identity-2",
            "1/R^5 - 11 - R^5 equals the sixth-power quotient",
            numeric=_table(_q_grid, _r_identity_2),
            formal=_formal_r_identity_2,
        ),
        IdentityCase(
            "factorization-1",
            "factorization with the negative root constant",
            numeric=_table(_q_grid, _factorization_1),
        ),
        IdentityCase(
            "factorization-2",
            "factorization with the positive root constant",
            numeric=_table(_q_grid, _factorization_2),
        ),
        IdentityCase(
            "factorization-product",
            "product of the two factorizations recovers 1/R - 1 - R",
            numeric=_table(_q_grid, _factorization_product),
        ),
        IdentityCase(
            "cubic",
            "(v - u^3)(1 + u v^3) = 3 u^2 v^2 with u = R(q), v = R(q^3)",
            numeric=_table(_q_grid, _cubic),
        ),
        IdentityCase(
            "k-param",
            "k = R(q) R^2(q^2) parametrizes R^5(q), R^5(q^2), and R(q^(1/2))",
            numeric=_table(_q_grid, _k_param),
        ),
        IdentityCase(
            "quintic-corollary",
            "1/R(q) - R(q^4) = 2/u and 1/R(q^4) - R(q) = 2/v",
            numeric=_table(_quintic_grid, _quintic_corollary),
        ),
        IdentityCase(
            "finite-form",
            "mu_n / nu_n equals the depth-n fraction exactly",
            numeric=_numeric_finite_form,
        ),
        IdentityCase(
            "schur-consistency",
            "root-of-unity classification against direct evaluation",
            numeric=_numeric_schur,
        ),
        IdentityCase(
            "jims",
            "double-factorial series plus cf2 equals sqrt(pi*e/2)",
            numeric=_table(_jims_grid, _jims),
        ),
    )
}


def identity_ids() -> list:
    return sorted(_CASES)


def verify(
    id: str,
    ctx: PrecisionContext,
    samples: int = 10,
    series_order: int = 150,
) -> VerificationReport:
    """Run one identity's verification; returns a per-sample report.

    A numeric record passes when its deviation is below ctx.tol.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    try:
        case = _CASES[id]
    except KeyError:
        raise UnknownIdentityError(
            f"unknown identity {id!r}; known: {', '.join(identity_ids())}"
        ) from None
    report = VerificationReport(id=id, bits=ctx.bits)
    max_dev = ctx.mp.mpf(0)
    ok = True
    if case.numeric is not None:
        records, excluded = case.numeric(ctx, samples)
        report.records.extend(records)
        report.excluded.extend(excluded)
        for r in records:
            dev = ctx.mp.mpf(r["abs_dev"])
            if dev > max_dev:
                max_dev = dev
            if not dev < ctx.tol:
                ok = False
    if case.formal is not None:
        for label, lhs, rhs, through in case.formal(series_order):
            mismatch = lhs.first_mismatch(rhs, through)
            if mismatch is None:
                report.records.append(
                    {
                        "point": f"{label}, exact through order {through}",
                        "lhs": "equal",
                        "rhs": "equal",
                        "abs_dev": 0,
                        "agree_bits": None,
                    }
                )
            else:
                ok = False
                report.records.append(
                    {
                        "point": f"{label}: first mismatch at exponent {mismatch}",
                        "lhs": str(lhs.coeff(mismatch)),
                        "rhs": str(rhs.coeff(mismatch)),
                        "abs_dev": abs(lhs.coeff(mismatch) - rhs.coeff(mismatch)),
                        "agree_bits": None,
                    }
                )
    report.max_deviation = max_dev
    report.status = "pass" if ok else "fail"
    return report
