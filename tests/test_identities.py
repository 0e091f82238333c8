import json
from collections import Counter
from fractions import Fraction

import pytest

from rrlab import cf, identities
from rrlab.cli import main
from rrlab.formal import FormalSeries
from rrlab.identities import (
    UnknownIdentityError,
    _entry15a_series_quotient,
    asymptotic_check,
    cf2_spec,
    factorization_sides,
    identity_ids,
    jims_identity,
    verify,
)
from rrlab.cf import ConvergenceError, eval_infinite
from rrlab.numerics import Nome, PrecisionContext, agree_bits, golden_phi
from rrlab.qseries import R_product

# sqrt(pi*e/2), computed independently at 320 bits
TARGET_70 = "2.066365677061246469234695942149926324722760958495654225778325626898979"

ALL_IDS = (
    "entry15a",
    "entry15a-corollary",
    "cf-vs-product",
    "modular-relation",
    "R-identity-1",
    "R-identity-2",
    "factorization-1",
    "factorization-2",
    "factorization-product",
    "cubic",
    "k-param",
    "quintic-corollary",
    "finite-form",
    "schur-consistency",
    "jims",
)


def test_registry_lists_all_cases():
    assert set(identity_ids()) == set(ALL_IDS)


def test_unknown_identity(ctx):
    with pytest.raises(UnknownIdentityError):
        verify("nonsense", ctx)


@pytest.mark.parametrize(
    "ident",
    [i for i in ALL_IDS if i != "schur-consistency"],
)
def test_each_identity_passes_smoke(ctx, ident):
    samples = 4 if ident == "modular-relation" else 3
    rep = verify(ident, ctx, samples=samples, series_order=40)
    assert rep.status == "pass", rep.to_json(ctx)
    assert rep.records


def test_formal_modes_exact_small_order(ctx):
    for ident in ("cf-vs-product", "R-identity-1", "R-identity-2"):
        rep = verify(ident, ctx, samples=1, series_order=60)
        formal = [r for r in rep.records if "order" in r["point"] or "mismatch" in r["point"]]
        assert formal and all(r["abs_dev"] == 0 for r in formal)


def test_cf_vs_product_agreement_bits(ctx):
    # the fraction and the product representation agree to at least
    # bits - guard_bits on the whole sampled grid
    rep = verify("cf-vs-product", ctx, samples=10, series_order=20)
    numeric = [r for r in rep.records if r["agree_bits"] is not None]
    assert len(numeric) == 10
    assert all(r["agree_bits"] >= ctx.bits - ctx.guard_bits for r in numeric)


def test_finite_form_is_exact(ctx):
    rep = verify("finite-form", ctx, samples=1)
    assert rep.status == "pass"
    assert len(rep.records) == 13 * 5 * 3
    assert all(r["abs_dev"] == 0 for r in rep.records)


def test_modular_relation_alpha_pi_reproduces_eq2(ctx):
    mp = ctx.mp
    phi = golden_phi(ctx)
    r = R_product(mp.exp(-2 * mp.pi), ctx=ctx)
    assert abs((phi + r) ** 2 - (5 + mp.sqrt(5)) / 2) < mp.mpf(10) ** -60
    # solving the alpha = pi case for R(e^(-2pi)) gives the closed form
    assert abs(r - (mp.sqrt((5 + mp.sqrt(5)) / 2) - phi)) < mp.mpf(10) ** -60


def test_factorization_swap_symmetry(ctx):
    # swapping the two root constants exchanges the factorization sides;
    # q = 1/20 is the single-sample grid point used by verify below
    q = ctx.real(Fraction(1, 20))
    l1, r1 = factorization_sides(-1, q, ctx)
    l2, r2 = factorization_sides(1, q, ctx)
    rep1 = verify("factorization-1", ctx, samples=1)
    rep2 = verify("factorization-2", ctx, samples=1)
    assert rep1.records[0]["lhs"] == l1 and rep1.records[0]["rhs"] == r1
    assert rep2.records[0]["lhs"] == l2 and rep2.records[0]["rhs"] == r2
    # and the product of the factorizations recovers 1/R - 1 - R
    r = R_product(q, ctx=ctx)
    assert abs(l1 * l2 - (1 / r - 1 - r)) < ctx.mp.mpf(10) ** -60


def test_factorization_2_left_side_earns_its_bits_relative():
    # 1/sqrt(t) - phi sqrt(t) cancels at q = 1/2; evaluated at the raised width it
    # measures, it agrees with its 512-bit recomputation in relative terms
    ctx = PrecisionContext(256, 32)
    doubled = ctx.widened(ctx.bits)
    lhs, _ = factorization_sides(1, ctx.real(Fraction(1, 2)), ctx)
    ref, _ = factorization_sides(1, doubled.real(Fraction(1, 2)), doubled)
    assert agree_bits(lhs / ref, 1, ctx) >= ctx.bits - ctx.guard_bits


@pytest.mark.parametrize("qf", ["1/20", "1/5", "7/20", "1/2"])
def test_r_identity_2_left_side_is_widened_by_its_cancellation(qf):
    # 1/R^5 - 11 - R^5 cancels 4, 8 and 13 bits at q = 1/5, 7/20 and 1/2 (1 at
    # 1/20); formed again on the widened context it agrees with a 1024-bit
    # evaluation at the same q to at least 256 bits (249 to 253 unwidened)
    ctx, big = PrecisionContext(256, 32), PrecisionContext(1024, 32)
    q = ctx.real(Fraction(qf))
    (_, lhs, _), = identities._r_identity_2(Nome.rational(Fraction(qf)), ctx)
    r5 = R_product(q, ctx=big) ** 5
    assert agree_bits(lhs, 1 / r5 - 11 - r5, big) >= 256


def test_k_param_k_stays_below_its_limit():
    # k = R(q) R(q^2)^2 rises towards R(1)^3 = sqrt(5) - 2 only as q -> 1, so the
    # radical for R(q^(1/2)), stated for k <= sqrt(5) - 2, holds at every nome
    # in (0, 1); at q = 9/10 the gap is already below 2^-50
    ctx = PrecisionContext(256, 32)
    limit = ctx.mp.sqrt(5) - 2
    gaps = []
    for n in range(1, 91):
        q = Fraction(n, 100)
        k = R_product(Nome.rational(q), ctx) * R_product(Nome.rational(q * q), ctx) ** 2
        gaps.append(limit - k)
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < ctx.mp.ldexp(1, -50)


@pytest.mark.parametrize("samples", [1, 10, 25])
def test_k_param_yields_three_records_per_point(ctx, samples):
    rep = verify("k-param", ctx, samples=samples)
    suffixes = (": R^5(q)", ": R^5(q^2)", ": R(q^(1/2))")
    labels = [label for label, _ in identities._q_grid(samples, 0)]
    assert [r["point"] for r in rep.records] == [label + s for label in labels for s in suffixes]
    assert rep.status == "pass"


def test_jims_identity_values(ctx):
    data = jims_identity(ctx)
    mp = ctx.mp
    assert abs(data["target"] - mp.mpf(TARGET_70)) < mp.mpf(10) ** -65
    assert abs(data["sum"] - data["target"]) < mp.mpf(10) ** -60
    # the fraction contributes a strictly positive amount
    assert data["cf"] > 0.5
    assert abs(data["series"] - data["target"]) > 0.5


def test_jims_series_is_bounded_by_max_iter():
    # the double-factorial series needs about 46 terms at 256 bits
    with pytest.raises(ConvergenceError, match="^double-factorial series did not converge: "
                       "max-iterations after 20 iterations$"):
        jims_identity(PrecisionContext(256, 32, max_iter=20))


def test_cf2_spec_terms():
    spec = cf2_spec()
    assert spec.terms(1) == (1, 1)
    assert spec.terms(2) == (1, 1)
    assert spec.terms(5) == (4, 1)


def test_asymptotic_error_decays(ctx):
    ref = eval_infinite(cf2_spec(), ctx).value
    errs = []
    for x in (Fraction(2, 5), Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)):
        check = asymptotic_check(x, ctx, reference=ref)
        errs.append(check["error"])
    assert errs[0] > errs[1] > errs[2] > errs[3]
    # the approximation at x = 1/20 without its polynomial correction x/2 - sum x^(2i+2)/d_i
    x = ctx.real(Fraction(1, 20))
    polynomial = x / 2 - sum(x ** (2 * i + 2) / d for i, d in enumerate(identities._POLY_DENOMS))
    assert errs[3] < abs(check["approx"] - polynomial - ref)


def test_asymptotic_domain(ctx):
    with pytest.raises(ValueError):
        asymptotic_check(Fraction(3, 4), ctx)
    with pytest.raises(ValueError):
        asymptotic_check(0, ctx)


def test_report_json_schema_and_determinism(ctx):
    rep1 = verify("cubic", ctx, samples=2)
    rep2 = verify("cubic", ctx, samples=2)
    j1 = json.dumps(rep1.to_json(ctx), sort_keys=True)
    j2 = json.dumps(rep2.to_json(ctx), sort_keys=True)
    assert j1 == j2
    data = rep1.to_json(ctx)
    assert set(data) == {"id", "context", "records", "max_deviation", "status"}
    assert data["id"] == "cubic"
    assert set(data["context"]) == {"bits", "tol"}
    for rec in data["records"]:
        assert set(rec) == {"point", "lhs", "rhs", "abs_dev", "agree_bits"}
    assert data["status"] == "pass"


@pytest.mark.parametrize(
    "sides, status, expected",
    [
        pytest.param(
            lambda ctx: (FormalSeries([1, 2, 3, 4]), FormalSeries([1, 2, 3, 4, 9])),
            "pass",
            {"point": "p, exact through order 3", "lhs": "equal", "rhs": "equal", "abs_dev": 0},
            id="series-through-lower-order",
        ),
        pytest.param(
            lambda ctx: (FormalSeries([1, 2, 3, 4]), FormalSeries([1, 2, 5, 4, 9])),
            "fail",
            {"point": "p: first mismatch at exponent 2", "lhs": "3", "rhs": "5", "abs_dev": 2},
            id="series-mismatch",
        ),
        pytest.param(
            lambda ctx: (Fraction(1, 3), Fraction(1, 2)),
            "fail",
            {"point": "p", "lhs": Fraction(1, 3), "rhs": Fraction(1, 2), "abs_dev": 1},
            id="fraction-mismatch",
        ),
        # numbers pass at agree_bits >= 224 (256 bits, 32 guard bits): at
        # |lhs - rhs| <= tol * max(|lhs|, |rhs|, 1), the boundary included
        pytest.param(
            lambda ctx: (ctx.mp.mpf(1), 1 + ctx.tol),
            "pass",
            {"point": "p", "abs_dev": 2.0**-224, "agree_bits": 224},
            id="number-at-tol",
        ),
        pytest.param(
            lambda ctx: (ctx.mp.mpf(1), 1 + ctx.tol / 2),
            "pass",
            {"point": "p", "abs_dev": 2.0**-225, "agree_bits": 225},
            id="number-below-tol",
        ),
        *(
            pytest.param(
                lambda ctx, e=e, k=k: (
                    ctx.mp.ldexp(1, e), ctx.mp.ldexp(1, e) + k * ctx.tol * ctx.mp.ldexp(1, max(e, 0))
                ),
                status,
                {"point": "p", "abs_dev": k * 2.0 ** (max(e, 0) - 224), "agree_bits": bits},
                id=f"number-{where}-tol-at-2^{e}",
            )
            # relative above 1, absolute below: tol * 2^10 at 2^10, tol at 2^-10
            for e in (10, -10)
            for where, k, status, bits in (
                ("at", 1, "pass", 224),
                ("inside", 0.5, "pass", 225),
                ("outside", 1 + 2.0**-20, "fail", 223),
            )
        ),
    ],
)
def test_record_rule(monkeypatch, capsys, ctx, sides, status, expected):
    # one point of a registered identity: the record, the report and the exit code
    table = (identities._point("p"), lambda point, ctx: [("", *sides(ctx))])
    monkeypatch.setitem(identities._CASES, "probe", (table,))
    rep = verify("probe", ctx)
    assert rep.status == status
    (record,) = rep.records
    assert {k: record[k] for k in expected} == expected
    assert rep.max_deviation == expected["abs_dev"]
    assert main(["verify", "probe"]) == (0 if status == "pass" else 1)
    assert capsys.readouterr().out.startswith("[pass]" if status == "pass" else "[FAIL]")


def test_schur_consistency_report(ctx):
    run_ctx = PrecisionContext(128, 32)
    rep = verify("schur-consistency", run_ctx, samples=1)
    assert rep.status == "pass"
    points = " ".join(r["point"] for r in rep.records)
    assert "n=5: direct evaluation diverges, period 5" in points
    assert "n=10: direct evaluation diverges, period 10" in points and "10^4" in points


@pytest.mark.parametrize(
    "route, call, terms",
    [
        (
            "factorization sum",
            lambda c: factorization_sides(1, c.real(Fraction(1, 2)), c),
            21,
        ),
        ("Gaussian tail sum", lambda c: asymptotic_check(Fraction(1, 20), c, reference=0), 336),
        (
            "entry15a double series",
            lambda c: _entry15a_series_quotient(
                c.real(Fraction(1, 2)), c.real(Fraction(1, 2)), c.real(Fraction(3, 10)), c
            ),
            12,
        ),
    ],
)
def test_identity_loop_term_counts(monkeypatch, ctx, route, call, terms):
    # the identity loops' stop rules, pinned like the q-series kernels' in test_qseries
    counted = Counter()
    bounded = cf.bounded

    def counting(name, ctx):
        for k in bounded(name, ctx):
            counted[name] += 1
            yield k

    monkeypatch.setattr(cf, "bounded", counting)
    call(ctx)
    assert counted[route] == terms
