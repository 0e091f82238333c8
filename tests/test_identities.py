import json
from fractions import Fraction

import pytest

from rrlab.identities import (
    UnknownIdentityError,
    VerificationReport,
    asymptotic_check,
    cf2_spec,
    factorization_sides,
    identity_ids,
    jims_identity,
    k_param_bound,
    verify,
)
from rrlab.cf import ConvergenceError, eval_infinite
from rrlab.numerics import PrecisionContext, golden_phi
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
    alpha = (1 - ctx.mp.sqrt(5)) / 2
    beta = (1 + ctx.mp.sqrt(5)) / 2
    l1, r1 = factorization_sides(alpha, q, ctx)
    l2, r2 = factorization_sides(beta, q, ctx)
    rep1 = verify("factorization-1", ctx, samples=1)
    rep2 = verify("factorization-2", ctx, samples=1)
    assert rep1.records[0]["lhs"] == l1 and rep1.records[0]["rhs"] == r1
    assert rep2.records[0]["lhs"] == l2 and rep2.records[0]["rhs"] == r2
    # and the product of the factorizations recovers 1/R - 1 - R
    r = R_product(q, ctx=ctx)
    assert abs(l1 * l2 - (1 / r - 1 - r)) < ctx.mp.mpf(10) ** -60


def test_k_param_bound_and_grid(ctx):
    bound = k_param_bound(ctx)
    assert abs(bound - (ctx.mp.sqrt(5) - 2)) < ctx.tol
    rep = verify("k-param", ctx, samples=10)
    # on the sampled grid k stays below the bound, so nothing is excluded
    assert rep.excluded == []
    assert len(rep.records) == 30


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
        errs.append(asymptotic_check(x, ctx, reference=ref)["error"])
    assert errs[0] > errs[1] > errs[2] > errs[3]
    uncorrected = asymptotic_check(Fraction(1, 20), ctx, include_polynomial=False, reference=ref)
    assert errs[3] < uncorrected["error"]


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
    assert data["id"] == "cubic"
    assert set(data["context"]) == {"bits", "tol"}
    for rec in data["records"]:
        assert set(rec) == {"point", "lhs", "rhs", "abs_dev", "agree_bits"}
    assert data["status"] == "pass"


def test_schur_consistency_report(ctx):
    run_ctx = PrecisionContext(128, 32)
    rep = verify("schur-consistency", run_ctx, samples=1)
    assert rep.status == "pass"
    points = " ".join(r["point"] for r in rep.records)
    assert "n=5: direct evaluation diverges, period 5" in points
    assert "n=10: direct evaluation diverges, period 10" in points and "10^4" in points
