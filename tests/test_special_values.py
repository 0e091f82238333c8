from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab import special_values
from rrlab.cf import rr_cf
from rrlab.cli import main
from rrlab.numerics import Nome, PrecisionContext, agree_bits, certify, golden_phi, record
from rrlab.special_values import (
    SpecialValueEntry,
    _c_expr,
    _value_from_c_expr,
    class_invariant,
    evaluate,
    expr_str,
    p_value,
    quintic_alpha_beta,
    quintic_uv,
    registry,
    theta_quotient,
    theta_quotient_direct,
    verify_entry,
    verify_registry,
)

# c for a = 5^(1/4), b = 1, computed independently at 320 bits
C_EQ7_70 = "6.132162340871895479700795335797908841269832456292624181061394125553754182"


def test_expr_evaluation_and_equality(ctx):
    e1 = ("/", ("+", ("root", 2, 5), 1), 2)
    e2 = ("/", ("+", ("root", 2, 5), 1), 2)
    assert e1 == e2  # structural equality
    assert evaluate(e1, ctx) == evaluate(e2, ctx)  # implies numeric equality
    assert abs(evaluate(e1, ctx) - golden_phi(ctx)) < ctx.tol
    assert evaluate("phi", ctx) == golden_phi(ctx)
    assert abs(evaluate(("*", "pi", "e"), ctx) - ctx.mp.pi * ctx.mp.e) < ctx.tol
    assert abs(evaluate(("-", 3), ctx) + 3) < ctx.tol
    assert evaluate(("^", 8, Fraction(2, 3)), ctx) == 4
    for bad in ("tau", ("%", 1, 2), (), [1], 1.5):
        with pytest.raises(TypeError):
            evaluate(bad, ctx)
        with pytest.raises(TypeError):
            expr_str(bad)


@pytest.mark.parametrize("guard", [1, 2, 4, 8, 12, 16, 20, 24, 32])
def test_closed_forms_earn_bits_minus_guard_bits(guard):
    # eq8's sums lose about 20 bits, eq5's 14: a closed form whose sums lose
    # more than the guard is evaluated again wider, so each earns its
    # bits - guard_bits against a 1024-bit evaluation
    ctx, big = PrecisionContext(256, guard), PrecisionContext(1024, 32)
    for e in registry():
        assert agree_bits(evaluate(e.closed_form, ctx), evaluate(e.closed_form, big), ctx) >= 256 - guard, e.name


def test_closed_forms_widen_only_past_the_guard(ctx):
    # at the default 32 guard bits no closed form loses enough to be redone;
    # at 8, eq5, eq7, eq7-explicit and eq8 are
    losses = {e.name: [] for e in registry()}
    for e in registry():
        special_values._evaluate(e.closed_form, ctx, losses[e.name])
    assert max(sum(v) for v in losses.values()) < ctx.guard_bits
    assert {n for n, v in losses.items() if sum(v) > 8} == {"eq5", "eq7", "eq7-explicit", "eq8"}
    plain = {e.name: special_values._evaluate(e.closed_form, ctx, []) for e in registry()}
    assert all(evaluate(e.closed_form, ctx) == plain[e.name] for e in registry())


def test_expr_str_is_readable():
    assert expr_str(("/", ("+", 1, ("root", 2, 5)), 2)) == "((1 + sqrt(5))/2)"
    assert expr_str(("*", ("root", 3, "phi"), ("^", 5, Fraction(1, 4)))) == "root(3, phi)*5^(1/4)"
    assert expr_str(("+", 4, ("-", "pi"))) == "(4 + -pi)"


def test_c_param_examples(ctx):
    assert abs(evaluate(_c_expr(1, -1), ctx) - Fraction(1, 2)) < ctx.tol
    c = evaluate(_c_expr(("^", 5, Fraction(1, 4)), 1), ctx)
    assert abs(c - ctx.mp.mpf(C_EQ7_70)) < ctx.mp.mpf(10) ** -65


def test_value_from_c_examples(ctx):
    assert evaluate(_value_from_c_expr(0), ctx) == 1


@given(c1=st.integers(1, 10**4), c2=st.integers(1, 10**4))
@settings(max_examples=60, deadline=None)
def test_value_from_c_decreasing_into_unit_interval(c1, c2):
    ctx = PrecisionContext(128, 32)
    lo, hi = sorted((c1, c2))
    v_lo = evaluate(_value_from_c_expr(("/", lo, 100)), ctx)
    v_hi = evaluate(_value_from_c_expr(("/", hi, 100)), ctx)
    assert 0 < v_hi <= v_lo < 1
    if lo != hi:
        assert v_hi < v_lo


def test_invariant_table_seeds(ctx):
    # the two invariants theta_quotient reads
    table = special_values._INVARIANTS
    assert set(table) == {1, 25}
    assert evaluate(table[Fraction(1)], ctx) == 1
    assert evaluate(table[Fraction(25)], ctx) == golden_phi(ctx)


def test_invariant_table_matches_direct():
    # the tabulated G_1 and G_25, and G_5 = phi^(1/4) and G_9 = ((1+sqrt3)/sqrt2)^(1/3),
    # pass the record rule against the defining product 2^(-1/4) q^(-1/24) chi(q)
    closed_forms = {
        **special_values._INVARIANTS,
        Fraction(5): ("root", 4, "phi"),
        Fraction(9): ("root", 3, ("/", ("+", 1, ("root", 2, 3)), ("root", 2, 2))),
    }
    for bits in (256, 512):
        ctx = PrecisionContext(bits, 32)
        for n, closed in closed_forms.items():
            rec = record(ctx, f"G_{n}", evaluate(closed, ctx), class_invariant(n, ctx))
            assert rec["passed"], (bits, n, rec["agree_bits"])


def test_theta_quotient_closed_forms(ctx):
    mp = ctx.mp
    tq = theta_quotient(1, ctx)
    assert abs(tq - mp.sqrt(1 + 2 * golden_phi(ctx)) / mp.sqrt(5)) < ctx.tol
    assert abs(tq - 1 / mp.sqrt(5 * mp.sqrt(5) - 10)) < ctx.tol
    direct = theta_quotient_direct(1, ctx)
    assert abs(tq - direct) < mp.mpf(10) ** -60
    with pytest.raises(KeyError):
        theta_quotient(2, ctx)


def test_p_value_at_exp_pi(ctx):
    mp = ctx.mp
    p = p_value(mp.exp(-mp.pi), ctx)
    assert abs(p - 2 / (5 * golden_phi(ctx) + 3)) < mp.mpf(10) ** -60


def test_p_value_small_q_limit(ctx):
    q = ctx.real(Fraction(1, 10**9))
    assert abs(p_value(q, ctx) / (4 * q) - 1) < ctx.mp.mpf(10) ** -8


def test_p_value_precision_doubling(ctx):
    _, bits = certify(lambda c: p_value(c.real(Fraction(1, 4)), c), ctx)
    assert bits >= ctx.bits - ctx.guard_bits


def test_quintic_uv_product_is_p(ctx):
    for p_frac in (Fraction(1, 2), Fraction(9, 50), Fraction(3, 1)):
        p = ctx.real(p_frac)
        u, v = quintic_uv(p, ctx)
        assert abs(u * v - p) < ctx.tol


def test_quintic_uv_vanish_with_p(ctx):
    u, v = quintic_uv(ctx.real(Fraction(1, 10**10)), ctx)
    assert abs(u) < 0.1 and abs(v) < 0.1


def test_quintic_uv_domain(ctx):
    with pytest.raises(ValueError):
        quintic_uv(4, ctx)
    with pytest.raises(ValueError):
        quintic_uv(0, ctx)


def test_quintic_alpha_beta_polynomial(ctx):
    p = ctx.real(Fraction(1, 3))
    alpha, beta = quintic_alpha_beta(p, ctx)
    x_coef = (p - 1) ** 2 + 7
    assert abs(alpha + beta - x_coef) < ctx.tol
    # constant term resolved to p^3; the printed p^2 variant is inconsistent
    assert abs(alpha * beta - p**3) < ctx.tol
    assert abs(alpha * beta - p**2) > 0.01
    # u = (alpha p)^(1/5), v = (beta p)^(1/5)
    u, v = quintic_uv(p, ctx)
    assert abs(u**5 - alpha * p) < ctx.tol
    assert abs(v**5 - beta * p) < ctx.tol


def test_quintic_pipeline_at_exp_pi(ctx):
    mp = ctx.mp
    q = mp.exp(-mp.pi)
    p = p_value(q, ctx)
    r_direct = rr_cf(q, ctx).value
    r4_direct = rr_cf(q**4, ctx).value
    tol60 = mp.mpf(10) ** -60
    # R(q) = u/(sqrt(p+1) + 1) and R(q^4) = v/(sqrt(p+1) + 1)
    u, v = quintic_uv(p, ctx)
    s = mp.sqrt(p + 1)
    assert abs(u / (s + 1) - r_direct) < tol60
    assert abs(v / (s + 1) - r4_direct) < tol60
    # both quotient forms agree
    assert abs(u / (s + 1) - (s - 1) / v) < tol60
    # corollary: 1/R(q) - R(q^4) = 2/u and 1/R(q^4) - R(q) = 2/v
    assert abs(1 / r_direct - r4_direct - 2 / u) < tol60
    assert abs(1 / r4_direct - r_direct - 2 / v) < tol60


def test_registry_names_and_provenance():
    entries = {e.name: e for e in registry()}
    for required in ("eq2", "eq3", "eq5", "eq7", "eq8"):
        assert required in entries
    assert "second letter" in entries["eq5"].provenance
    assert entries["eq2"].kind == "R-value"
    assert entries["eq3"].kind == "S-value"
    assert entries["theta-ratio-1"].kind == "theta-quotient"


def test_registry_all_entries_verify(ctx):
    records = verify_registry(ctx)
    assert len(records) == len(registry())
    threshold = ctx.mp.mpf(10) ** -60
    for r in records:
        assert r["passed"], r["name"]
        assert r["abs_dev"] < threshold, r["name"]


def test_registry_selection_and_unknown(ctx):
    records = verify_registry(ctx, ["eq2"])
    assert len(records) == 1 and records[0]["name"] == "eq2"
    with pytest.raises(KeyError):
        verify_registry(ctx, ["nope"])


def test_eq5_display_with_exponential_factor(ctx):
    # the prefactor-free fraction at q = exp(-2 pi sqrt 5) equals
    # exp(2 pi / sqrt 5) times the closed form of the R-value
    mp = ctx.mp
    entry = {e.name: e for e in registry()}["eq5"]
    q = ctx.number(entry.nome)
    fraction_value = rr_cf(q, ctx=ctx).value / ctx.mp.root(q, 5)
    display = mp.exp(2 * mp.pi / mp.sqrt(5)) * evaluate(entry.closed_form, ctx)
    assert abs(fraction_value - display) < mp.mpf(10) ** -60


def test_verify_entry_uses_both_routes(ctx):
    entry = {e.name: e for e in registry()}["eq2"]
    rec = verify_entry(entry, ctx)
    assert set(rec["routes"]) == {"cf", "product"}


# -- the record rule shared with verify ---------------------------------------------


@pytest.mark.parametrize(
    "routes, passed, worst",
    [
        # the worst route misses the closed form 1 by exactly tol: the boundary passes
        pytest.param(lambda tol: {"cf": 1 + tol / 2, "product": 1 - tol}, True, "product", id="at-tol"),
        pytest.param(
            lambda tol: {"cf": 1 + tol / 2, "product": 1 - tol * (1 + 2**-20)}, False, "product",
            id="beyond-tol",
        ),
        pytest.param(lambda tol: {"cf": 1 - tol / 2, "product": 1 + tol / 4}, True, "cf", id="below-tol"),
        # on a tie the last route is the one judged
        pytest.param(lambda tol: {"cf": 1 - tol / 2, "product": 1 + tol / 2}, True, "product", id="tie"),
    ],
)
def test_values_check_uses_the_record_rule(monkeypatch, capsys, ctx, routes, passed, worst):
    probe = SpecialValueEntry("probe", "R-value", Nome.rational(1), 1, "a probe")
    monkeypatch.setattr(special_values, "_REGISTRY", (probe,))
    monkeypatch.setattr(special_values, "_direct_values", lambda entry, c: routes(c.tol))
    (rec,) = verify_registry(ctx)
    assert rec["passed"] is passed
    assert rec["direct"] == rec["routes"][worst]
    assert rec["abs_dev"] == abs(rec["direct"] - 1)
    assert rec["agree_bits"] == agree_bits(rec["direct"], 1, ctx)
    assert main(["values", "check", "probe"]) == (0 if passed else 1)
    assert capsys.readouterr().out.startswith("[pass] probe" if passed else "[FAIL] probe")
