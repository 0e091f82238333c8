import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab import special_values
from rrlab.cf import rr_cf
from rrlab.cli import main
from rrlab.numerics import Nome, PrecisionContext, RootMode, agree_bits, certify, golden_phi
from rrlab.special_values import (
    InvariantConfigError,
    InvariantLookupError,
    InvariantTable,
    SpecialValueEntry,
    _c_expr,
    _value_from_c_expr,
    evaluate,
    expr_str,
    p_value,
    parse_prefix,
    quintic_alpha_beta,
    quintic_uv,
    registry,
    resolve_quintic_assignment,
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


def test_expr_str_is_readable():
    assert expr_str(("/", ("+", 1, ("root", 2, 5)), 2)) == "((1 + sqrt(5))/2)"
    assert expr_str(("*", ("root", 3, "phi"), ("^", 5, Fraction(1, 4)))) == "root(3, phi)*5^(1/4)"
    assert expr_str(("+", 4, ("-", "pi"))) == "(4 + -pi)"


def test_parse_prefix(ctx):
    e = parse_prefix(["/", ["+", 1, ["root", 2, 5]], 2])
    assert e == ("/", ("+", 1, ("root", 2, 5)), 2)
    assert abs(evaluate(e, ctx) - golden_phi(ctx)) < ctx.tol
    assert parse_prefix(["-", 4, 1]) == ("+", 4, ("-", 1))
    assert evaluate(parse_prefix(["-", 4, 1]), ctx) == 3
    assert evaluate(parse_prefix(["-", 7]), ctx) == -7
    assert evaluate(parse_prefix(["*", 2, 3, 4]), ctx) == 24
    bad_inputs = ("bogus", ["^", 2, 3], ["root", "x", 2], [], ["/"], 1.5, True, ["*", True, "phi"])
    for bad in bad_inputs:
        with pytest.raises(ValueError):
            parse_prefix(bad)


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
    table = InvariantTable()
    assert evaluate(table.get(1), ctx) == 1
    assert abs(evaluate(table.get(25), ctx) - golden_phi(ctx)) < ctx.tol
    with pytest.raises(InvariantLookupError) as err:
        table.get(2)
    assert "config" in str(err.value)


def test_invariant_table_matches_direct(ctx):
    table = InvariantTable()
    for n in (1, 25):
        direct = table.direct_value(n, ctx)
        claimed = evaluate(table.get(n), ctx)
        assert abs(direct - claimed) < ctx.tol


def test_invariant_config_round_trip(tmp_path, ctx):
    # G_5 = phi^(1/4) and G_9 = ((1+sqrt3)/sqrt2)^(1/3), both verified against
    # the chi product before acceptance
    cfg = [
        {"n": "5", "closed_form": ["root", 4, "phi"]},
        {"n": "9", "closed_form": ["root", 3, ["/", ["+", 1, ["root", 2, 3]], ["root", 2, 2]]]},
    ]
    path = tmp_path / "invariants.json"
    path.write_text(json.dumps(cfg))
    table = InvariantTable()
    table.load_config(path, ctx)
    assert Fraction(5) in table.known() and Fraction(9) in table.known()


def test_invariant_config_rejects_wrong_value(tmp_path, ctx):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps([{"n": "2", "closed_form": 2}]))
    with pytest.raises(InvariantConfigError) as err:
        InvariantTable().load_config(path, ctx)
    assert "chi-product" in str(err.value)


def test_invariant_config_rejects_malformed(tmp_path, ctx):
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps([{"n": "5"}]))
    with pytest.raises(InvariantConfigError):
        InvariantTable().load_config(path, ctx)


def test_theta_quotient_closed_forms(ctx):
    mp = ctx.mp
    tq = theta_quotient(1, ctx)
    assert abs(tq - mp.sqrt(1 + 2 * golden_phi(ctx)) / mp.sqrt(5)) < ctx.tol
    assert abs(tq - 1 / mp.sqrt(5 * mp.sqrt(5) - 10)) < ctx.tol
    direct = theta_quotient_direct(1, ctx)
    assert abs(tq - direct) < mp.mpf(10) ** -60
    with pytest.raises(InvariantLookupError):
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
    r_direct = rr_cf(q, RootMode.PRINCIPAL, ctx).value
    r4_direct = rr_cf(q**4, RootMode.PRINCIPAL, ctx).value
    tol60 = mp.mpf(10) ** -60
    # R(q) = u/(sqrt(p+1) + 1) and R(q^4) = v/(sqrt(p+1) + 1)
    u, v = quintic_uv(p, ctx)
    s = mp.sqrt(p + 1)
    assert abs(u / (s + 1) - r_direct) < tol60
    assert abs(v / (s + 1) - r4_direct) < tol60
    state = resolve_quintic_assignment(q, ctx)
    assert abs(state.r_q - r_direct) < tol60
    assert abs(state.r_q4 - r4_direct) < tol60
    # both quotient forms agree
    assert abs(u / (s + 1) - (s - 1) / v) < tol60
    # corollary: 1/R(q) - R(q^4) = 2/u and 1/R(q^4) - R(q) = 2/v
    assert abs(1 / r_direct - r4_direct - 2 / u) < tol60
    assert abs(1 / r4_direct - r_direct - 2 / v) < tol60


def test_resolve_quintic_assignment(ctx):
    mp = ctx.mp
    st_ = resolve_quintic_assignment(mp.exp(-mp.pi), ctx)
    assert st_.assignment == "u->R(q), v->R(q^4)"
    assert "p^3" in st_.note
    assert abs(st_.u * st_.v - st_.p) < ctx.tol
    assert abs(st_.alpha * st_.beta - st_.p**3) < ctx.tol
    assert abs(st_.r_q - rr_cf(mp.exp(-mp.pi), ctx=ctx).value) < mp.mpf(10) ** -60


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
        # the worst route misses the closed form 1 by exactly tol
        pytest.param(lambda tol: {"cf": 1 + tol / 2, "product": 1 - tol}, False, "product", id="at-tol"),
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


@pytest.mark.parametrize("divisor, passed", [(1, False), (2, True)])
def test_invariant_validate_uses_the_record_rule(monkeypatch, tmp_path, capsys, ctx, divisor, passed):
    # a direct value that misses the claimed G_5 = phi by tol fails, by tol/2 passes
    monkeypatch.setattr(InvariantTable, "direct_value", lambda self, n, c: golden_phi(c) + c.tol / divisor)
    table = InvariantTable()
    if passed:
        table.add(5, "phi", ctx)
        assert table.get(5) == "phi"
    else:
        with pytest.raises(InvariantConfigError, match="chi-product"):
            table.add(5, "phi", ctx)
    path = tmp_path / "invariants.json"
    path.write_text(json.dumps([{"n": "5", "closed_form": "phi"}]))
    assert main(["--invariants", str(path), "values", "list"]) == (0 if passed else 2)
    capsys.readouterr()
