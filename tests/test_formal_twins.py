"""The exact twins of cf-vs-product, R-identity-1 and R-identity-2, and series_R.

The twins are rows {(A, B): e} of sparse theta series S_(A,B), their
denominators cleared (the sides of ``identities._TABLE``, and for cf-vs-product the
halves of R's row ``cf.R_ROW``, formed by ``formal.eta_sum``), and series_R divides R's
row's numerator by its denominator with a short recurrence.  The oracles here
are the uncleared forms through the Newton reciprocal, which no twin uses and
which read none of R's row, and the rows' triple products through
``product_one_minus``.
"""

import math
import re

import pytest

from rrlab import cf, formal, identities, qseries
from rrlab.cli import main
from rrlab.formal import FormalSeries, eta_sum, product_one_minus, product_one_minus_inv, theta_series
from rrlab.identities import verify
from rrlab.qseries import series_G, series_H, series_R

TWINS = ("cf-vs-product", "R-identity-1", "R-identity-2")


def formal_record(ident, ctx, order):
    rep = verify(ident, ctx, samples=1, series_order=order)
    (rec,) = [r for r in rep.records if r["agree_bits"] is None]
    return rec


def mismatch(rec):
    """(exponent, abs_dev) of a failed formal record."""
    assert not rec["passed"]
    e = int(re.search(r"first mismatch at exponent (-?\d+)$", rec["point"]).group(1))
    return e, rec["abs_dev"]


def first_mismatch(lhs, rhs, order):
    e = lhs.first_mismatch(rhs, order)
    return e, abs(lhs.coeff(e) - rhs.coeff(e))


def bumped(fn, e, delta):
    """fn with delta added to the coefficient of x^e of every series it returns."""

    def wrapped(*args):
        s = fn(*args)
        return s + FormalSeries([delta], e, s.order) if e <= s.order else s

    return wrapped


# -- the uncleared forms, through reciprocals -----------------------------------


def old_r(order):
    """t * (H/G)(t^5) from the sums, through Newton, known past the order."""
    m = order // 5 + 1
    g, h = qseries.series_G(m), qseries.series_H(m)
    return (h * g.reciprocal()).stretch(5).shift(1)


def old_cf_vs_product(order):
    """The fraction truncation in series arithmetic, against R = t (S_(5,3)/S_(5,1))(t^5)
    through Newton: the backward recurrence v <- b_k + q^k / v from v = 1 at the
    depth, b_0 = 0 and b_k = 1."""
    q_order = order // 5 + 1
    depth = 2
    while depth * (depth - 1) // 2 <= q_order:
        depth += 1
    value = FormalSeries([1], 0, q_order)
    for k in range(depth - 1, -1, -1):
        value = FormalSeries([1], k, q_order) * value.reciprocal() + (1 if k else 0)
    r = formal.theta_series(5, 3, q_order) * formal.theta_series(5, 1, q_order).reciprocal()
    return value.stretch(5).shift(1).truncate(order), r.stretch(5).shift(1).truncate(order)


def old_r_identity_1(order):
    """t(1/R - 1 - R) against (t;t)/(t^25;t^25)."""
    r = old_r(order)
    t = FormalSeries([1], 1, r.order)
    lhs = (t * r.reciprocal() - t - t * r).truncate(order)
    inv25 = product_one_minus_inv(range(25, order + 1, 25), order)
    return lhs, formal.theta_series(3, 1, order) * inv25


def old_r_identity_2(order):
    """q(1/R^5 - 11 - R^5) against (q;q)^6/(q^5;q^5)^6, with R^5 = q (S3/S1)^5."""
    th = formal.theta_series
    w = math.prod([th(5, 3, order) * th(5, 1, order).reciprocal()] * 5)
    q = FormalSeries([1], 1, order)
    lhs = w.reciprocal() - 11 * q - q * q * w
    euler5 = th(3, 1, order // 5).stretch(5).truncate(order)
    return lhs, math.prod([th(3, 1, order)] * 6) * math.prod([euler5] * 6).reciprocal()


# -- series_R --------------------------------------------------------------------


@pytest.mark.parametrize("order", list(range(1, 41)) + [2000])
def test_series_R_matches_the_newton_quotient_of_the_sums(order):
    m = order // 5 + 1
    oracle = (series_H(m) * series_G(m).reciprocal()).stretch(5).shift(1)
    assert series_R(order) == oracle.truncate(order)


# -- the twins at every low order --------------------------------------------------


@pytest.mark.parametrize("order", range(10, 31))
def test_every_twin_passes_at_low_orders(ctx, order):
    for ident in TWINS:
        rec = formal_record(ident, ctx, order)
        assert rec["passed"]
        assert rec["point"].endswith(f"exact through order {order}")


def test_verify_all_at_the_lowest_series_order(capsys):
    assert main(["verify", "all", "--series-order", "10"]) == 0
    assert "error" not in capsys.readouterr().err


@pytest.mark.parametrize("ident", TWINS)
def test_twins_and_series_R_form_no_reciprocal(monkeypatch, ctx, ident):
    # the cf-vs-product twin takes R from series_R
    def refuse(self):
        raise AssertionError("reciprocal called")

    monkeypatch.setattr(FormalSeries, "reciprocal", refuse)
    monkeypatch.setattr(cf, "eval_finite", lambda *a: pytest.fail("eval_finite called"))
    assert formal_record(ident, ctx, 300)["passed"]


# -- one perturbed input: the cleared and the uncleared form fail alike -------------

ORDER = 150


def perturbed(e, deltas):
    """theta_series with deltas[(a, b)] added to the coefficient of x^e of S_(a,b)."""

    def theta(a, b, order):
        s = theta_series(a, b, order)
        delta = deltas.get((a, b), 0)
        return s + FormalSeries([delta], e, order) if delta and e <= order else s

    return theta


@pytest.mark.parametrize("e", [0, 1, 5, 11, 29])
def test_cf_twin_reports_a_perturbed_numerator_like_the_uncleared_form(monkeypatch, ctx, e):
    # S_(5,3) up by 3 at q^e moves R = t (S_(5,3)/S_(5,1))(t^5) by 3 at t^(5e + 1),
    # in the twin and in the uncleared form's R alike
    monkeypatch.setattr(formal, "theta_series", perturbed(e, {(5, 3): 3}))
    got = mismatch(formal_record("cf-vs-product", ctx, ORDER))
    assert got == first_mismatch(*old_cf_vs_product(ORDER), ORDER) == (5 * e + 1, 3)


@pytest.mark.parametrize("e", [1, 7, 40, 149])
def test_r_identity_1_twin_reports_a_perturbed_theta_like_the_uncleared_form(monkeypatch, ctx, e):
    # (t; t) is a theta series in t; the factors in t^5 of both sides move at t^(5e) only
    monkeypatch.setattr(formal, "theta_series", bumped(theta_series, e, -2))
    got = mismatch(formal_record("R-identity-1", ctx, ORDER))
    assert got == first_mismatch(*old_r_identity_1(ORDER), ORDER) == (e, 2)


@pytest.mark.parametrize("e", [1, 4, 19, 30])
def test_r_identity_2_twin_reports_a_perturbed_theta_like_the_uncleared_form(monkeypatch, ctx, e):
    # S1 up and S3 down by one at q^e keep S1 S3 = (q;q)(q^5;q^5) through q^e,
    # so the multiplier S1^5 S3^5 (q^5;q^5) is the uncleared form's there
    monkeypatch.setattr(formal, "theta_series", perturbed(e, {(5, 1): 1, (5, 3): -1}))
    got = mismatch(formal_record("R-identity-2", ctx, ORDER))
    assert got == first_mismatch(*old_r_identity_2(ORDER), ORDER)
    assert got[0] == e


@pytest.mark.parametrize("name", ["series_G", "series_H", "series_R"])
def test_twins_run_no_series_function(monkeypatch, ctx, name):
    monkeypatch.setattr(qseries, name, lambda *a, **k: pytest.fail(f"{name} called"))
    for ident in TWINS:
        assert formal_record(ident, ctx, 300)["passed"]


# -- the twins as rows -------------------------------------------------------------


def triple_product(row, order):
    """prod S_(A,B)^e through x^order from the exponents of the Jacobi triple product
    S_(A,B) = (x^A; x^A)(x^((A-B)/2); x^A)(x^((A+B)/2); x^A), each e times."""
    return product_one_minus([k for (a, b), e in row.items() for first in (a, (a - b) // 2, (a + b) // 2)
                              for k in range(first, order + 1, a) for _ in range(e)], order)


def twin_sides(ident):
    """The twin's two sides of (c, o, row) terms: cf-vs-product's multipliers are the
    halves of R's row, S_D against the fraction's A_n and S_N against its B_n."""
    if ident == "cf-vs-product":
        num, den = ({k: side.count(k) for k in side} for side in qseries._sides(cf.R_ROW.product))
        return [(1, 0, den)], [(1, 0, num)]
    return identities._TABLE[ident].sides


@pytest.mark.parametrize("ident", TWINS)
def test_twin_sides_match_their_triple_products(ident):
    # each row, and each side as the sum of its terms c x^o prod S_(A,B)^e, through order 500
    order = 500
    for side in twin_sides(ident):
        total = FormalSeries([0], 0, order)
        for c, o, row in side:
            assert eta_sum([(1, 0, row)], order) == triple_product(row, order), row
            total += (c * triple_product(row, order)).shift(o)
        assert eta_sum(side, order) == total.truncate(order)


@pytest.mark.parametrize("ident, count", [("cf-vs-product", 2), ("R-identity-1", 6), ("R-identity-2", 19)])
def test_twins_form_each_power_once(monkeypatch, ctx, ident, count):
    # every power by squaring once per side and the shared (q^5; q^5) once: R-identity-2
    # forms the 19 products it formed by hand; R-identity-1 runs 3 products in q and
    # E(t) E(t^5) as 3, one per class of E(t) mod 5 that pentagonal numbers reach
    # (0, 1 and 2), where it ran 5 on the G and H sums, and cf-vs-product 2
    calls, product = [], formal._product
    monkeypatch.setattr(formal, "_product", lambda *args: calls.append(args[2]) or product(*args))
    assert formal_record(ident, ctx, 960)["passed"]
    assert len(calls) == count


def mutations(ident):
    """(side, term, factor, delta) for every exponent of a row of the twin, +-1, kept >= 0."""
    return [(i, j, k, d) for i, side in enumerate(twin_sides(ident)) for j, (_, _, row) in enumerate(side)
            for k, e in row.items() for d in (1, -1) if e + d >= 0]


@pytest.mark.parametrize("ident, mutation", [(i, m) for i in TWINS for m in mutations(i)])
def test_a_changed_exponent_fails_the_numeric_and_the_exact_record(monkeypatch, ctx, ident, mutation):
    # the table's entry is the one statement of its identity: the numeric side at
    # q = 1/20 is its cleared side over the unit multiplier, so both records fail
    i, j, k, d = mutation
    if ident == "cf-vs-product":  # its rows are R's row's halves, the denominator's (side 0) negated
        monkeypatch.setitem(cf.R_ROW.product, k, cf.R_ROW.product[k] + (d if i else -d))
    else:
        entry = identities._TABLE[ident]
        sides = [list(side) for side in entry.sides]
        c, o, row = sides[i][j]
        sides[i][j] = (c, o, {**row, k: row[k] + d})
        monkeypatch.setitem(identities._TABLE, ident, entry._replace(sides=tuple(sides)))
    numeric, exact = verify(ident, ctx, samples=1, series_order=ORDER).records
    assert numeric["agree_bits"] is not None and exact["agree_bits"] is None
    assert not numeric["passed"] and not exact["passed"]
