"""The exact twins of cf-vs-product, R-identity-1 and R-identity-2, and series_R.

The twins compare integer series with their denominators cleared, and
series_R divides by a sparse theta series with a short recurrence.  The
oracles here are the uncleared forms through the Newton reciprocal, which no
twin uses any more.
"""

import re

import pytest

from rrlab import cf, identities, qseries
from rrlab.cli import main
from rrlab.formal import FormalSeries, product_one_minus_inv, theta_series
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
    """The fraction truncation in series arithmetic, against R: the backward
    recurrence v <- b_k + q^k / v from v = 1 at the depth, b_0 = 0 and b_k = 1."""
    q_order = order // 5 + 1
    depth = 2
    while depth * (depth - 1) // 2 <= q_order:
        depth += 1
    value = FormalSeries([1], 0, q_order)
    for k in range(depth - 1, -1, -1):
        value = FormalSeries([1], k, q_order) * value.reciprocal() + (1 if k else 0)
    return value.stretch(5).shift(1).truncate(order), qseries.series_R(order)


def old_r_identity_1(order):
    """t(1/R - 1 - R) against (t;t)/(t^25;t^25)."""
    r = old_r(order)
    t = FormalSeries([1], 1, r.order)
    lhs = (t * r.reciprocal() - t - t * r).truncate(order)
    inv25 = product_one_minus_inv(range(25, order + 1, 25), order)
    return lhs, identities.theta_series(3, 1, order) * inv25


def old_r_identity_2(order):
    """q(1/R^5 - 11 - R^5) against (q;q)^6/(q^5;q^5)^6, with R^5 = q (S3/S1)^5."""
    th = identities.theta_series
    w = (th(5, 3, order) * th(5, 1, order).reciprocal()) ** 5
    q = FormalSeries([1], 1, order)
    lhs = w.reciprocal() - 11 * q - q * q * w
    euler5 = th(3, 1, order // 5).stretch(5).truncate(order)
    return lhs, th(3, 1, order) ** 6 * (euler5**6).reciprocal()


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


@pytest.mark.parametrize("e", [1, 3, 26, 57, 150])
def test_cf_twin_reports_a_perturbed_R_like_the_uncleared_form(monkeypatch, ctx, e):
    monkeypatch.setattr(qseries, "series_R", bumped(qseries.series_R, e, 3))
    got = mismatch(formal_record("cf-vs-product", ctx, ORDER))
    assert got == first_mismatch(*old_cf_vs_product(ORDER), ORDER) == (e, 3)


@pytest.mark.parametrize("e", [1, 7, 40, 149])
def test_r_identity_1_twin_reports_a_perturbed_theta_like_the_uncleared_form(monkeypatch, ctx, e):
    # (t; t) is a theta series in t; the (q; q) of the multiplier moves at t^(5e) only
    monkeypatch.setattr(identities, "theta_series", bumped(theta_series, e, -2))
    got = mismatch(formal_record("R-identity-1", ctx, ORDER))
    assert got == first_mismatch(*old_r_identity_1(ORDER), ORDER) == (e, 2)


@pytest.mark.parametrize("e", [1, 4, 19, 30])
def test_r_identity_2_twin_reports_a_perturbed_theta_like_the_uncleared_form(monkeypatch, ctx, e):
    # S1 up and S3 down by one at q^e keep S1 S3 = (q;q)(q^5;q^5) through q^e,
    # so the multiplier S1^5 S3^5 (q^5;q^5) is the uncleared form's there
    def theta(a, b, order):
        s = theta_series(a, b, order)
        delta = {(5, 1): 1, (5, 3): -1}.get((a, b), 0)
        return s + FormalSeries([delta], e, order) if delta and e <= order else s

    monkeypatch.setattr(identities, "theta_series", theta)
    got = mismatch(formal_record("R-identity-2", ctx, ORDER))
    assert got == first_mismatch(*old_r_identity_2(ORDER), ORDER)
    assert got[0] == e


@pytest.mark.parametrize("name", ["series_G", "series_H"])
@pytest.mark.parametrize("e", [1, 7, 29])
def test_r_identity_1_twin_catches_a_perturbed_sum_at_its_image_in_t(monkeypatch, ctx, name, e):
    # G and H sit in the multiplier G H (t^5; t^5) too, so the cleared form
    # reports q^e at t^(5e) (G, with twice the deviation) or t^(5e + 1) (H);
    # the uncleared form reports t^(5e) with deviation 1
    monkeypatch.setattr(qseries, name, bumped(getattr(qseries, name), e, 1))
    assert first_mismatch(*old_r_identity_1(ORDER), ORDER) == (5 * e, 1)
    got = mismatch(formal_record("R-identity-1", ctx, ORDER))
    assert got == ((5 * e, 2) if name == "series_G" else (5 * e + 1, 1))
