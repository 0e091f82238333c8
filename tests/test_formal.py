from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab.formal import (
    FormalSeries,
    constant,
    product_one_minus,
    product_one_minus_inv,
)


def geometric(order):
    # 1/(1-x)
    return FormalSeries([1] * (order + 1), 0, order)


def test_construction_pads_and_strips():
    s = FormalSeries([0, 0, 3, 1], 0, 5)
    assert s.offset == 2
    assert s.coeffs == [3, 1, 0, 0]
    assert s.order == 5
    assert s.coeff(0) == 0 and s.coeff(2) == 3 and s.coeff(5) == 0


def test_coeff_beyond_order_is_error():
    s = FormalSeries([1, 2], 0, 1)
    with pytest.raises(IndexError):
        s.coeff(2)


def test_add_sub_known_range():
    a = FormalSeries([1, 1, 1], 0, 2)
    b = FormalSeries([1], 1, 5)
    c = a + b
    assert c.order == 2
    assert c.coeffs_through(2) == [1, 2, 1]
    d = a - a
    assert d.is_zero()


def test_mul_basic_and_range():
    one_minus = FormalSeries([1, -1], 0, 10)
    geo = geometric(10)
    prod = one_minus * geo
    assert prod.coeffs_through(10) == [1] + [0] * 10
    # known range: both known 11 terms from exponent 0
    assert prod.order == 10


def test_mul_laurent_offsets():
    a = FormalSeries([1], -2, 5)  # x^-2 known through x^5
    b = FormalSeries([1], 3, 5)
    c = a * b
    assert c.offset == 1
    assert c.coeff(1) == 1


def test_reciprocal_roundtrip():
    s = FormalSeries([1, 2, 3, 4, 5], 0, 4)
    r = s.reciprocal()
    assert (s * r).coeffs_through(4) == [1, 0, 0, 0, 0]


def test_reciprocal_of_laurent():
    t = FormalSeries([1, 1], 1, 4)  # t + t^2 known through t^4
    r = t.reciprocal()
    assert r.offset == -1
    assert (t * r).coeff(0) == 1


def test_reciprocal_requires_nonzero_lowest():
    with pytest.raises(ZeroDivisionError):
        FormalSeries([0], 0, 3).reciprocal()


def test_reciprocal_rational_lead():
    s = FormalSeries([Fraction(1, 2), 1], 0, 3)
    r = s.reciprocal()
    assert r.coeff(0) == 2
    assert (s * r).coeffs_through(3) == [1, 0, 0, 0]


def test_pow():
    s = FormalSeries([1, 1], 0, 6)
    assert (s**3).coeffs_through(3) == [1, 3, 3, 1]
    assert (s**0).coeff(0) == 1
    inv2 = s**-2
    assert (inv2 * s * s).coeffs_through(4) == [1, 0, 0, 0, 0]


def test_shift_and_stretch():
    s = FormalSeries([1, 2, 3], 0, 2)
    sh = s.shift(4)
    assert sh.offset == 4 and sh.order == 6 and sh.coeff(5) == 2
    stx = s.stretch(5)
    assert stx.coeff(0) == 1 and stx.coeff(5) == 2 and stx.coeff(10) == 3
    assert stx.coeff(7) == 0
    assert stx.order == 2 * 5 + 4  # gaps above the last multiple are known zeros


def test_truncate():
    s = FormalSeries([1, 2, 3, 4], 0, 3)
    t = s.truncate(1)
    assert t.order == 1 and t.coeffs == [1, 2]


def test_same_through_and_mismatch():
    a = FormalSeries([1, 2, 3], 0, 2)
    b = FormalSeries([1, 2, 4], 0, 2)
    assert a.same_through(b, 1)
    assert not a.same_through(b, 2)
    assert a.first_mismatch(b, 2) == 2
    with pytest.raises(IndexError):
        a.same_through(b, 3)


def test_json_roundtrip():
    s = FormalSeries([Fraction(1, 3), 2, -5], -1, 3)
    data = s.to_json()
    assert data["lowest_exponent"] == -1
    assert data == {"lowest_exponent": -1, "coeffs": ["1/3", "2", "-5", "0", "0"], "order": 3}


def test_euler_product_pentagonal_numbers():
    # (x;x)_inf = 1 - x - x^2 + x^5 + x^7 - x^12 - x^15 + ...
    e = product_one_minus(range(1, 16), 15)
    expected = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    assert e.coeffs_through(15) == expected


def test_euler_inverse_is_partition_count():
    p = product_one_minus_inv(range(1, 11), 10)
    assert p.coeffs_through(10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_product_inverse_roundtrip():
    ks = [1, 2, 3, 5, 8]
    a = product_one_minus(ks, 20)
    b = product_one_minus_inv(ks, 20)
    assert (a * b).coeffs_through(20) == [1] + [0] * 20


small_series = st.builds(
    lambda coeffs, off: FormalSeries(coeffs, off, off + 9),
    st.lists(st.integers(-9, 9), min_size=1, max_size=10),
    st.integers(-3, 3),
)


@given(a=small_series, b=small_series, c=small_series)
@settings(max_examples=60, deadline=None)
def test_mul_associative_on_known_range(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    lo = min(left.offset, right.offset)
    hi = min(left.order, right.order)
    for e in range(lo, hi + 1):
        assert left.coeff(e) == right.coeff(e)


@given(a=small_series, b=small_series, c=small_series)
@settings(max_examples=60, deadline=None)
def test_mul_distributes_on_known_range(a, b, c):
    left = a * (b + c)
    right = a * b + a * c
    hi = min(left.order, right.order)
    lo = min(left.offset, right.offset)
    for e in range(lo, hi + 1):
        assert left.coeff(e) == right.coeff(e)


@given(coeffs=st.lists(st.integers(-9, 9), min_size=1, max_size=9))
@settings(max_examples=60, deadline=None)
def test_reciprocal_property(coeffs):
    s = FormalSeries([1] + coeffs, 0, len(coeffs))
    r = s.reciprocal()
    prod = s * r
    assert prod.coeffs_through(prod.order) == [1] + [0] * prod.order


def test_zero_series_behaviour():
    z = constant(0, 5)
    assert z.is_zero()
    s = FormalSeries([1, 2], 0, 5)
    assert (z * s).is_zero()
    with pytest.raises(ZeroDivisionError):
        z.reciprocal()
