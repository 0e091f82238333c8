from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rrlab.formal import (
    FormalSeries,
    constant,
    product_one_minus,
    product_one_minus_inv,
    stretched_product,
    theta_series,
)
from rrlab.qseries import series_G


def coeffs_through(s, e):
    """Coefficients of x^0 .. x^e as a plain list."""
    return [s.coeff(i) for i in range(e + 1)]


def geometric(order):
    # 1/(1-x)
    return FormalSeries([1] * (order + 1), 0, order)


def test_construction_pads_and_strips():
    s = FormalSeries([0, 0, 3, 1], 0, 5)
    assert s.offset == 2
    assert s.coeffs == [3, 1, 0, 0]
    assert s.order == 5
    assert s.coeff(0) == 0 and s.coeff(2) == 3 and s.coeff(5) == 0
    # the zero series keeps one coefficient, at its order
    z = FormalSeries([0], 0, 7)
    assert (z.coeffs, z.offset, z.order) == ([0], 7, 7)


@pytest.mark.parametrize("bad", [Fraction(1, 2), 0.5, mpmath.mpf(1), "1"], ids=repr)
def test_construction_rejects_non_integers(bad):
    with pytest.raises(TypeError):
        FormalSeries([1, bad])


def test_construction_reads_integers_through_index():
    s = FormalSeries([True, 2, False], 0, 2)
    assert s.coeffs == [1, 2, 0]
    assert all(type(c) is int for c in s.coeffs)


def test_coeff_beyond_order_is_error():
    s = FormalSeries([1, 2], 0, 1)
    with pytest.raises(IndexError):
        s.coeff(2)


def test_add_sub_known_range():
    a = FormalSeries([1, 1, 1], 0, 2)
    b = FormalSeries([1], 1, 5)
    c = a + b
    assert c.order == 2
    assert coeffs_through(c, 2) == [1, 2, 1]
    d = a - a
    assert d.is_zero()


def test_mul_basic_and_range():
    one_minus = FormalSeries([1, -1], 0, 10)
    geo = geometric(10)
    prod = one_minus * geo
    assert coeffs_through(prod, 10) == [1] + [0] * 10
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
    assert coeffs_through(s * r, 4) == [1, 0, 0, 0, 0]


def test_reciprocal_of_laurent():
    t = FormalSeries([1, 1], 1, 4)  # t + t^2 known through t^4
    r = t.reciprocal()
    assert r.offset == -1
    assert (t * r).coeff(0) == 1


def test_reciprocal_requires_nonzero_lowest():
    with pytest.raises(ZeroDivisionError):
        FormalSeries([0], 0, 3).reciprocal()


@pytest.mark.parametrize("lead", [2, -2, 3])
def test_reciprocal_requires_unit_lead(lead):
    # +-1 are the only units of the integers
    with pytest.raises(ValueError):
        FormalSeries([lead, 1], 0, 3).reciprocal()


def test_no_division_operator():
    # a quotient is a product with the reciprocal; `/` is not defined
    s = FormalSeries([1, 1], 0, 3)
    assert coeffs_through(s * s.reciprocal(), 3) == [1, 0, 0, 0]
    for other in (s, 2, Fraction(1, 2), 0.5):
        with pytest.raises(TypeError):
            s / other


def test_pow():
    s = FormalSeries([1, 1], 0, 6)
    assert coeffs_through(s**3, 3) == [1, 3, 3, 1]
    assert (s**0).coeff(0) == 1
    inv2 = s.reciprocal() ** 2
    assert coeffs_through(inv2 * s * s, 4) == [1, 0, 0, 0, 0]


@pytest.mark.parametrize("m", [-1, -2, -7])
def test_negative_power_raises(m):
    with pytest.raises(ValueError, match="negative power"):
        FormalSeries([1, 1], 0, 6) ** m


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


def test_first_mismatch():
    a = FormalSeries([1, 2, 3], 0, 2)
    b = FormalSeries([1, 2, 4], 0, 2)
    assert a.first_mismatch(b, 1) is None
    assert a.first_mismatch(b, 2) == 2
    with pytest.raises(IndexError):  # equal through the order, unknown past it
        a.first_mismatch(FormalSeries([1, 2, 3, 0], 0, 3), 3)


def test_json_roundtrip():
    s = FormalSeries([7, 2, -(2**70)], -1, 3)
    data = s.to_json()
    assert data["lowest_exponent"] == -1
    assert data == {"lowest_exponent": -1, "coeffs": ["7", "2", str(-(2**70)), "0", "0"], "order": 3}


def test_euler_product_pentagonal_numbers():
    # (x;x)_inf = 1 - x - x^2 + x^5 + x^7 - x^12 - x^15 + ...
    e = product_one_minus(range(1, 16), 15)
    expected = [1, -1, -1, 0, 0, 1, 0, 1, 0, 0, 0, 0, -1, 0, 0, -1]
    assert coeffs_through(e, 15) == expected


@pytest.mark.parametrize("order", [*range(1, 30), 500])
def test_pentagonal_euler_product_equals_the_product(order):
    # the pentagonal number theorem against the factor-by-factor product
    pentagonal = theta_series(3, 1, order)
    assert pentagonal.coeffs == product_one_minus(range(1, order + 1), order).coeffs
    assert (pentagonal.offset, pentagonal.order) == (0, order)


@pytest.mark.parametrize("a,b", [(3, 1), (5, 1), (5, 3), (2, 0), (4, 2), (7, 1)])
@pytest.mark.parametrize("order", [0, 1, 2, 9, 60])
def test_theta_series_is_its_triple_product(a, b, order):
    # S_(a,b) = (x^a; x^a)(x^((a-b)/2); x^a)(x^((a+b)/2); x^a), factor by factor
    exponents = [k for k in range(1, order + 1) if k % a in (0, (a - b) // 2, (a + b) // 2 % a)]
    want = product_one_minus(exponents, order)
    if b == 0:  # the middle two factors coincide: (x^(a/2); x^a) twice
        want = want * product_one_minus(range(a // 2, order + 1, a), order)
    assert theta_series(a, b, order) == want


@pytest.mark.parametrize("a,b", [(3, 3), (5, 6), (4, 1), (3, -1)])
def test_theta_series_rejects_bad_parameters(a, b):
    with pytest.raises(ValueError):
        theta_series(a, b, 10)


@pytest.mark.parametrize("s", [1, 2, 5])
@pytest.mark.parametrize("a_offset,b_offset", [(0, 0), (0, 1), (2, -3)])
def test_stretched_product_matches_the_stretched_multiply(s, a_offset, b_offset):
    a = FormalSeries([1, -2, 0, 5, 7, -1], a_offset, a_offset + 5)
    b = FormalSeries([3, 0, -1, 4, 2, 2, 0, 9, -5, 1, 1, 0, 2], b_offset, b_offset + 12)
    # a(x^s) is known through s * a.order + s - 1, as the stretch says
    assert stretched_product(a, s, b) == a.stretch(s) * b


def test_stretched_product_of_a_zero_class():
    b = FormalSeries([1, 0, 0, 0, 0, 2], 0, 9)  # classes 1..4 mod 5 are zero
    assert stretched_product(theta_series(3, 1, 3), 5, b) == theta_series(3, 1, 3).stretch(5) * b


def test_euler_inverse_is_partition_count():
    p = product_one_minus_inv(range(1, 11), 10)
    assert coeffs_through(p, 10) == [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42]


def test_product_inverse_roundtrip():
    ks = [1, 2, 3, 5, 8]
    a = product_one_minus(ks, 20)
    b = product_one_minus_inv(ks, 20)
    assert coeffs_through(a * b, 20) == [1] + [0] * 20


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
    assert coeffs_through(prod, prod.order) == [1] + [0] * prod.order


def test_zero_series_behaviour():
    z = constant(0, 5)
    assert z.is_zero()
    s = FormalSeries([1, 2], 0, 5)
    assert (z * s).is_zero()
    # known orders that sum below zero
    neg = z * FormalSeries([0], -7, -7)
    assert neg.is_zero() and neg.order == -2
    with pytest.raises(ZeroDivisionError):
        z.reciprocal()


def test_zero_product_claims_no_unknown_coefficient():
    # 0 + O(x^11) times 1 + x + O(x^11) is known through x^10, not x^20
    prod = FormalSeries([0], 0, 10) * FormalSeries([1, 1], 0, 10)
    assert prod.is_zero()
    assert prod.order == 10
    with pytest.raises(IndexError):
        prod.coeff(11)
    # an operand known through no term gives a product known through no term
    empty = FormalSeries([], 3, 2) * FormalSeries([1, 1], 0, 10)
    assert (empty.coeffs, empty.offset, empty.order) == ([], 3, 2)


# -- the packed product and the Newton reciprocal against schoolbook references --


def schoolbook_product(a: FormalSeries, b: FormalSeries) -> FormalSeries:
    n = min(a.nterms, b.nterms)
    out = [0] * n
    for i in range(n):
        for j in range(n - i):
            out[i + j] += a.coeffs[i] * b.coeffs[j]
    offset = a.offset + b.offset
    return FormalSeries(out, offset, offset + n - 1)


def recurrence_reciprocal(c: FormalSeries) -> FormalSeries:
    lead = c.coeffs[0]
    assert lead in (1, -1)
    out = [lead]  # 1/lead = lead for a unit
    for j in range(1, c.nterms):
        out.append(-lead * sum(c.coeffs[i] * out[j - i] for i in range(1, j + 1)))
    return FormalSeries(out, -c.offset, -c.offset + c.nterms - 1)


def assert_same(got: FormalSeries, want: FormalSeries):
    assert got == want
    assert all(type(c) is int for c in got.coeffs)


def unit_lead(s: FormalSeries) -> FormalSeries:
    """s with its lowest coefficient replaced by its sign (+1 for the zero series)."""
    return FormalSeries([1 if s.coeffs[0] >= 0 else -1] + s.coeffs[1:], s.offset, s.order)


def coefficients(bits: int):
    whole = st.integers(-(2**bits), 2**bits)
    return st.lists(st.one_of(st.just(0), whole), min_size=1, max_size=200)


def series(coefficient_lists):
    return st.builds(
        lambda coeffs, off, nterms: FormalSeries(coeffs, off, off + nterms - 1),
        coefficient_lists,
        st.integers(-3, 3),
        st.integers(1, 200),
    )


# An inverse's coefficients grow about as fast as max|c|^k, so the reciprocal
# tests shrink the coefficients as the length grows to keep the references quick.
big_series = series(coefficients(300))
invertible = st.sampled_from([300, 40, 8, 2]).flatmap(
    lambda bits: series(coefficients(bits)).map(
        lambda s: unit_lead(s).truncate(s.offset + 1200 // bits - 1)
    )
)
# full-length cases besides what hypothesis draws
long_whole = FormalSeries([(-3) ** k % 11 - 5 for k in range(200)], -3, 196)
long_growing = FormalSeries([(-1) ** k * (k + 2) * (k % 7 + 1) for k in range(200)], 2, 201)


@given(a=big_series, b=big_series)
@example(a=long_whole, b=long_growing)
@example(a=long_whole, b=long_whole.shift(5))
@settings(max_examples=60, deadline=None)
def test_mul_matches_schoolbook(a, b):
    if a.is_zero() or b.is_zero():
        assert (a * b).is_zero()
    else:
        assert_same(a * b, schoolbook_product(a, b))


@given(c=invertible)
@example(c=unit_lead(long_whole))
@example(c=unit_lead(long_growing))
@settings(max_examples=40, deadline=None)
def test_reciprocal_matches_recurrence(c):
    assert_same(c.reciprocal(), recurrence_reciprocal(c))


@given(c=invertible)
@settings(max_examples=30, deadline=None)
def test_reciprocal_with_unit_lead_matches_recurrence(c):
    # the other unit as lead: the Newton seed is the lead itself, and 1/(-c) = -(1/c)
    assert_same((-c).reciprocal(), recurrence_reciprocal(-c))
    assert_same((-c).reciprocal(), -c.reciprocal())


@pytest.mark.parametrize("n", [1, 2, 3, 4, 127, 128, 255, 256, 257])
def test_mul_at_slot_width_edges(n):
    # coefficient k of each product is (k + 1) * max|a| * max|b|, the largest
    # the slot width has to hold at that position
    low = FormalSeries([-(2**64)] * n, 0, n - 1)
    high = FormalSeries([2**64 - 1] * n, 0, n - 1)
    for a, b in ((low, low), (high, high), (low, high)):
        want = [(k + 1) * a.coeffs[0] * b.coeffs[0] for k in range(n)]
        assert (a * b).coeffs == want
        assert_same(a * b, schoolbook_product(a, b))
    # the same coefficients behind a lead u = +-1: u(1 + d x/(1 - x)) has the
    # reciprocal u(1 - x)/(1 + (d - 1) x), coefficients u and -u d (1 - d)^(k-1)
    for u, s in ((-1, low), (1, high)):
        d = u * s.coeffs[0]
        want = [u] + [-u * d * (1 - d) ** (k - 1) for k in range(1, n)]
        unit = FormalSeries([u] + s.coeffs[1:], 0, n - 1)
        assert_same(unit.reciprocal(), FormalSeries(want, 0, n - 1))


def test_reciprocal_of_G_through_order_3000():
    g = series_G(3000)
    assert coeffs_through(g * g.reciprocal(), 3000) == [1] + [0] * 3000
