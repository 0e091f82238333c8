from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab import cf
from rrlab.cf import eval_finite, rr_cf, CFSpec
from rrlab.numerics import PrecisionContext, RootMode, agree_bits, golden_phi, root
from rrlab.qseries import (
    G,
    H,
    R_product,
    S,
    chi,
    finite_mu,
    finite_nu,
    pochhammer,
    pochhammer_inf,
    series_G,
    series_H,
    series_R,
    theta_phi,
)

# (q;q)_inf at q = 1/10, computed independently at 320 bits
EULER_TENTH_70 = "0.8900100999989990000001000099999999899999000000000010000009999999999999"


def test_pochhammer_examples():
    assert pochhammer(Fraction(1, 2), Fraction(1, 2), 0) == 1
    assert pochhammer(Fraction(1, 2), Fraction(1, 2), 2) == Fraction(3, 8)
    assert pochhammer(Fraction(1, 2), Fraction(1, 2), 3) == Fraction(21, 64)


@given(
    a=st.fractions(min_value=-2, max_value=2, max_denominator=9),
    q=st.fractions(min_value=-1, max_value=1, max_denominator=9),
    n=st.integers(0, 12),
)
@settings(max_examples=60, deadline=None)
def test_pochhammer_recurrence(a, q, n):
    assert pochhammer(a, q, n + 1) == pochhammer(a, q, n) * (1 - a * q**n)


def test_pochhammer_inf_zero_a(ctx):
    assert pochhammer_inf(0, ctx.real(Fraction(1, 2)), ctx) == 1


def test_pochhammer_inf_euler_tenth(ctx):
    q = ctx.real(Fraction(1, 10))
    val = pochhammer_inf(q, q, ctx)
    assert abs(val - ctx.mp.mpf(EULER_TENTH_70)) < ctx.mp.mpf(10) ** -65


def test_pochhammer_inf_domain(ctx):
    with pytest.raises(ValueError):
        pochhammer_inf(1, 1, ctx)


def test_pochhammer_inf_precision_doubling(ctx, ctx512):
    for a_num, q_num in ((1, 1), (-1, 1), (3, 6)):
        a = Fraction(a_num, 10)
        q = Fraction(q_num, 10)
        v1 = pochhammer_inf(ctx.real(a), ctx.real(q), ctx)
        v2 = pochhammer_inf(ctx512.real(a), ctx512.real(q), ctx512)
        assert agree_bits(v1, v2, ctx) >= ctx.bits - ctx.guard_bits


def test_pochhammer_inf_tail_bound(ctx, ctx512):
    # doubling the precision (hence halving-and-more the truncation threshold)
    # moves the result by less than the claimed relative bound 2*tol
    a = ctx.real(Fraction(-3, 5))
    q = ctx.real(Fraction(3, 5))
    v1 = pochhammer_inf(a, q, ctx)
    v2 = pochhammer_inf(ctx512.real(Fraction(-3, 5)), ctx512.real(Fraction(3, 5)), ctx512)
    assert abs(v1 - v2) <= 2 * ctx.tol * abs(v1)


def test_G_H_at_zero(ctx):
    assert G(0, ctx) == 1
    assert H(0, ctx) == 1


def test_G_H_series_vs_product(ctx):
    for num in (1, 2, 3):
        q = ctx.real(Fraction(num, 5))
        assert agree_bits(G(q, ctx), G(q, ctx, "product"), ctx) >= ctx.bits - ctx.guard_bits
        assert agree_bits(H(q, ctx), H(q, ctx, "product"), ctx) >= ctx.bits - ctx.guard_bits


def test_R_product_small_q_scaling(ctx):
    q = ctx.real(Fraction(1, 10**30))
    ratio = R_product(q, ctx=ctx) / root(q, 5, RootMode.PRINCIPAL, ctx)
    assert abs(ratio - 1) < ctx.mp.mpf(10) ** -29


def test_R_product_matches_cf(ctx):
    q = ctx.real(Fraction(1, 10))
    assert agree_bits(R_product(q, ctx=ctx), rr_cf(q, ctx=ctx).value, ctx) >= ctx.bits - ctx.guard_bits


def test_S_at_one(ctx):
    assert abs(S(1, ctx) - golden_phi(ctx)) < ctx.tol


def test_S_closed_form_at_exp_pi(ctx):
    mp = ctx.mp
    val = S(mp.exp(-mp.pi), ctx)
    closed = mp.sqrt((5 - mp.sqrt(5)) / 2) - (mp.sqrt(5) - 1) / 2
    assert abs(val - closed) < mp.mpf(10) ** -60


def test_S_equals_minus_R_at_negated(ctx):
    q = ctx.real(Fraction(3, 10))
    assert abs(S(q, ctx) + rr_cf(-q, RootMode.REAL_ODD, ctx).value) < ctx.tol
    assert agree_bits(S(q, ctx), S(q, ctx, method="product"), ctx) >= ctx.bits - ctx.guard_bits


def test_S_domain(ctx):
    with pytest.raises(ValueError):
        S(ctx.real(Fraction(-1, 2)), ctx)
    with pytest.raises(ValueError):
        S(2, ctx)


def test_chi_basics(ctx):
    assert chi(0, ctx) == 1
    v1 = chi(ctx.real(Fraction(1, 10)), ctx)
    ctx2 = PrecisionContext(512, 32)
    v2 = chi(ctx2.real(Fraction(1, 10)), ctx2)
    assert agree_bits(v1, v2, ctx) >= ctx.bits - ctx.guard_bits


def test_chi_gives_unit_class_invariant(ctx):
    mp = ctx.mp
    q = mp.exp(-mp.pi)
    val = mp.root(2, 4) ** -1 * q ** (-mp.mpf(1) / 24) * chi(q, ctx)
    assert abs(val - 1) < mp.mpf(10) ** -60


def test_theta_phi_basics(ctx):
    assert theta_phi(0, ctx) == 1


def test_theta_ratio_closed_form(ctx):
    mp = ctx.mp
    ratio = theta_phi(mp.exp(-5 * mp.pi), ctx) / theta_phi(mp.exp(-mp.pi), ctx)
    assert abs(ratio - 1 / mp.sqrt(5 * mp.sqrt(5) - 10)) < mp.mpf(10) ** -60


def test_finite_mu_nu_base_cases():
    a, q = Fraction(2, 3), Fraction(1, 2)
    assert finite_mu(0, a, q) == 1
    assert finite_nu(0, a, q) == 1
    assert finite_mu(1, a, q) == 1 + a * q
    assert finite_nu(1, a, q) == 1


def test_finite_form_matches_cf_exactly():
    a, q = Fraction(1), Fraction(1, 2)

    def terms(k):
        return (a * q**k, Fraction(1))

    spec = CFSpec(b0=Fraction(1), terms=terms)
    for n in range(0, 9):
        assert finite_mu(n, a, q) / finite_nu(n, a, q) == eval_finite(spec, n)


def test_series_G_sum_vs_product_order_60():
    assert series_G(60).same_through(series_G(60, side="product"), 60)
    assert series_H(60).same_through(series_H(60, side="product"), 60)


def test_series_coefficients():
    g = series_G(10)
    h = series_H(10)
    assert g.coeff(4) == 2  # {4}, {1+1+1+1}
    assert h.coeff(4) == 1  # {2+2}
    assert g.coeffs_through(9) == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5]


def test_series_R_starts_at_t():
    r = series_R(20)
    assert r.offset == 1
    assert r.coeff(1) == 1
    # R(q)/q^(1/5) = 1 - q + q^2 + 0*q^3 - q^4 ... : check a few t-coefficients
    assert r.coeff(6) == -1  # coefficient of t^6 = t*q


def test_series_R_matches_numeric(ctx):
    # numeric evaluation of the truncated t-series at t = q^(1/5) approaches R(q)
    r = series_R(150)
    q = ctx.real(Fraction(1, 10))
    t = root(q, 5, RootMode.PRINCIPAL, ctx)
    val = sum(ctx.real(c) * t**e for e, c in zip(range(r.offset, r.order + 1), r.coeffs))
    direct = R_product(q, ctx=ctx)
    assert abs(val - direct) < ctx.mp.mpf(10) ** -28  # truncation at t^150 = q^30


# -- fixed-point kernels --------------------------------------------------------


@pytest.mark.parametrize(
    "kernel, q, terms",
    [
        pytest.param(kernel, Fraction(q), terms, id=f"{kernel.__name__}-{q}")
        for kernel, q, terms in (
            (G, "9999/10000", 5768),
            (H, "9999/10000", 5768),
            (G, "99999/100000", 51110),
            (H, "99999/100000", 51109),
            (chi, "99/100", 8333),
            (theta_phi, "999/1000", 405),
        )
    ],
)
def test_kernel_term_counts(monkeypatch, ctx, kernel, q, terms):
    # the number of indices cf.bounded yields pins each stop rule exactly
    counted = []
    bounded = cf.bounded

    def counting(route, ctx):
        for k in bounded(route, ctx):
            counted.append(k)
            yield k

    monkeypatch.setattr(cf, "bounded", counting)
    kernel(ctx.real(q), ctx)
    assert len(counted) == terms


def _triple_product_sum(mp, q, c):
    """sum over all integers n of (-1)^n q^(n(5n-c)/2), summed by mpmath with
    the precision its cancellation needs."""

    def terms():
        yield mp.one
        up, down = mp.one, mp.one  # q^(n(5n-c)/2) and q^(n(5n+c)/2)
        up_step, down_step = q ** ((5 - c) // 2), q ** ((5 + c) // 2)
        q5 = q**5
        sign = 1
        while True:
            up, down, sign = up * up_step, down * down_step, -sign
            up_step, down_step = up_step * q5, down_step * q5
            yield sign * up
            yield sign * down

    return mp.sum_accurately(terms)


_REF_NOMES = [Fraction(n, d) for n, d in ((-99, 100), (-1, 2), (1, 10), (1, 2), (99, 100), (999, 1000))]


@pytest.mark.parametrize(
    "q, bits",
    [
        pytest.param(q, bits, id=f"{q}-{bits}")
        for bits in (256, 512, 1024)
        for q in _REF_NOMES
        if bits < 1024 or abs(q) <= Fraction(99, 100)
    ],
)
def test_kernels_match_mpmath(q, bits):
    # references from mpmath alone, 64 bits above the kernel, on the same rounded q:
    # qp and jtheta, and G, H as (q^5; q^5)_inf over their Jacobi triple product sums
    ctx = PrecisionContext(bits, 32)
    mp = PrecisionContext(bits + 64, 32).mp
    want = ctx.bits - ctx.guard_bits
    qv = ctx.real(q)
    q5 = qv**5
    euler5 = mp.qp(q5)
    assert agree_bits(pochhammer_inf(q5, q5, ctx) / euler5, 1, ctx) >= want
    if abs(q) <= Fraction(1, 2):
        assert agree_bits(chi(qv, ctx) / mp.qp(-qv, qv**2), 1, ctx) >= want
    assert agree_bits(G(qv, ctx), euler5 / _triple_product_sum(mp, mp.mpf(qv), 3), ctx) >= want
    assert agree_bits(H(qv, ctx), euler5 / _triple_product_sum(mp, mp.mpf(qv), 1), ctx) >= want
    assert agree_bits(theta_phi(qv, ctx), mp.jtheta(3, 0, mp.mpf(qv)), ctx) >= want


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda c: pochhammer_inf(0.5j, 0.5, c), id="pochhammer_inf-a"),
        pytest.param(lambda c: pochhammer_inf(0.5, 0.5j, c), id="pochhammer_inf-q"),
        pytest.param(lambda c: G(0.5j, c), id="G"),
        pytest.param(lambda c: H(0.25 + 0.25j, c), id="H"),
        pytest.param(lambda c: chi(0.5j, c), id="chi"),
        pytest.param(lambda c: theta_phi(-0.5j, c), id="theta_phi"),
    ],
)
def test_kernels_refuse_complex(ctx, call):
    with pytest.raises(ValueError, match="real"):
        call(ctx)
