import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab import cf, qseries
from rrlab.cf import eval_finite, rr_cf, CFSpec
from rrlab.numerics import PrecisionContext, RootMode, agree_bits, certify, golden_phi, root
from rrlab.qseries import (
    G,
    H,
    R_product,
    S,
    chi,
    finite_mu,
    finite_nu,
    pochhammer_inf,
    series_G,
    series_H,
    series_R,
    theta_phi,
)
from rrlab.identities import _factorization_denominator
from rrlab.qseries import _jacobi_sum, _theta_quotient

# (q;q)_inf at q = 1/10, computed independently at 320 bits
EULER_TENTH_70 = "0.8900100999989990000001000099999999899999000000000010000009999999999999"


def pochhammer(a, q, n: int):
    """Finite q-Pochhammer (a; q)_n = prod_{k<n} (1 - a*q^k); exact on rationals."""
    out = qk = 1
    for _ in range(n):
        out *= 1 - a * qk
        qk *= q
    return out


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


def test_pochhammer_inf_precision_doubling(ctx):
    for a_num, q_num in ((1, 1), (-1, 1), (3, 6)):
        a = Fraction(a_num, 10)
        q = Fraction(q_num, 10)
        _, bits = certify(lambda c: pochhammer_inf(c.real(a), c.real(q), c), ctx)
        assert bits >= ctx.bits - ctx.guard_bits


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
    assert abs(S(q, ctx) + rr_cf(-q, ctx, RootMode.REAL_ODD).value) < ctx.tol
    assert agree_bits(S(q, ctx), S(q, ctx, method="product"), ctx) >= ctx.bits - ctx.guard_bits


def test_S_domain(ctx):
    with pytest.raises(ValueError):
        S(ctx.real(Fraction(-1, 2)), ctx)
    with pytest.raises(ValueError):
        S(2, ctx)


def test_chi_basics(ctx):
    assert chi(0, ctx) == 1
    _, bits = certify(lambda c: chi(c.real(Fraction(1, 10)), c), ctx)
    assert bits >= ctx.bits - ctx.guard_bits


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
    assert series_G(60).first_mismatch(series_G(60, side="product"), 60) is None
    assert series_H(60).first_mismatch(series_H(60, side="product"), 60) is None


def test_series_sum_vs_product_every_low_order():
    # the sum side keeps 1/(q;q)_n only through order - n^2 (- n for H);
    # orders 1..40 put that cut on each side of n^2 and n^2 + n for n <= 6
    for order in range(1, 41):
        for series in (series_G, series_H):
            assert series(order).coeffs == series(order, side="product").coeffs
            assert series(order).order == order


def test_series_coefficients():
    g = series_G(10)
    h = series_H(10)
    assert g.coeff(4) == 2  # {4}, {1+1+1+1}
    assert h.coeff(4) == 1  # {2+2}
    assert [g.coeff(i) for i in range(10)] == [1, 1, 1, 1, 2, 2, 3, 3, 4, 5]


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
            (chi, "99/100", 140),
            (chi, "-99/100", 213),
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


def _chi_cross_route_points():
    for bits in (256, 512):
        for q in ("1/10", "1/2", "97/98", "999/1000"):
            for sign in (1, -1):
                yield pytest.param(sign * Fraction(q), bits, id=f"{sign * Fraction(q)}-{bits}")


@pytest.mark.parametrize("q, bits", _chi_cross_route_points())
def test_chi_euler_sums_match_the_product(q, bits):
    # the Euler sum (q >= 0) or the inverse of (-p; p)_inf (q < 0) against the product
    ctx = PrecisionContext(bits, 32)
    qv = ctx.real(q)
    ratio = chi(qv, ctx) / pochhammer_inf(-qv, qv**2, ctx)
    assert agree_bits(ratio, 1, ctx) >= bits - ctx.guard_bits


def _count_and_predict(monkeypatch):
    """Lists that collect the indices cf.bounded yields and the counts cf.refuse_early returns."""
    counted, predicted = [], []
    bounded, refuse_early = cf.bounded, cf.refuse_early

    def counting(route, ctx):
        for k in bounded(route, ctx):
            counted.append(k)
            yield k

    def predicting(route, ctx, needed):
        try:
            predicted.append(refuse_early(route, ctx, needed))
        except cf.ConvergenceError as exc:
            predicted.append(exc.needed)
            raise
        return predicted[-1]

    monkeypatch.setattr(cf, "bounded", counting)
    monkeypatch.setattr(cf, "refuse_early", predicting)
    return counted, predicted


_PREDICTED_KERNELS = {
    "G": G,
    "H": H,
    "chi": chi,
    "theta_phi": theta_phi,
    "pochhammer_inf": lambda q, c: pochhammer_inf(q * q, q, c),
    "pochhammer_inf-negative-a": lambda q, c: pochhammer_inf(-q / 2, q, c),
}


@pytest.mark.parametrize("name", _PREDICTED_KERNELS)
@pytest.mark.parametrize(
    "bits, guard_bits, max_iter",
    [(256, 32, 10**6), (512, 32, 10**6), (64, 1, 10**5), (128, 60, 3)],
)
def test_predicted_minimum_never_exceeds_the_count(monkeypatch, name, bits, guard_bits, max_iter):
    # every prediction is a lower bound on the count the loop then runs, also at a
    # 1-guard-bit width where fixed-point rounding is largest, and a refusal runs
    # no iteration
    kernel = _PREDICTED_KERNELS[name]
    counted, predicted = _count_and_predict(monkeypatch)
    for q in ("1/10", "1/2", "-1/2", "9/10", "-97/98", "999/1000", "99999/100000"):
        if name == "theta_phi" and q.startswith("-"):
            continue  # for q < 0 it runs the sparse kernel (test_sparse_prediction_never_exceeds_the_count)
        ctx = PrecisionContext(bits, guard_bits, max_iter)
        counted.clear()
        predicted.clear()
        try:
            kernel(ctx.real(Fraction(q)), ctx)
        except cf.ConvergenceError as exc:
            if exc.needed is None:  # ran into the cap
                assert predicted[0] <= max_iter == exc.iterations == len(counted), q
            else:
                assert (exc.iterations, counted) == (0, []) and exc.needed == predicted[0] > max_iter
            continue
        assert len(predicted) == 1 and 1 <= predicted[0] <= len(counted), q


def test_capped_series_refuses_before_its_first_term(monkeypatch):
    counted, predicted = _count_and_predict(monkeypatch)
    ctx = PrecisionContext(256, 32, 200_000)
    with pytest.raises(cf.ConvergenceError) as err:
        G(ctx.real(Fraction(999_999, 1_000_000)), ctx)
    exc = err.value
    assert (exc.status, exc.iterations, exc.max_iter, counted) == (
        cf.CFStatus.MAX_ITERATIONS, 0, 200_000, []
    )
    assert 481_000 < exc.needed == predicted[0] <= 481_211  # rho_n < 1 first at n = 481,211
    assert str(exc) == (
        f"G series did not converge: max-iterations predicted, needs at least {exc.needed} "
        "iterations (max_iter 200000), none run"
    )


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
        pytest.param(lambda c: rr_cf(c.mp.mpc(0.3, 0.4), ctx=c), id="rr_cf"),
        pytest.param(
            lambda c: cf.eval_infinite(CFSpec(b0=0, terms=lambda k: (c.mp.mpc(0, 1) / k, 1)), c),
            id="eval_infinite",
        ),
    ],
)
def test_kernels_refuse_complex(ctx, call):
    with pytest.raises(ValueError, match="real"):
        call(ctx)


# -- sparse theta sums -------------------------------------------------------------


def _factor_loop(gamma, x, ctx):
    """prod_{n>=1} (1 + gamma x^n + x^(2n)) multiplied out one factor at a time on
    W-bit integers: the loop the sparse sum replaced, kept as a reference."""
    w = ctx.bits + ctx.guard_bits + ctx.max_iter.bit_length()
    xi, g = int(ctx.mp.ldexp(x, w)), int(ctx.mp.ldexp(gamma, w))
    one = 1 << w
    scale = (abs(g) + one) << ctx.stop_bits
    limit = (one - abs(xi)) << w  # |x^n| (|gamma| + 1)/(1 - |x|) below stop_tol
    man, exp, xn = one, -w, one
    while True:
        xn = xn * xi >> w
        man *= one + (g * xn >> w) + (xn * xn >> w)
        shift = man.bit_length() - w
        man >>= shift
        exp += shift - w
        if abs(xn) * scale < limit:
            return ctx.mp.mpf((man, exp))


def _cancelling(mp, q, terms):
    """The sum of terms(q) at mp's precision plus the bits the sum cancels, about
    pi^2/(2h ln 2) for h = -ln|q| (sum_accurately would find them by doubling)."""
    h = -math.log(abs(float(q)))
    with mp.extraprec(math.ceil(math.pi**2 / (2 * h * math.log(2))) + 16):
        total, eps = mp.zero, mp.ldexp(1, -mp.prec)
        for term in terms(mp.mpf(q)):
            total += term
            if abs(term) < eps:
                return +total


def _jacobi_cube(q):
    """Terms of (q; q)_inf^3 = sum_{n>=0} (-1)^n (2n+1) q^(n(n+1)/2) (Jacobi)."""
    n, power, qn = 0, 1, 1
    while True:
        yield (-1) ** n * (2 * n + 1) * power
        n, qn = n + 1, qn * q
        power *= qn


def _theta_4(mp, p):
    """phi(-p) = sqrt(pi/h) sum over all n of exp(-pi^2 (n + 1/2)^2/h), h = -ln p:
    the theta_2 transformation, a fast sum with positive terms."""
    h = -mp.log(p)
    return 2 * mp.sqrt(mp.pi / h) * mp.nsum(lambda n: mp.exp(-mp.pi**2 * (n + 0.5) ** 2 / h), [0, mp.inf])


def _theta(q, ctx, a, b):
    return _jacobi_sum(q, ctx, "theta sum", ((a, b, None),), math.pi**2 / (2 * a))


_SPARSE_NOMES = [Fraction(n, d) for n, d in (
    (1, 20), (-1, 20), (1, 2), (-1, 2), (19, 20), (-19, 20), (99, 100), (999, 1000), (-999, 1000),
)]


def _product_references_run(q, bits):
    """The product references only where they take at most about 250,000 factors."""
    return bits == 256 or abs(q) <= Fraction(19, 20) or (bits == 1024 and abs(q) <= Fraction(99, 100))


@pytest.mark.parametrize(
    "q, bits", [pytest.param(q, bits, id=f"{q}-{bits}") for bits in (256, 1024, 2048) for q in _SPARSE_NOMES]
)
def test_sparse_sums_match_references(q, bits):
    # relative agreement >= bits - guard_bits on the same rounded q: E against
    # mpmath.qp (Jacobi's E^3 series at |q| = 999/1000, where qp takes seconds),
    # phi against jtheta (the theta_2 transformation at -999/1000, where jtheta
    # returns a negative number), theta_G, theta_H and E against pochhammer_inf,
    # and the factorization denominator against the old factor loop
    ctx = PrecisionContext(bits, 32)
    mp = PrecisionContext(bits + 64, 32).mp
    want = ctx.bits - ctx.guard_bits
    qv = ctx.real(q)

    def rel(x, ref):
        return agree_bits(x / ref, 1, ctx)

    euler = _theta_quotient(qv, ctx, "E")
    exact = mp.mpf(qv)
    near = abs(q) == Fraction(999, 1000)
    assert rel(euler, mp.cbrt(_cancelling(mp, exact, _jacobi_cube)) if near else mp.qp(exact)) >= want
    assert rel(theta_phi(qv, ctx), _theta_4(mp, -exact) if near and q < 0 else mp.jtheta(3, 0, exact)) >= want
    if not _product_references_run(q, bits):
        return
    q5 = qv**5
    e5 = pochhammer_inf(q5, q5, ctx)
    assert rel(euler, pochhammer_inf(qv, qv, ctx)) >= want
    assert rel(_theta(qv, ctx, 5, 1), e5 * pochhammer_inf(qv**2, q5, ctx) * pochhammer_inf(qv**3, q5, ctx)) >= want
    assert rel(_theta(qv, ctx, 5, 3), e5 * pochhammer_inf(qv, q5, ctx) * pochhammer_inf(qv**4, q5, ctx)) >= want
    both = 1
    for gamma in ((1 - ctx.mp.sqrt(5)) / 2, golden_phi(ctx)):
        denominator = _factorization_denominator(gamma, qv, ctx)
        assert rel(denominator, _factor_loop(gamma, qv, ctx)) >= want
        both *= denominator
    # (1 + g1 x + x^2)(1 + g2 x + x^2) = (1 - x^5)/(1 - x)
    assert rel(both, e5 / pochhammer_inf(qv, qv, ctx)) >= want


@pytest.mark.parametrize(
    "name, q, terms",
    [
        ("R", "1/2", 21),
        ("R", "999/1000", 1358),
        ("R", "-999/1000", 1358),
        ("G", "99/100", 251),
        ("E", "1/2", 13),
        ("E", "999/1000", 1099),
        ("E", "9995/10000", 2147),
        ("phi-", "999/1000", 1622),
    ],
)
def test_sparse_term_counts(monkeypatch, ctx, name, q, terms):
    # every term of both sums of a quotient, at 256 bits, pins the stop rule and the guard
    counted, _ = _count_and_predict(monkeypatch)
    _theta_quotient(ctx.real(Fraction(q)), ctx, name)
    assert len(counted) == terms


@pytest.mark.parametrize("q, route", [("9995/10000", ["sum", "sum"]), ("9999/10000", ["product"] * 4)])
def test_cost_rule_picks_the_route(monkeypatch, ctx, q, route):
    # at 256 bits R's sums cost less at 1 - 5e-4 and its four products at 1 - 1e-4
    calls = []

    def product(a, q, c):
        calls.append("product")
        return c.mp.one

    def sums(q, c, route, parts, loss):
        calls.append("sum")
        return c.mp.one

    monkeypatch.setattr(qseries, "pochhammer_inf", product)
    monkeypatch.setattr(qseries, "_jacobi_sum", sums)
    R_product(ctx.real(Fraction(q)), ctx=ctx)
    assert calls == route


def test_short_guard_is_redone_once_at_the_measured_width(monkeypatch, ctx):
    # predicting no cancellation for E(99/100) ~ 2^-232: the first pass comes out
    # short, the second runs at the width it measured and agrees with the predicted run
    counted, predicted = _count_and_predict(monkeypatch)
    q = ctx.real(Fraction(99, 100))
    right = _jacobi_sum(q, ctx, "E", ((3, 1, None),), math.pi**2 / 6)
    assert len(predicted) == 1
    predicted.clear()
    redone = _jacobi_sum(q, ctx, "E", ((3, 1, None),), 0.0)
    assert len(predicted) == 2 and predicted[0] < predicted[1]
    assert agree_bits(redone / right, 1, ctx) >= ctx.bits - ctx.guard_bits


def test_sum_that_cancels_on_both_passes_raises(ctx):
    parts = ((3, 1, None), (3, 1, lambda w, x: -(1 << w)))  # E - E = 0
    with pytest.raises(ArithmeticError, match="cancelled"):
        _jacobi_sum(ctx.real(Fraction(1, 2)), ctx, "E - E", parts, math.pi**2 / 6)


def test_sparse_sum_refuses_a_count_above_max_iter(monkeypatch):
    # R(99/100) needs about 250 terms of each sum; with max_iter 50 none runs
    counted, predicted = _count_and_predict(monkeypatch)
    ctx = PrecisionContext(256, 32, 50)
    with pytest.raises(cf.ConvergenceError) as err:
        R_product(ctx.real(Fraction(99, 100)), ctx=ctx)
    exc = err.value
    assert (exc.route, exc.iterations, counted) == ("R theta sum", 0, [])
    assert exc.needed == predicted[0] > 50


_SPARSE_PARTS = {
    "theta_G": (((5, 1, None),), math.pi**2 / 10),
    "E": (((3, 1, None),), math.pi**2 / 6),
    "phi": (((2, 0, None),), math.pi**2 / 4),
}


@pytest.mark.parametrize("name", _SPARSE_PARTS)
@pytest.mark.parametrize(
    "bits, guard_bits, max_iter",
    [(256, 32, 10**6), (512, 32, 10**6), (64, 1, 10**5), (128, 60, 3)],
)
def test_sparse_prediction_never_exceeds_the_count(monkeypatch, name, bits, guard_bits, max_iter):
    # every pass's prediction is a lower bound on the terms that pass runs, and a
    # refusal runs none
    parts, loss = _SPARSE_PARTS[name]
    counted, predicted = _count_and_predict(monkeypatch)
    for q in ("1/10", "1/2", "-1/2", "9/10", "-97/98", "999/1000"):
        ctx = PrecisionContext(bits, guard_bits, max_iter)
        counted.clear()
        predicted.clear()
        try:
            _jacobi_sum(ctx.real(Fraction(q)), ctx, name, parts, loss)
        except cf.ConvergenceError as exc:
            if exc.needed is None:  # ran into the cap
                assert predicted[-1] <= max_iter == exc.iterations, q
            else:
                assert (exc.iterations, counted) == (0, []) and exc.needed == predicted[0] > max_iter
            continue
        assert len(predicted) == 1 and 1 <= predicted[0] <= len(counted), q
