import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rrlab
from rrlab.cf import (
    CFSpec,
    CFStatus,
    ConvergenceError,
    DivergenceError,
    ZeroDenominatorError,
    bounded,
    convergents,
    eval_finite,
    eval_infinite,
    legendre5,
    rr_at_root_of_unity,
    rr_cf,
    rr_cfspec,
    rr_root_of_unity_direct,
    rr_root_of_unity_spec,
    schur_classify,
)
from rrlab.identities import cf2_spec
from rrlab.numerics import PrecisionContext, RootMode, agree_bits, golden_phi
from rrlab.qseries import R_product

# sqrt(pi*e/2) - sum 1/(2n+1)!!, computed independently at 320 bits
CF2_70 = "0.6556795424187984715438712307308112833992823328704620280536861587342"


def _example_spec():
    # 1 + 1/1 + 2/1 + 3/1
    return CFSpec(b0=Fraction(1), terms=lambda k: (Fraction(k), Fraction(1)))


def test_finite_example_five_thirds():
    assert eval_finite(_example_spec(), 3) == Fraction(5, 3)


def test_finite_depth_zero_returns_b0():
    assert eval_finite(_example_spec(), 0) == Fraction(1)


def test_finite_golden_convergent_is_fibonacci_ratio():
    golden = CFSpec(b0=Fraction(1), terms=lambda k: (Fraction(1), Fraction(1)))
    assert eval_finite(golden, 9) == Fraction(89, 55)


def test_finite_zero_denominator_reports_depth():
    # tail value at depth 1 is b1 + a2/b2 = 1 + 1/(-1) = 0
    spec = CFSpec(b0=Fraction(0), terms=lambda k: (Fraction(1), Fraction(1) if k == 1 else Fraction(-1)))
    with pytest.raises(ZeroDenominatorError) as err:
        eval_finite(spec, 2)
    assert err.value.depth == 1


@given(
    seeds=st.lists(st.tuples(st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=8),
    depth=st.integers(1, 60),
)
@settings(max_examples=40, deadline=None)
def test_backward_equals_forward_exactly(seeds, depth):
    def terms(k):
        a, b = seeds[(k - 1) % len(seeds)]
        return (Fraction(a), Fraction(b))

    spec = CFSpec(b0=Fraction(1), terms=terms)
    *_, (k, A, B) = convergents(spec, depth)
    assert k == depth
    assert eval_finite(spec, depth) == Fraction(A, B)


def test_backward_equals_forward_depth_200():
    spec = CFSpec(b0=Fraction(1), terms=lambda k: (Fraction(k), Fraction(1)))
    *_, (k, A, B) = convergents(spec, 200)
    assert eval_finite(spec, 200) == Fraction(A, B)


@given(seeds=st.lists(st.tuples(st.integers(1, 5), st.integers(1, 5)), min_size=1, max_size=6))
@settings(max_examples=30, deadline=None)
def test_determinant_identity(seeds):
    def terms(k):
        a, b = seeds[(k - 1) % len(seeds)]
        return (Fraction(a), Fraction(b))

    spec = CFSpec(b0=Fraction(2), terms=terms)
    prev_A, prev_B = spec.b0, Fraction(1)
    prod = Fraction(1)
    for k, A, B in convergents(spec, 50):
        prod *= terms(k)[0]
        assert A * prev_B - prev_A * B == (-1) ** (k - 1) * prod
        prev_A, prev_B = A, B


def test_golden_infinite(ctx):
    res = eval_infinite(CFSpec(b0=1, terms=lambda k: (1, 1)), ctx)
    assert res.status is CFStatus.CONVERGED
    assert abs(res.value - golden_phi(ctx)) < ctx.tol


def test_rr_cf_small_q_matches_product(ctx):
    q = ctx.real(Fraction(1, 100))
    res = rr_cf(q, ctx=ctx)
    assert res.status is CFStatus.CONVERGED
    assert agree_bits(res.value, R_product(q, ctx=ctx), ctx) >= ctx.bits - ctx.guard_bits


def test_cf2_value(ctx):
    def terms(k):
        return (1 if k == 1 else k - 1, 1)

    res = eval_infinite(CFSpec(b0=0, terms=terms), ctx)
    assert res.status is CFStatus.CONVERGED
    assert abs(res.value - ctx.mp.mpf(CF2_70)) < ctx.mp.mpf(10) ** -65


def test_rr_cf_at_one(ctx):
    res = rr_cf(1, ctx=ctx)
    assert res.status is CFStatus.CONVERGED
    assert abs(res.value - (ctx.mp.sqrt(5) - 1) / 2) < ctx.tol


def test_rr_cf_at_minus_one_real_odd(ctx):
    res = rr_cf(-1, RootMode.REAL_ODD, ctx)
    assert abs(res.value + golden_phi(ctx)) < ctx.tol


def test_rr_cf_at_exp_minus_2pi(ctx):
    q = ctx.mp.exp(-2 * ctx.mp.pi)
    closed = ctx.mp.sqrt((5 + ctx.mp.sqrt(5)) / 2) - golden_phi(ctx)
    res = rr_cf(q, ctx=ctx)
    assert abs(res.value - closed) < ctx.mp.mpf(10) ** -60


def test_rr_cf_domain_errors(ctx):
    with pytest.raises(DivergenceError):
        rr_cf(ctx.real(Fraction(3, 2)), ctx=ctx)
    with pytest.raises(ValueError):
        rr_cf(0, ctx=ctx)
    with pytest.raises(ValueError):
        rr_cf(ctx.mp.expjpi(ctx.mp.mpf(2) / 3), ctx=ctx)  # unimodular non-real


def test_max_iterations_status(ctx):
    small = PrecisionContext(256, 32, max_iter=50)
    res = rr_cf(small.real(Fraction(9, 10)), ctx=small)
    assert res.status is CFStatus.MAX_ITERATIONS
    assert res.iterations == 50
    with pytest.raises(ConvergenceError) as err:
        res.require("R continued fraction")
    assert (err.value.route, err.value.status, err.value.iterations) == (
        "R continued fraction", CFStatus.MAX_ITERATIONS, 50,
    )
    assert str(err.value) == "R continued fraction did not converge: max-iterations after 50 iterations"


def test_require_returns_converged_value(ctx):
    res = rr_cf(1, ctx=ctx)
    assert res.require("R continued fraction") is res.value


def test_bounded_loop_raises_at_the_cap():
    small = PrecisionContext(256, 32, max_iter=5)
    seen = []
    with pytest.raises(ConvergenceError) as err:
        for k in bounded("demo loop", small):
            seen.append(k)
    assert seen == [1, 2, 3, 4, 5]
    assert isinstance(err.value, RuntimeError)
    assert str(err.value) == "demo loop did not converge: max-iterations after 5 iterations"


def test_src_raises_no_bare_runtime_error():
    # non-convergence has one exception type, ConvergenceError
    src = Path(rrlab.__file__).parent
    offenders = [p.name for p in sorted(src.glob("*.py")) if "raise RuntimeError(" in p.read_text()]
    assert offenders == []


def test_legendre5_examples():
    assert legendre5(4) == 1
    assert legendre5(7) == -1
    assert legendre5(10) == 0
    assert [legendre5(n) for n in (1, 2, 3, 4)] == [1, -1, -1, 1]


def test_schur_classify_examples():
    assert schur_classify(5).diverges
    assert schur_classify(10).diverges
    c2 = schur_classify(2)
    assert (c2.lam, c2.rho, c2.exponent) == (-1, 2, -1)
    c3 = schur_classify(3)
    assert (c3.lam, c3.rho, c3.exponent) == (-1, 3, -2)
    c1 = schur_classify(1)
    assert (c1.lam, c1.rho, c1.exponent) == (1, 1, 0)


def test_schur_integrality_small_sweep():
    for n in range(1, 500):
        cls = schur_classify(n)
        if not cls.diverges:
            assert (cls.lam * cls.rho * n) % 5 == 1
            assert 1 <= cls.rho <= 4


def test_rr_at_root_of_unity_values(ctx):
    assert abs(rr_at_root_of_unity(1, 1, ctx) - (ctx.mp.sqrt(5) - 1) / 2) < ctx.tol
    assert abs(rr_at_root_of_unity(2, 1, ctx) + golden_phi(ctx)) < ctx.tol
    # n=3: lambda=-1, e=-2, q^(-2) = q, so R(omega) = phi * omega
    omega = ctx.mp.expjpi(ctx.mp.mpf(2) / 3)
    assert abs(rr_at_root_of_unity(3, 1, ctx) - golden_phi(ctx) * omega) < ctx.tol


def test_rr_at_root_of_unity_errors(ctx):
    with pytest.raises(DivergenceError):
        rr_at_root_of_unity(5, 1, ctx)
    with pytest.raises(ValueError):
        rr_at_root_of_unity(9, 3, ctx)  # j not coprime to n


def test_direct_root_of_unity_agrees_with_formula(ctx):
    for n, j in ((2, 1), (3, 1), (4, 1), (7, 3), (11, 4)):
        direct = rr_root_of_unity_direct(n, j, ctx)
        assert direct.status is CFStatus.CONVERGED
        formula = rr_at_root_of_unity(n, j, ctx)
        assert abs(direct.value - formula) < ctx.mp.mpf(10) ** -60


def test_divergence_is_decided_only_from_a_declared_period():
    # K(-1/1): convergents cycle through (-1, undefined, 0); the forward loop
    # never guesses divergence, the one-period product decides it
    small = PrecisionContext(256, 32, max_iter=200)
    res = eval_infinite(CFSpec(b0=0, terms=lambda k: (-1, 1)), small)
    assert (res.status, res.iterations, res.value) == (CFStatus.MAX_ITERATIONS, 200, None)
    res = eval_infinite(CFSpec(b0=0, terms=lambda k: (-1, 1), period=1), small)
    assert (res.status, res.iterations, res.value) == (CFStatus.DIVERGES, 1, None)


def test_cfstatus_members():
    assert [s.value for s in CFStatus] == ["converged", "max-iterations", "diverges"]


@pytest.mark.parametrize(
    "make_spec, q, bits, iterations",
    [
        pytest.param(cf2_spec, None, 256, 6864, id="cf2-256"),
        pytest.param(cf2_spec, None, 512, 29437, id="cf2-512"),
        pytest.param(rr_cfspec, Fraction(88, 100), 256, 51, id="R-88/100-256"),
    ],
)
def test_eval_infinite_iteration_counts(make_spec, q, bits, iterations):
    # the forward loop's stop rule, pinned exactly
    ctx = PrecisionContext(bits, 32)
    spec = make_spec() if q is None else make_spec(ctx.real(q))
    res = eval_infinite(spec, ctx)
    assert (res.status, res.iterations) == (CFStatus.CONVERGED, iterations)


def test_quintic_root_never_converges_quickly(ctx):
    res = eval_infinite(rr_root_of_unity_spec(5, 1), ctx)
    assert res.status is CFStatus.DIVERGES
    assert (res.iterations, res.value) == (5, None)


def test_root_of_unity_decision_matches_schur():
    # the period-product decision never consults schur_classify
    small = PrecisionContext(64, 16)
    for n in range(1, 41):
        for j in range(1, n + 1):
            if math.gcd(j, n) != 1:
                continue
            res = rr_root_of_unity_direct(n, j, small)
            assert (res.status is CFStatus.DIVERGES) == schur_classify(n).diverges, (n, j)
            assert res.iterations == n
            assert res.status in (CFStatus.DIVERGES, CFStatus.CONVERGED)


@pytest.mark.parametrize("n", [101, 199])
def test_root_of_unity_long_period_keeps_contract(n, ctx):
    # partial products grow to ~2^(n/4) here and cancel; the route restores the lost bits
    res = rr_root_of_unity_direct(n, 1, ctx)
    assert res.converged and res.iterations == n
    floor_bits = ctx.bits - ctx.guard_bits
    assert agree_bits(res.value, rr_at_root_of_unity(n, 1, ctx), ctx) >= floor_bits
    assert agree_bits(res.value, rr_root_of_unity_direct(n, 1, ctx.doubled()).value, ctx) >= floor_bits


@pytest.mark.parametrize("n", [0, -3])
def test_root_of_unity_rejects_nonpositive_n(n, ctx):
    for call in (lambda: rr_root_of_unity_direct(n, 1, ctx), lambda: rr_root_of_unity_spec(n)):
        with pytest.raises(ValueError, match="n must be a positive integer"):
            call()


@pytest.mark.parametrize(
    "terms, period, status, value",
    [
        (lambda k: (1, 1), 1, CFStatus.CONVERGED, "1/phi"),
        (lambda k: (1, 2), 1, CFStatus.CONVERGED, "sqrt2-1"),
        (lambda k: (0 if k % 3 == 2 else 1, 1), 3, CFStatus.CONVERGED, "1"),  # terminates
        (lambda k: (-1, 1), 1, CFStatus.DIVERGES, None),  # elliptic
        (lambda k: (2, 0) if k % 2 else (1, 1), 2, CFStatus.DIVERGES, None),  # limit at infinity
    ],
)
def test_periodic_spec_is_decided_from_one_period(terms, period, status, value, ctx):
    res = eval_infinite(CFSpec(b0=0, terms=terms, period=period), ctx)
    assert res.status is status and res.iterations == period
    if value is None:
        assert res.value is None
    else:
        mp = ctx.mp
        expected = {"1/phi": 1 / golden_phi(ctx), "sqrt2-1": mp.sqrt(2) - 1, "1": mp.mpf(1)}[value]
        assert agree_bits(res.value, expected, ctx) >= ctx.bits - ctx.guard_bits


def test_parabolic_period_falls_back_to_forward_recurrence():
    # K(-1/4 / 1) has the double fixed point -1/2; the forward loop runs as before
    small = PrecisionContext(256, 32, max_iter=50)
    res = eval_infinite(CFSpec(b0=0, terms=lambda k: (Fraction(-1, 4), 1), period=1), small)
    assert res.status is CFStatus.MAX_ITERATIONS and res.iterations == 50


@pytest.mark.parametrize(
    "spec",
    [
        CFSpec(b0=0, terms=lambda k: (0, 1)),
        CFSpec(b0=1, terms=lambda k: (-1 if k == 1 else 0, 1)),
    ],
)
def test_exactly_stationary_zero_limit_converges(spec, ctx):
    res = eval_infinite(spec, ctx)
    assert res.status is CFStatus.CONVERGED
    assert res.value == 0 and res.iterations == 3
