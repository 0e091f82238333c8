import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rrlab
from rrlab.cf import (
    CFSpec,
    CFStatus,
    ConvergenceError,
    DivergenceError,
    ZeroDenominatorError,
    bounded,
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
from rrlab.cf import BLOCK_STEPS, CFResult, _pair
from rrlab.identities import cf2_spec
from rrlab.numerics import PrecisionContext, RootMode, _fixed, agree_bits, certify, golden_phi
from rrlab.qseries import R_product

# sqrt(pi*e/2) - sum 1/(2n+1)!!, computed independently at 320 bits
CF2_70 = "0.6556795424187984715438712307308112833992823328704620280536861587342"


def _example_spec():
    # 1 + 1/1 + 2/1 + 3/1
    return CFSpec(b0=Fraction(1), terms=lambda k: (Fraction(k), Fraction(1)))


def convergents(spec: CFSpec, n: int):
    """Yield (k, A_k, B_k) for k = 1..n by the forward recurrence, no rescaling;
    exact on rational input."""
    a_prev, a_cur = 1, spec.b0
    b_prev, b_cur = 0, 1
    for k in range(1, n + 1):
        a_k, b_k = spec.terms(k)
        a_cur, a_prev = b_k * a_cur + a_k * a_prev, a_cur
        b_cur, b_prev = b_k * b_cur + a_k * b_prev, b_cur
        yield k, a_cur, b_cur


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
    res = rr_cf(-1, ctx, RootMode.REAL_ODD)
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
        pytest.param(cf2_spec, None, 1024, 121813, id="cf2-1024"),
        pytest.param(rr_cfspec, Fraction(88, 100), 256, 51, id="R-88/100-256"),
        pytest.param(rr_cfspec, Fraction(99999, 100000), 256, 172, id="R-99999/100000-256"),
    ],
)
def test_eval_infinite_iteration_counts(make_spec, q, bits, iterations):
    # the forward loop's stop rule, pinned exactly
    ctx = PrecisionContext(bits, 32)
    spec = make_spec() if q is None else make_spec(ctx.real(q))
    res = eval_infinite(spec, ctx)
    assert (res.status, res.iterations) == (CFStatus.CONVERGED, iterations)


def _exact(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


@pytest.mark.parametrize(
    "spec",
    [
        pytest.param(cf2_spec(), id="cf2"),
        pytest.param(rr_cfspec(Fraction(88, 100)), id="R-88/100"),
    ],
)
def test_eval_infinite_matches_exact_truncation(spec, ctx):
    # the integer recurrence against the backward recurrence in Fractions at the
    # depth it reports: only the rounding of the forward loop separates them
    res = eval_infinite(spec, ctx)
    assert res.converged
    exact = CFSpec(b0=Fraction(spec.b0), terms=lambda k: tuple(map(Fraction, spec.terms(k))))
    tol = Fraction(1, 2 ** (ctx.bits - ctx.guard_bits))
    assert abs(_exact(res.value) - eval_finite(exact, res.iterations)) < tol


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
    _, bits = certify(lambda c: rr_root_of_unity_direct(n, 1, c).value, ctx)
    assert bits >= floor_bits


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


def _ungated_eval_infinite(spec: CFSpec, ctx: PrecisionContext) -> CFResult:
    """The forward loop of eval_infinite before its determinant gate: every step
    divides and tests.  Its one change is that stop is at least 1 where the
    context asks for more bits than the width W holds (a guard of 1 bit and a
    small max_iter), where the loop raised on a negative shift count."""
    w, (a_cur,) = _fixed(ctx, "continued fraction", None, spec.b0)
    stop = 1 << max(w - ctx.stop_bits, 0)
    floor = 1 << (w - ctx.bits // 2)
    a_prev = b_cur = 1 << w
    b_prev = 0
    f1 = f2 = None
    for k in range(1, ctx.max_iter + 1):
        a_k, b_k = spec.terms(k)
        ma, sa = _pair(a_k, ctx)
        mb, sb = _pair(b_k, ctx)
        a_cur, a_prev = (mb * a_cur >> sb) + (ma * a_prev >> sa), a_cur
        b_cur, b_prev = (mb * b_cur >> sb) + (ma * b_prev >> sa), b_cur
        shift = max(a_cur.bit_length(), b_cur.bit_length()) - w
        if shift > 0:
            a_cur >>= shift
            a_prev >>= shift
            b_cur >>= shift
            b_prev >>= shift
        elif shift < 0 and (a_cur or b_cur):
            a_cur <<= -shift
            a_prev <<= -shift
            b_cur <<= -shift
            b_prev <<= -shift
        f = (a_cur << w) // b_cur if b_cur else None
        if f is not None and f1 is not None and f2 is not None:
            if (
                abs(f - f1) < stop
                and abs(f - f2) < stop
                and (abs(f) > floor or f == f1 == f2)
            ):
                return CFResult(ctx.mp.mpf((f, -w)), k, CFStatus.CONVERGED)
        f1, f2 = f, f1
    return CFResult(None, ctx.max_iter, CFStatus.MAX_ITERATIONS)


_terms = st.one_of(
    st.integers(-6, 6),
    st.fractions(-3, 3, max_denominator=12),
    st.floats(-3, 3, allow_nan=False).map(mpmath.mpf),
)
_tails = st.one_of(
    # K(a/b) with constant terms of either sign and real, distinct fixed points
    st.tuples(st.just("constant"), _terms, st.sampled_from([1, 2, 3, -2, -3, 5])).filter(
        lambda t: t[2] ** 2 + 4 * t[1] > 0
    ),
    # K((-1/4 + 1/n)/1): fixed points close together, slow convergence
    st.tuples(st.just("constant"), st.integers(5, 400).map(lambda n: Fraction(-1, 4) + Fraction(1, n)), st.just(1)),
    # a_k = r^(k-1), b_k = 1: the Rogers-Ramanujan shape
    st.tuples(st.just("geometric"), st.fractions(-1, 1, max_denominator=20), st.just(1)),
    # a_k = k - 1, b_k = 1: the slowly converging cf2 shape
    st.tuples(st.just("linear"), st.just(None), st.just(1)),
)


def _mixed_spec(b0, head, tail) -> CFSpec:
    """Free head terms (zeros, sign changes, any number type), then a tail."""
    kind, x, b = tail

    def terms(k: int):
        if k <= len(head):
            return head[k - 1]
        if kind == "constant":
            return (x, b)
        return (x ** (k - 1) if kind == "geometric" else k - 1, b)

    return CFSpec(b0=b0, terms=terms)


@given(
    b0=_terms,
    head=st.lists(st.tuples(_terms, _terms), max_size=6),
    tail=_tails,
    bits=st.sampled_from([64, 65, 96, 128, 200, 256, 512, 1024]),
    guard_bits=st.integers(1, 32),
    max_iter=st.one_of(st.integers(1, 40), st.integers(100, 3000)),
)
@example(b0=0, head=[(1, 1)], tail=("linear", None, 1), bits=256, guard_bits=32, max_iter=10**4)  # cf2
@example(b0=0, head=[], tail=("constant", Fraction(-265, 1076), 1), bits=200, guard_bits=30, max_iter=5000)
@example(b0=0, head=[], tail=("geometric", Fraction(1, 10), 1), bits=256, guard_bits=32, max_iter=100)
@example(b0=0, head=[(1, 0)], tail=("constant", 1, 2), bits=64, guard_bits=1, max_iter=60)
@example(b0=1, head=[(2, 1), (0, 1)], tail=("linear", None, 1), bits=128, guard_bits=5, max_iter=50)
@example(b0=0, head=[(1, 1), (-1, 1)], tail=("constant", Fraction(-1, 3), 1), bits=96, guard_bits=3, max_iter=300)
@settings(max_examples=300, deadline=None)
def test_gated_loop_matches_ungated_loop(b0, head, tail, bits, guard_bits, max_iter):
    # the determinant gate skips only tests that cannot pass: same status,
    # iteration count and value as the loop that divides and tests every step
    ctx = PrecisionContext(bits, guard_bits, max_iter)
    spec = _mixed_spec(b0, head, tail)
    got, want = eval_infinite(spec, ctx), _ungated_eval_infinite(spec, ctx)
    assert (got.status, got.iterations, got.value) == (want.status, want.iterations, want.value)


def test_one_guard_bit_and_few_iterations_converge():
    # W = 64 + 1 + 7 bits hold fewer than stop_bits = 75: convergence means
    # exactly stationary fixed-point convergents, no longer a negative shift
    ctx = PrecisionContext(64, 1, max_iter=100)
    res = rr_cf(ctx.real(Fraction(1, 2)), ctx=ctx)
    assert (res.status, res.iterations) == (CFStatus.CONVERGED, 14)
    assert abs(res.value - R_product(ctx.real(Fraction(1, 2)), ctx)) < ctx.tol


def _blocked_reference(spec: CFSpec, ctx: PrecisionContext) -> CFResult:
    """What eval_infinite must return for a spec declaring positive_ints: one
    exact step at a time, the stop test at every step, and the renormalising
    shift only after the steps that are multiples of BLOCK_STEPS, after which
    F_(k-1) and F_(k-2) are read from the shifted state."""
    w, (a_cur,) = _fixed(ctx, "continued fraction", None, spec.b0)
    stop = 1 << max(w - ctx.stop_bits, 0)
    floor = 1 << (w - ctx.bits // 2)
    a_prev = b_cur = 1 << w
    b_prev = a1 = b1 = a2 = b2 = 0
    for k in range(1, ctx.max_iter + 1):
        a_k, b_k = spec.terms(k)
        a_cur, a_prev = b_k * a_cur + a_k * a_prev, a_cur
        b_cur, b_prev = b_k * b_cur + a_k * b_prev, b_cur
        if b_cur and b1 and b2:
            f, f1, f2 = ((x << w) // y for x, y in ((a_cur, b_cur), (a1, b1), (a2, b2)))
            if abs(f - f1) < stop and abs(f - f2) < stop and (abs(f) > floor or f == f1 == f2):
                return CFResult(ctx.mp.mpf((f, -w)), k, CFStatus.CONVERGED)
        a2, b2, a1, b1 = a1, b1, a_cur, b_cur
        if k % BLOCK_STEPS == 0:
            shift = max(a_cur.bit_length(), b_cur.bit_length()) - w
            state = (a_cur, a_prev, b_cur, b_prev)
            a_cur, a_prev, b_cur, b_prev = (x >> shift if shift >= 0 else x << -shift for x in state)
            a1, b1, a2, b2 = a_cur, b_cur, a_prev, b_prev
    return CFResult(None, ctx.max_iter, CFStatus.MAX_ITERATIONS)


_positive = st.integers(1, 9)
_positive_tails = st.tuples(st.sampled_from(["constant", "linear", "quadratic"]), _positive, _positive)


def _positive_spec(b0, head, tail) -> CFSpec:
    """Positive int head terms, then a_k = c, c k or c k^2 with b_k = b."""
    kind, c, b = tail
    power = {"constant": 0, "linear": 1, "quadratic": 2}[kind]

    def terms(k: int):
        return head[k - 1] if k <= len(head) else (c * k**power, b)

    return CFSpec(b0=b0, terms=terms, positive_ints=True)


@given(
    b0=st.integers(0, 5),
    head=st.lists(st.tuples(_positive, _positive), max_size=6),
    tail=_positive_tails,
    bits=st.sampled_from([64, 65, 96, 128, 200, 256, 512]),
    guard_bits=st.integers(1, 32),
    max_iter=st.one_of(st.integers(1, 100), st.integers(100, 3000)),
)
@example(b0=0, head=[(1, 1)], tail=("linear", 1, 1), bits=256, guard_bits=32, max_iter=10**4)  # cf2 shifted
@example(b0=0, head=[(1, 1)], tail=("linear", 1, 1), bits=128, guard_bits=32, max_iter=2**11 + 5)
@example(b0=3, head=[], tail=("constant", 1, 1), bits=64, guard_bits=1, max_iter=60)
@example(b0=1, head=[(9, 1), (1, 9)], tail=("quadratic", 9, 1), bits=96, guard_bits=3, max_iter=33)
@settings(max_examples=300, deadline=None)
def test_blocked_loop_matches_reference_and_gated_loop(b0, head, tail, bits, guard_bits, max_iter):
    # the block test skips only stop tests that fail: the blocked loop returns
    # exactly what the step-by-step reference returns, and agrees to tol with
    # the same fraction undeclared, which runs the determinant-gated loop.
    # The second check needs guard_bits >= 6: the gated loop's own rounding
    # grows with |f| and, for limits of a few units, reaches tol with fewer
    # guard bits (seen up to 7 tol at guard_bits = 3, 0.5 tol at 5)
    ctx = PrecisionContext(bits, guard_bits, max_iter)
    spec = _positive_spec(b0, head, tail)
    got, want = eval_infinite(spec, ctx), _blocked_reference(spec, ctx)
    assert (got.status, got.iterations, got.value) == (want.status, want.iterations, want.value)
    plain = eval_infinite(replace(spec, positive_ints=False), ctx)
    if got.converged and plain.converged and guard_bits >= 6:
        assert abs(got.value - plain.value) < ctx.tol


def test_cf2_is_declared_and_matches_its_undeclared_twin():
    # the same count and value through the blocked and the gated loop; 6,864
    # is 16 steps into a block, so the last block is replayed
    ctx = PrecisionContext(256, 32)
    spec = cf2_spec()
    assert spec.positive_ints and 6864 % BLOCK_STEPS
    got, plain = eval_infinite(spec, ctx), eval_infinite(replace(spec, positive_ints=False), ctx)
    assert (got.status, got.iterations, got.value) == (plain.status, plain.iterations, plain.value)


@pytest.mark.parametrize("bad", [0, -2, Fraction(3), 2.0, True, mpmath.mpf(2)], ids=repr)
@pytest.mark.parametrize("side", [0, 1], ids=["a_k", "b_k"])
def test_declared_positive_ints_rejects_other_terms(bad, side, ctx):
    def terms(k):
        pair = [k, 1]
        if k == 40:
            pair[side] = bad
        return tuple(pair)

    with pytest.raises(ValueError, match=r"term k=40 is"):
        eval_infinite(CFSpec(b0=0, terms=terms, positive_ints=True), ctx)


@pytest.mark.parametrize("max_iter", [1, 2, 31, 32, 33, 6850, 6863])
def test_blocked_cap_inside_a_block_ends_max_iterations(max_iter):
    # cf2 converges at step 6,864 at 256 bits; a cap before it, in or at the
    # end of any block, ends max-iterations after exactly max_iter steps
    res = eval_infinite(cf2_spec(), PrecisionContext(256, 32, max_iter))
    assert (res.status, res.iterations, res.value) == (CFStatus.MAX_ITERATIONS, max_iter, None)
