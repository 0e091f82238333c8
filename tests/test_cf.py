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
    rr_value,
    schur_classify,
)
from rrlab.cf import BLOCK_STEPS, CFResult, _pair
from rrlab.identities import cf2_spec
from rrlab.numerics import Nome, PrecisionContext, RootMode, _fixed, agree_bits, certify, golden_phi, root
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


def test_finite_asks_each_term_once():
    asked = []

    def terms(k):
        asked.append(k)
        return Fraction(k), Fraction(1)

    assert eval_finite(CFSpec(b0=Fraction(1), terms=terms), 3) == Fraction(5, 3)
    assert sorted(asked) == [1, 2, 3]


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


def test_bounded_loop_starts_past_work_done_another_way():
    # a loop that did indices 1..3 another way takes 4 and 5, then exits at the
    # cap with the same count; a start past the cap exits at once
    small = PrecisionContext(256, 32, max_iter=5)
    seen = []
    with pytest.raises(ConvergenceError) as err:
        for k in bounded("demo loop", small, 4):
            seen.append(k)
    assert seen == [4, 5] and err.value.iterations == 5
    with pytest.raises(ConvergenceError, match="after 5 iterations"):
        next(bounded("demo loop", small, 7))


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
    spec = make_spec() if q is None else make_spec(q, ctx)
    res = eval_infinite(spec, ctx)
    assert (res.status, res.iterations) == (CFStatus.CONVERGED, iterations)


def _exact(x) -> Fraction:
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _exact_term(x) -> Fraction:
    """A term as a Fraction: an exact pair (m, s) as m * 2^-s."""
    return Fraction(x[0], 1 << x[1]) if type(x) is tuple else Fraction(x)


@pytest.mark.parametrize(
    "make_spec",
    [
        pytest.param(lambda c: cf2_spec(), id="cf2"),
        pytest.param(lambda c: rr_cfspec(Fraction(88, 100), c), id="R-88/100"),
    ],
)
def test_eval_infinite_matches_exact_truncation(make_spec, ctx):
    # the integer recurrence against the backward recurrence in Fractions at the
    # depth it reports: only the rounding of the forward loop separates them
    spec = make_spec(ctx)
    res = eval_infinite(spec, ctx)
    assert res.converged
    exact = CFSpec(b0=Fraction(spec.b0), terms=lambda k: tuple(map(_exact_term, spec.terms(k))))
    tol = Fraction(1, 2 ** (ctx.bits - ctx.guard_bits))
    assert abs(_exact(res.value) - eval_finite(exact, res.iterations)) < tol


def test_quintic_root_never_converges_quickly(ctx):
    res = eval_infinite(rr_cfspec(Nome.unit_root(1, 5), ctx), ctx)
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
    with pytest.raises(ValueError, match="n must be a positive integer"):
        rr_root_of_unity_direct(n, 1, ctx)


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


# -- R and S by the modular relation (rr_value) ----------------------------------

# rational q in [1/2, 1 - 10^-6] and exponential nomes from about 0.45 to
# 1 - 10^-4; every one takes the relation at 256 and 1024 bits
_RELATION_NOMES = [Nome.rational(Fraction(q)) for q in (
    "1/2", "3/5", "3/4", "9/10", "95/96", "999/1000", "99999/100000", "999999/1000000",
)] + [Nome.exp(Fraction(s)) for s in ("1/4", "1/8", "1/50", "1/20000")] + [
    Nome.exp_sqrt(Fraction(n)) for n in ("1/16", "1/64", "1/2500", "1/1000000000")
]


def _s_fraction(nome, c):
    """S(q) = -R(-q) by the fraction at -q, as a CFResult."""
    res = rr_cf(-c.number(nome), c, RootMode.REAL_ODD)
    return replace(res, value=-res.value)


def _relation_cases(nome):
    """(label, rr_value on a context, the fraction at q on one, the sign s with
    f(q) = s R(s q), or None for R at -q in the mode the label names)."""
    yield "R", lambda c: rr_value(nome, c), lambda c: rr_cf(nome, c), 1
    yield "S", lambda c: rr_value(nome, c, alternating=True), lambda c: _s_fraction(nome, c), -1
    if nome.form == "rational":
        for mode in RootMode:
            yield (f"R-{mode.value}", lambda c, m=mode: rr_value(-nome, c, m),
                   lambda c, m=mode: rr_cf(-nome, c, m), None)


def _qp_R(x, mp, mode=RootMode.REAL_ODD):
    """R(x) from mpmath's q-Pochhammer products alone, for real 0 < |x| < 1."""
    x5 = x**5
    ratio = mp.qp(x, x5) * mp.qp(x**4, x5) / (mp.qp(x**2, x5) * mp.qp(x**3, x5))
    if x < 0 and mode is RootMode.PRINCIPAL:
        return mp.root(mp.mpc(x), 5) * ratio
    return mp.sign(x) * mp.root(abs(x), 5) * ratio


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("nome", _RELATION_NOMES, ids=lambda n: f"{n.form}-{n.arg}")
def test_relation_route_agrees_with_fraction_and_mpmath(nome, bits):
    # each value agrees to bits - guard_bits with the fraction at q on twice the
    # width, and, where mpmath's products stop in a few hundred factors
    # (|q| <= 9/10), with them at twice the width; the fraction at the
    # transformed nome takes fewer than half the steps of the one at q
    ctx = PrecisionContext(bits, 32)
    wide = ctx.widened(bits)
    mp = wide.mp
    q = wide.number(nome)
    for label, route, fraction, sign in _relation_cases(nome):
        got = route(ctx)
        assert got.converged, label
        assert 2 * got.iterations < fraction(ctx).iterations, label
        assert ctx.passes(agree_bits(got.value, fraction(wide).value, ctx)), label
        if q <= mp.mpf(9) / 10:
            if sign is None:  # R at -q, in its mode
                mode = RootMode(label[2:])
                want = _qp_R(-q, mp, mode)
            else:
                want = sign * _qp_R(sign * q, mp)
            assert ctx.passes(agree_bits(got.value, want, ctx)), label


def test_relation_step_count_next_to_one():
    # at 1 - 10^-5 and 256 bits the fraction at q takes 172 steps (S: 345);
    # the transformed nome, about 2^-5,695,786 for R, takes the 3 of the stop test
    ctx = PrecisionContext(256, 32)
    q = Nome.rational(Fraction(99999, 100000))
    assert rr_cf(q, ctx).iterations == 172
    assert rr_cf(-q, ctx, RootMode.REAL_ODD).iterations == 345
    assert rr_value(q, ctx).iterations == 3
    assert rr_value(q, ctx, alternating=True).iterations == 3


@pytest.mark.parametrize("bits", [256, 512])
@pytest.mark.parametrize("nome", [
    Nome.rational(Fraction(1, 10)), Nome.rational(Fraction(-1, 10)), Nome.exp(2), Nome.exp_sqrt(3),
    Nome.rational(1), Nome.rational(-1),
], ids=lambda n: f"{n.form}-{n.arg}")
def test_fraction_stays_below_the_crossover(nome, bits):
    # the golden nomes, their doubled runs and q = +-1 take the fraction at q
    # itself: the same value and count as rr_cf
    ctx = PrecisionContext(bits, 32)
    for mode in RootMode:
        assert rr_value(nome, ctx, mode) == rr_cf(nome, ctx, mode)


# -- R's fraction on its exact routes: one period at q = +-1, W-bit terms ---------


# The forward loop's steps on the terms at q = 1 and q = -1, by width
_FORWARD_STEPS = {(1, 64): 34, (-1, 64): 69, (1, 256): 172, (-1, 256): 345, (1, 1024): 725, (-1, 1024): 1451}


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("case, q, mode, terms", [
    pytest.param("R(1)", 1, RootMode.PRINCIPAL, 1, id="R(1)"),
    pytest.param("R(-1)", -1, RootMode.PRINCIPAL, 2, id="R(-1)-principal"),
    pytest.param("R(-1)", -1, RootMode.REAL_ODD, 2, id="R(-1)-real-odd"),
    pytest.param("S(1)", -1, RootMode.REAL_ODD, 2, id="S(1)"),
])
def test_plus_minus_one_are_decided_from_one_period(case, q, mode, terms, bits):
    # q = 1 and q = -1 are the roots of unity of orders 1 and 2: one period's
    # product of 1 or 2 terms decides the fraction.  The oracle is the forward
    # loop on the same terms, and the reference the closed forms R(1) = 1/phi,
    # R(-1) = root(-1, 5) phi and S(1) = phi
    ctx = PrecisionContext(bits, 32)
    mp, phi = ctx.mp, golden_phi(ctx)
    sign = -1 if case == "S(1)" else 1
    res = rr_value(1, ctx, alternating=True) if case == "S(1)" else rr_cf(q, ctx, mode)
    assert (res.status, res.iterations) == (CFStatus.CONVERGED, terms)
    # the unit-root Nome of order 1 or 2 hands the same int terms and period as q itself
    plain, unit = rr_cfspec(q, ctx), rr_cfspec(Nome.unit_root(1, terms), ctx)
    heads = [[spec.terms(k) for k in range(1, 7)] for spec in (plain, unit)]
    assert plain.period == unit.period == terms and heads[0] == heads[1]
    assert all(type(a) is int and type(b) is int for a, b in heads[1])
    forward = eval_infinite(replace(unit, period=None), ctx)
    assert (forward.status, forward.iterations) == (CFStatus.CONVERGED, _FORWARD_STEPS[q, bits])
    oracle = sign * root(q, 5, mode, ctx) * forward.value
    closed = phi * (mp.expjpi(mp.mpf(1) / 5) if mode is RootMode.PRINCIPAL else -1) if q == -1 else 1 / phi
    for want in (oracle, sign * closed):
        assert ctx.passes(agree_bits(res.value, want, ctx)), want


# The forward loop's steps for R at 32 guard bits on 15 nomes and four widths,
# as they were when the terms entered the loop as mpf values rounded to bits
_STEP_NOMES = [Nome.rational(Fraction(x)) for x in (
    "1/10", "1/2", "88/100", "99/100", "999/1000", "99999/100000", "-1/10", "-1/2", "-99/100", "-999/1000",
)] + [Nome.exp(Fraction(s)) for s in ("1", "1/10", "1/100")] + [Nome.exp_sqrt(Fraction(n)) for n in ("3", "1/100")]
_STEPS = {
    64: [7, 11, 21, 32, 34, 34, 7, 11, 53, 67, 6, 15, 28, 5, 15],
    256: [14, 24, 51, 128, 166, 172, 14, 24, 165, 301, 12, 34, 91, 10, 34],
    512: [19, 33, 74, 217, 330, 356, 19, 33, 250, 551, 17, 48, 140, 13, 48],
    1024: [27, 47, 106, 339, 627, 724, 27, 47, 366, 937, 23, 68, 206, 18, 68],
}


@pytest.mark.parametrize("bits", sorted(_STEPS))
def test_wide_terms_keep_the_step_counts(bits):
    ctx = PrecisionContext(bits, 32)
    assert [rr_cf(nome, ctx).iterations for nome in _STEP_NOMES] == _STEPS[bits]


@pytest.mark.parametrize("bits", [64, 256, 1024])
@pytest.mark.parametrize("nome", [
    Nome.rational(Fraction(1, 10)), Nome.rational(Fraction(1, 2)), Nome.rational(Fraction(-1, 2)),
    Nome.rational(Fraction(-3, 4)), Nome.exp(1), Nome.exp(Fraction(1, 4)), Nome.exp_sqrt(3),
    Nome.exp_sqrt(Fraction(1, 4)),
], ids=lambda n: f"{n.form}-{n.arg}")
def test_wide_terms_match_mpmath(nome, bits):
    # the nome reaches the loop at width W, and its powers are W-bit floors:
    # R against mpmath's q-Pochhammer products at twice the bits, in both modes
    ctx = PrecisionContext(bits, 32)
    mp = mpmath.mp
    with mp.workprec(2 * bits):
        q = mp.mpf(nome._mpmath_(2 * bits, "n"))
        for mode in RootMode:
            want = _qp_R(q, mp, mode)
            assert ctx.passes(agree_bits(rr_cf(nome, ctx, mode).value, want, ctx)), mode


def test_pair_passes_an_exact_pair_through(ctx):
    term = (3 << 70, 72)
    assert _pair(term, ctx) is term
    # q^1 at width W: Fraction(1, 3) read exactly and floored
    (ma, sa), b = rr_cfspec(Fraction(1, 3), ctx).terms(2)
    w, _ = _fixed(ctx, "width", None)
    assert (sa, b) == (w, 1) and ma == (1 << w) // 3
