import functools
import math
from fractions import Fraction
from itertools import accumulate
from operator import add

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab import cf, numerics, qseries
from rrlab.cf import eval_finite, rr_cf, CFSpec
from rrlab.numerics import Nome, PrecisionContext, RootMode, agree_bits, certify, golden_phi, root
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
from rrlab.formal import theta_series
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


@pytest.mark.parametrize("qf", ["9999/10000", "19999/20000"])
def test_R_product_route_earns_its_bits(monkeypatch, qf):
    # near q = 1 the quotient takes the transformed sums, one term each, and
    # R earns bits - guard_bits against the fraction at twice the bits
    ctx, big = PrecisionContext(256, 8), PrecisionContext(512, 8)
    counted, _ = _count_and_predict(monkeypatch)
    calls = []
    monkeypatch.setattr(qseries, "_jacobi_sum", lambda *args: calls.append(args))
    value = R_product(Nome.rational(qf), ctx)
    assert (calls, counted) == ([], [1, 1])
    assert agree_bits(value, rr_cf(Nome.rational(qf), big).value, ctx) >= ctx.bits - ctx.guard_bits


@pytest.mark.parametrize(
    "fn, nome, seen",
    [
        (R_product, Nome.exp(1), lambda got, nome: got is nome),
        (theta_phi, Nome.rational("-1/2"), lambda got, nome: got == -nome),
    ],
    ids=["R_product", "theta_phi"],
)
def test_a_nome_reaches_the_theta_quotient_whole(monkeypatch, ctx, fn, nome, seen):
    # the sums convert a Nome at their own width, wider than ctx.bits
    received = []

    def spy(q, c, name):
        received.append(q)
        return _theta_quotient(q, c, name)

    monkeypatch.setattr(qseries, "_theta_quotient", spy)
    fn(nome, ctx)
    assert len(received) == 1 and isinstance(received[0], Nome) and seen(received[0], nome)


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


def quotient_finite_sum(n: int, a, q, extra: int):
    """The finite forms as quotients of finite q-Pochhammer symbols,
    sum_k a^k q^(k^2 + extra*k) (q;q)_(m-k) / ((q;q)_k (q;q)_(m-2k)), m = n+1-extra,
    in Fraction arithmetic; it divides by (q;q)_j, so it needs |q| != 1."""
    m = n + 1 - extra
    qq = [pochhammer(q, q, j) for j in range(m + 1)]
    return sum(a**k * q ** (k * (k + extra)) * qq[m - k] / (qq[k] * qq[m - 2 * k]) for k in range(m // 2 + 1))


_RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=12)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 20), _RATIONALS, _RATIONALS.filter(lambda q: abs(q) != 1))
def test_finite_forms_are_the_pochhammer_quotients(n, a, q):
    assert finite_mu(n, a, q) == quotient_finite_sum(n, a, q, 0)
    assert finite_nu(n, a, q) == quotient_finite_sum(n, a, q, 1)


def test_finite_forms_at_q_one_are_fibonacci():
    fib = [0, 1]
    while len(fib) < 30:
        fib.append(fib[-1] + fib[-2])
    for n in range(25):
        assert (finite_mu(n, 1, 1), finite_nu(n, 1, 1)) == (fib[n + 2], fib[n + 1])


@pytest.mark.parametrize("q", [Fraction(1), Fraction(-1)])
@pytest.mark.parametrize("a", [Fraction(1, 2), Fraction(-3, 2), Fraction(2)])
def test_finite_forms_at_unit_q_match_the_fraction(a, q):
    spec = CFSpec(b0=Fraction(1), terms=lambda k: (a * q**k, Fraction(1)))
    for n in range(13):
        assert finite_mu(n, a, q) / finite_nu(n, a, q) == eval_finite(spec, n)


def test_finite_forms_take_exact_rationals_only(ctx):
    half = ctx.mp.mpf(0.5)
    for a, q in ((half, Fraction(1, 2)), (Fraction(1), half), (1, 0.5)):
        for form in (finite_mu, finite_nu):
            with pytest.raises(TypeError):
                form(3, a, q)


def test_series_G_sum_vs_product_order_60():
    assert series_G(60).first_mismatch(series_G(60, side="product"), 60) is None
    assert series_H(60).first_mismatch(series_H(60, side="product"), 60) is None


def test_series_sum_vs_product_every_low_order():
    # the sum side's Horner step n keeps acc_n only through order - (n-1)^2
    # (- (n-1) for H); orders 1..60 put that cut on each side of n^2 and
    # n^2 + n for n <= 7
    for order in range(1, 61):
        for series in (series_G, series_H):
            assert series(order).coeffs == series(order, side="product").coeffs
            assert series(order).order == order


def _two_pass_sum(order: int, extra: int) -> tuple:
    """sum_n q^(n^2 + extra n) / (q;q)_n through q^order as (coeffs, offset,
    order), the reference on two lists: 1/(q;q)_n kept through order - n^2 -
    extra n by prefix sums mod n, then added into the total at q^(n^2 + extra n)."""
    acc = [1] + [0] * order
    inv = [1] + [0] * order
    n = 1
    while (shift := n * n + extra * n) <= order:
        top = order - shift + 1
        for r in range(n):
            inv[r:top:n] = accumulate(inv[r:top:n])
        acc[shift:] = map(add, acc[shift:], inv[:top])
        n += 1
    return acc, 0, order


@pytest.mark.parametrize("extra, series", [(0, series_G), (1, series_H)], ids=["G", "H"])
def test_horner_sum_equals_the_two_pass_loop(extra, series):
    for order in [*range(1, 301), 997, 2003, 5000]:
        s = series(order)
        assert (s.coeffs, s.offset, s.order) == _two_pass_sum(order, extra), order


def _partition_numbers(order: int) -> list:
    """p(0..order) by Euler's pentagonal recurrence."""
    p = [1] + [0] * order
    for m in range(1, order + 1):
        k = 1
        while (g := k * (3 * k - 1) // 2) <= m:
            sign = 1 if k % 2 else -1
            p[m] += sign * p[m - g]
            if g + k <= m:
                p[m] += sign * p[m - g - k]
            k += 1
    return p


@pytest.mark.parametrize("b, series", [(1, series_G), (3, series_H)], ids=["G", "H"])
def test_sum_side_is_theta_over_euler(b, series):
    # Jacobi triple product: G = S_(5,1) / (q;q)_inf and H = S_(5,3) / (q;q)_inf,
    # with 1/(q;q)_inf = sum p(n) q^n; no loop shared with the sum side
    order = 2000
    p = _partition_numbers(order)
    theta = [(k, c) for k, c in enumerate(theta_series(5, b, order).coeffs) if c]
    want = [sum(c * p[m - k] for k, c in theta if k <= m) for m in range(order + 1)]
    assert series(order).coeffs == want


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
            (theta_phi, "99/100", 128),  # the direct sum, below the crossover near 0.997
        )
    ],
)
def test_kernel_term_counts(monkeypatch, ctx, kernel, q, terms):
    # the last index cf.bounded yields pins each stop rule exactly (a head's
    # indices are skipped, not yielded)
    counted = []
    bounded = cf.bounded

    def counting(route, ctx, start=1):
        for k in bounded(route, ctx, start):
            counted.append(k)
            yield k

    monkeypatch.setattr(cf, "bounded", counting)
    kernel(ctx.real(q), ctx)
    assert counted[-1] == terms


# -- the product head of the Euler sums -------------------------------------------


def _loop_from_zero(q, ctx, first, step, den):
    """The Euler-sum loop of qseries._rr_sum without its product head, as it ran
    before the head existed: (value, radius, terms) for 0 <= q < 1."""
    w, (x,) = numerics._fixed(ctx, "loop from 0", q)
    one = 1 << w
    xstep, xden = qseries._power(x, step, w), qseries._power(x, den, w)
    qn, lead = xden, qseries._power(x, first, w)
    term = total = unit = one
    exp = -w
    for n in range(1, ctx.max_iter + 1):
        term = term * lead // (one - qn)
        total += term
        qn = qn * xden >> w
        lead = lead * xstep >> w
        gap = one - qn - lead
        if gap > 0 and term * lead << ctx.stop_bits <= max(total, unit) * gap:
            break
        shift = max(term.bit_length(), total.bit_length()) - w
        if shift > 0:
            term >>= shift
            total >>= shift
            unit = max(unit >> shift, 1)
            exp += shift
    a = first + step * n
    d = one - qn - den * (n + 1)
    rate = numerics._nome_units(x, w)
    c = -(-(n * (n + 1) * (den + first + step) << w) // d) + 2 * n * (n + 4)
    bound = -(-total * one // (one - c))
    rounding = -(-c * bound >> w)
    tail = -(-(term + rounding) * (lead + a) // (d - lead - a))
    ball = numerics._ball(ctx, total, exp, rounding + tail + -(-rate * (bound + tail) >> w))
    return ball.mid, ball.rad, n


def _count_heads(monkeypatch):
    """Lists that collect the indices cf.bounded yields and the head lengths the rule picks."""
    counted, heads = [], []
    bounded, rule = cf.bounded, qseries._head_length

    def counting(route, ctx, start=1):
        for k in bounded(route, ctx, start):
            counted.append(k)
            yield k

    def recording(*args):
        heads.append(rule(*args))
        return heads[-1]

    monkeypatch.setattr(cf, "bounded", counting)
    monkeypatch.setattr(qseries, "_head_length", recording)
    return counted, heads


@pytest.mark.parametrize("kernel, q, terms, least", [
    (G, "9999/10000", 5768, 3500),
    (H, "9999/10000", 5768, 3500),
    (G, "99999/100000", 51110, 44000),
    (H, "99999/100000", 51109, 44000),
])
def test_the_head_takes_most_indices_near_one(monkeypatch, ctx, kernel, q, terms, least):
    # the head's factors are indices of the one count, which keeps the stop
    # index; the loop takes them at once and yields only the indices after them
    counted, heads = _count_heads(monkeypatch)
    kernel(Nome.rational(q), ctx)
    assert heads[0] >= least and counted == list(range(heads[0] + 1, terms + 1))


@pytest.mark.parametrize("q", ["1/2", "88/100", "99/100", "-99/100"])
def test_no_head_away_from_one(monkeypatch, ctx, q):
    # G(0.99) is about 2^94: no term lies far enough below the peak
    counted, heads = _count_heads(monkeypatch)
    G(Nome.rational(q), ctx)
    assert heads == ([0] if q[0] != "-" else [])


def _formed_heads(monkeypatch):
    """A list that collects the name of each head ``_rr_sum`` forms."""
    formed = []
    for name in ("_eta_head", "_product_head"):
        head = getattr(qseries, name)
        monkeypatch.setattr(qseries, name, lambda *args, _h=head, _n=name: formed.append(_n) or _h(*args))
    return formed


_KERNELS = [(1, 2, 1), (2, 2, 1), (1, 2, 2), (1, 1, 1)]


@pytest.mark.parametrize("first, step, den", _KERNELS)
@pytest.mark.parametrize("q, bits, guard, eta", [
    ("999/1000", 256, 32, []), ("9999/10000", 256, 32, _KERNELS), ("99999/100000", 256, 32, _KERNELS),
    ("9999/10000", 1024, 32, [(1, 1, 1)]),  # n0 = 4,265 pays for the series, 1,580 to 2,829 do not
    ("9999/10000", 256, 1, _KERNELS), ("999/1000", 64, 1, []),  # where rounding nears the tail
])
def test_head_lies_within_the_radii_of_the_loop_from_zero(monkeypatch, q, bits, guard, eta, first, step, den):
    ctx = PrecisionContext(bits, guard)
    nome = Nome.rational(q)
    counted, heads = _count_heads(monkeypatch)
    formed = _formed_heads(monkeypatch)
    ball = qseries._rr_sum(nome, ctx, "head", first, step, den)
    value, radius = ball.mid, ball.rad
    old, old_radius, terms = _loop_from_zero(nome, ctx, first, step, den)
    # the rule's side: the eta series from 1 - 1e-4 on at 256 bits, the product loop at 1 - 1e-3
    assert formed == ["_eta_head" if (first, step, den) in eta else "_product_head"]
    assert heads[0] > 0 and counted == list(range(heads[0] + 1, terms + 1))  # the head held, and the count stays
    mp = ctx.mp
    assert abs(mp.fsub(value, old, exact=True)) <= mp.fadd(radius, old_radius, exact=True)
    # the head costs the proof no bit
    one = mp.one
    assert numerics._bits(radius, max(value, one), ctx) == numerics._bits(old_radius, max(old, one), ctx)


def _exact(head):
    return Fraction(head[0]) * Fraction(2) ** head[1]


@pytest.mark.parametrize("first, step, den", _KERNELS)
@pytest.mark.parametrize("q", ["9999/10000", "99999/100000"])
@pytest.mark.parametrize("bits", [256, 1024])
def test_eta_head_agrees_with_the_product_head(monkeypatch, bits, q, first, step, den):
    # the same t_(n0) two ways, at the n0 the sum picks: within the sum of their
    # units of each other, and within its own units of the product head run
    # 64 bits wider on the same q, with the same rise proof
    ctx = PrecisionContext(bits, 32)
    nome = Nome.rational(q)
    _, heads = _count_heads(monkeypatch)
    qseries._rr_sum(nome, ctx, "head", first, step, den)
    w, (x,) = numerics._fixed(ctx, "head", nome)
    n0 = heads[0]
    eta = qseries._eta_head(x, w, n0, first, step, den)
    product = qseries._product_head(x, w, n0, first, step, den)
    wide = qseries._product_head(x << 64, w + 64, n0, first, step, den)
    t, p, r = map(_exact, (eta, product, wide))
    assert eta[0].bit_length() == w and eta[2] < 16
    assert abs(t - p) <= (eta[2] + product[2]) * max(t, p) / 2**w
    assert abs(t - r) <= (eta[2] << 64) * r / 2 ** (w + 64) * (1 + Fraction(1, 2**32)) + wide[2] * r / 2 ** (w + 63)
    assert eta[3:] == (qseries._power(x, den * (n0 + 1), w), qseries._power(x, first + step * n0, w))


@pytest.mark.parametrize("past", [10, -2])
def test_a_head_that_is_not_proven_runs_from_zero(monkeypatch, ctx, past):
    # n0 forced past the peak fails the rising check at once; n0 two terms before
    # it rises, but leaves out more than the tail bound.  Either way the sum runs
    # again from n0 = 0 and returns what the loop from 0 returns.
    nome = Nome.rational("9999/10000")
    counted, _ = _count_heads(monkeypatch)
    monkeypatch.setattr(qseries, "_head_length", lambda *args: 0)
    plain = qseries._rr_sum(nome, ctx, "head", 1, 2, 1)
    assert (plain.mid, plain.rad, len(counted)) == _loop_from_zero(nome, ctx, 1, 2, 1)
    counted.clear()
    peaks = []
    monkeypatch.setattr(qseries, "_head_length", lambda *args: peaks.append(args[4]) or args[4] + past)
    assert qseries._rr_sum(nome, ctx, "head", 1, 2, 1) == plain
    assert counted[-5768:] == list(range(1, 5769))  # the run from 0, after
    if past > 0:
        assert len(counted) == 5768  # the head failed before its loop took an index
    else:
        assert counted[0] == peaks[0] + past + 1 and len(counted) > 5768  # a run after the head, then a check failed


# -- the gate of the Euler sums' loop -------------------------------------------


def _per_step_sum(q, ctx, first, step, den, widen=True):
    """qseries._rr_sum as it ran before its loop had a gate, testing the stop
    rule at every step: (stop index, total, exponent, radius), the last three
    as ``_rr_sum`` hands them to ``numerics._ball``."""
    w, (x,) = numerics._fixed(ctx, "per step", q)
    one = 1 << w
    stop = ctx.stop_bits
    xstep, xden = qseries._power(x, step, w), qseries._power(x, den, w)
    head = 0
    if x:
        decay = qseries._decay(x, one)

        def blocked(n):
            return math.exp(-decay * den * (n + 1)) + math.exp(-decay * (first + step * n)) >= 1

        lo, hi = 0, 1
        while blocked(hi):
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if blocked(mid) else (lo, mid)
        if x > 0:
            head = qseries._head_length(decay, first, step, den, hi, stop)
    form_head = qseries._eta_head if head and qseries._eta_pays(decay, w, head, first, step, den) else qseries._product_head
    for n0 in (head, 0) if head else (0,):
        qn, lead = xden, qseries._power(x, first, w)
        term = top = unit = one
        exp, units = -w, 0
        if n0:
            start = form_head(x, w, n0, first, step, den)
            if start is None:
                continue
            term, exp, units, qn, lead = start
            unit = 1 << max(-exp, 0)
        total = term
        for n in range(n0 + 1, ctx.max_iter + 1):
            term = term * lead // (one - qn)
            total += term
            if x < 0 and abs(term) > top:
                top = abs(term)
            qn = qn * xden >> w
            lead = lead * xstep >> w
            gap = one - abs(qn) - abs(lead)
            if gap > 0 and abs(term) * abs(lead) << stop <= max(abs(total), unit) * gap:
                break
            shift = max(term.bit_length(), total.bit_length()) - w
            if shift > 0:
                term >>= shift
                total >>= shift
                top >>= shift
                unit = max(unit >> shift, 1)
                exp += shift
        if x < 0:
            lost = qseries._lost_bits(top, total)
            if widen and lost > ctx.guard_bits:
                return _per_step_sum(q, ctx.widened(math.ceil(lost)), first, step, den, widen=False)
            return n, total, exp, None
        a = first + step * n
        d = one - qn - den * (n + 1)
        rate = numerics._nome_units(x, w)
        radius = None
        if d > lead + a and rate is not None:
            c = -(-(n * (n + 1) * (den + first + step) << w) // d) + 2 * n * (n + 4) + units
            if 2 * c <= one:
                bound = -(-total * one // (one - c))
                rounding = -(-c * bound >> w)
                tail = -(-(term + rounding) * (lead + a) // (d - lead - a))
                skipped = -(-(n0 * start[0] * (one + 2 * units)) >> w + exp - start[1]) if n0 else 0
                if skipped <= tail:
                    radius = rounding + tail + skipped + -(-rate * (bound + tail + skipped) >> w)
        if radius is not None or not n0:
            return n, total, exp, radius


@functools.lru_cache(maxsize=None)
def _per_step_row(q, bits, guard, kernel):
    return _per_step_sum(Nome.rational(q), PrecisionContext(bits, guard), *kernel)


def _gate_points():
    signed = ["1/10", "-1/10", "1/2", "-1/2", "9/10", "-9/10"]
    for bits in (64, 256, 1024, 4096):
        for q in signed + ([] if bits == 4096 else ["-999/1000", "999/1000", "9999/10000", "99999/100000"]):
            for guard in (1, 2, 32):
                for kernel in _KERNELS:
                    yield pytest.param(q, bits, guard, kernel, id=f"{q}-{bits}-{guard}-{''.join(map(str, kernel))}")


@pytest.mark.parametrize("q, bits, guard, kernel", _gate_points())
def test_the_gate_keeps_the_per_step_loop(monkeypatch, q, bits, guard, kernel):
    # the gated loop against the loop that tests every step: the same stop
    # index, total, exponent and radius, with the gate as it runs and with it
    # tried after every step, where its windows end as close to the stop as
    # its proof allows
    seen, counted = [], []
    ball, bounded = numerics._ball, cf.bounded
    monkeypatch.setattr(qseries, "_ball", lambda ctx, *args: seen.append(args) or ball(ctx, *args))
    monkeypatch.setattr(cf, "bounded", lambda *args: (counted.append(k) or k for k in bounded(*args)))
    for block in (cf.BLOCK_STEPS, 1):
        monkeypatch.setattr(cf, "BLOCK_STEPS", block)
        seen.clear()
        qseries._rr_sum(Nome.rational(q), PrecisionContext(bits, guard), "gate", *kernel)
        assert (counted[-1], *seen[-1]) == _per_step_row(q, bits, guard, kernel)


@given(st.integers(1, 2**64 - 1), st.integers(1, 2000))
@settings(max_examples=100, deadline=None)
def test_powers_stay_within_their_units(x, k):
    # x^k at scale 2^64: the fixed-point power within k - 1 units, the
    # mantissa-exponent power below it by less than 2(k - 1) units relatively
    w = 64
    exact = Fraction(x, 1 << w) ** k
    assert 0 <= exact * (1 << w) - qseries._power(x, k, w) <= k - 1
    man, exp = qseries._scaled_power(x, k, w)
    assert man.bit_length() == w
    got = Fraction(man) * Fraction(2) ** exp
    assert 0 <= (exact - got) / exact * (1 << w) <= 2 * (k - 1)


def test_negative_nomes_measure_what_they_cancel(monkeypatch, ctx):
    # G and H alternate at q < 0, and from -9/10 on their largest term is not
    # t_0 = 1, but down to -999/1000 it is at most half a bit above the total,
    # so nothing is summed again
    seen, counted = [], []
    lost, bounded = qseries._lost_bits, cf.bounded
    monkeypatch.setattr(qseries, "_lost_bits", lambda top, total: seen.append(lost(top, total)) or seen[-1])
    monkeypatch.setattr(cf, "bounded", lambda route, c, *start: counted.append(c.bits) or bounded(route, c, *start))
    for q in ("-1/2", "-9/10", "-99/100", "-999/1000"):
        for kernel in (G, H):
            kernel(Nome.rational(q), ctx)
    assert seen == pytest.approx([0.473, -0.240, -0.460, -1.489, -2.115, -3.160, -3.768, -4.809], abs=1e-3)
    assert set(counted) == {256}


def test_a_sum_that_cancels_is_summed_again_wider(monkeypatch, ctx):
    nome = Nome.rational("-99/100")
    plain = G(nome, ctx)
    counted = []
    bounded = cf.bounded
    monkeypatch.setattr(qseries, "_lost_bits", lambda top, total: 40.5)
    monkeypatch.setattr(cf, "bounded", lambda route, c, *start: counted.append(c.bits) or bounded(route, c, *start))
    value = G(nome, ctx)
    assert counted == [256, 320]  # widened by 41 bits, rounded up to a multiple of 32
    assert value.context is ctx.mp and agree_bits(value, plain, ctx) >= ctx.bits - ctx.guard_bits


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

    def counting(route, ctx, start=1):
        for k in bounded(route, ctx, start):
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
                assert predicted[0] <= max_iter == exc.iterations and counted[-1:] in ([max_iter], []), q
            else:
                assert (exc.iterations, counted) == (0, []) and exc.needed == predicted[0] > max_iter
            continue
        assert len(predicted) == 1 and 1 <= predicted[0] <= counted[-1], q


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


def _sparse(q, ctx, route, parts, loss):
    """``_jacobi_sum`` at q, converted as the kernels convert it."""
    w, (x,) = numerics._fixed(ctx, route, q)
    return _jacobi_sum(x, w, ctx, route, parts, loss)


def _theta(q, ctx, a, b):
    return _sparse(q, ctx, "theta sum", ((a, b, None),), math.pi**2 / (2 * a))


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
    # phi against jtheta (at -999/1000, where jtheta returns a negative number,
    # against E(p) chi(-p), p = -q: Jacobi's E^3 series and an Euler sum, since
    # the theta_2 transformation is phi's route there), the direct sums of
    # theta_G, theta_H and E against pochhammer_inf, and the factorization
    # denominator against the old factor loop
    ctx = PrecisionContext(bits, 32)
    mp = PrecisionContext(bits + 64, 32).mp
    want = ctx.bits - ctx.guard_bits
    qv = ctx.real(q)

    def rel(x, ref):
        return agree_bits(x / ref, 1, ctx)

    euler = _theta_quotient(qv, ctx, "E").mid
    exact = mp.mpf(qv)
    near = abs(q) == Fraction(999, 1000)
    assert rel(euler, mp.cbrt(_cancelling(mp, exact, _jacobi_cube)) if near else mp.qp(exact)) >= want
    if near and q < 0:
        phi = mp.cbrt(_cancelling(mp, -exact, _jacobi_cube)) * chi(qv, ctx)
    else:
        phi = mp.jtheta(3, 0, exact)
    assert rel(theta_phi(qv, ctx), phi) >= want
    if not _product_references_run(q, bits):
        return
    q5 = qv**5
    e5 = pochhammer_inf(q5, q5, ctx)
    assert rel(_theta(qv, ctx, 3, 1), pochhammer_inf(qv, qv, ctx)) >= want
    assert rel(_theta(qv, ctx, 5, 1), e5 * pochhammer_inf(qv**2, q5, ctx) * pochhammer_inf(qv**3, q5, ctx)) >= want
    assert rel(_theta(qv, ctx, 5, 3), e5 * pochhammer_inf(qv, q5, ctx) * pochhammer_inf(qv**4, q5, ctx)) >= want
    both = 1
    for sign in (-1, 1):
        denominator = _factorization_denominator(sign, qv, ctx)
        assert rel(denominator, _factor_loop((1 + sign * ctx.mp.sqrt(5)) / 2, qv, ctx)) >= want
        both *= denominator
    # (1 + g1 x + x^2)(1 + g2 x + x^2) = (1 - x^5)/(1 - x)
    assert rel(both, e5 / pochhammer_inf(qv, qv, ctx)) >= want


@pytest.mark.parametrize(
    "name, q, terms",
    [
        ("R", "1/2", 21),
        ("R", "24/25", 88),
        ("R", "999/1000", 2),
        ("R", "-999/1000", 1358),
        ("G", "9/10", 61),
        ("G", "99/100", 2),
        ("E", "1/2", 13),
        ("E", "999/1000", 1),
        ("E", "9995/10000", 1),
        ("phi-", "9/10", 43),
        ("phi-", "999/1000", 1),
        ("phi+", "999/1000", 2),
        ("phi+", "99999/100000", 2),
    ],
)
def test_sparse_term_counts(monkeypatch, ctx, name, q, terms):
    # every term of both sums of a quotient, at 256 bits, pins the stop rules and
    # the guard: the direct sums up to about q = 0.95, the transformed ones above
    counted, _ = _count_and_predict(monkeypatch)
    _theta_quotient(ctx.real(Fraction(q)), ctx, name)
    assert len(counted) == terms


def test_theta_phi_near_one_takes_one_term_a_sum(monkeypatch, ctx):
    # at 1 - 1e-5 and 256 bits phi takes the transformed sums: S_(4,0), squared,
    # and S_(2,0), one term each, where its direct sum takes 4,084
    counted, _ = _count_and_predict(monkeypatch)
    theta_phi(ctx.real(Fraction(99999, 100000)), ctx)
    assert counted == [1, 1]


@pytest.mark.parametrize("q, route", [
    ("24/25", "direct"), ("39/40", "transformed"), ("9999/10000", "transformed"), ("-9999/10000", "direct"),
])
def test_cost_rule_picks_the_route(ctx, q, route):
    # at 256 bits R's direct sums cost less at 0.96 and its transformed sums at
    # 0.975 and above; at q < 0 the sums are direct.  The quotient is the named route's
    nome = ctx.real(Fraction(q))
    w, (x,) = numerics._fixed(ctx, "R theta sum", nome)
    assert qseries._quotient_route(x, w, ctx, qseries._THETA_ROUTES["R"][1]) == route
    named = (qseries._direct_quotient if route == "direct" else qseries._poisson_quotient)(
        x, w, ctx, *qseries._THETA_ROUTES["R"])
    assert _theta_quotient(nome, ctx, "R") == named


def test_short_guard_is_redone_once_at_the_measured_width(monkeypatch, ctx):
    # predicting no cancellation for E(99/100) ~ 2^-232: the first pass comes out
    # short, the second runs at the width it measured and agrees with the predicted run
    counted, predicted = _count_and_predict(monkeypatch)
    q = ctx.real(Fraction(99, 100))
    right = _sparse(q, ctx, "E", ((3, 1, None),), math.pi**2 / 6)
    assert len(predicted) == 1
    predicted.clear()
    redone = _sparse(q, ctx, "E", ((3, 1, None),), 0.0)
    assert len(predicted) == 2 and predicted[0] < predicted[1]
    assert agree_bits(redone / right, 1, ctx) >= ctx.bits - ctx.guard_bits


def test_sum_that_cancels_on_both_passes_raises(ctx):
    parts = ((3, 1, None), (3, 1, lambda w, x: -(1 << w)))  # E - E = 0
    with pytest.raises(ArithmeticError, match="cancelled"):
        _sparse(ctx.real(Fraction(1, 2)), ctx, "E - E", parts, math.pi**2 / 6)


def test_sparse_sum_refuses_a_count_above_max_iter(monkeypatch):
    # R(-99/100) needs about 250 terms of each direct sum; with max_iter 50 none runs
    counted, predicted = _count_and_predict(monkeypatch)
    ctx = PrecisionContext(256, 32, 50)
    with pytest.raises(cf.ConvergenceError) as err:
        R_product(ctx.real(Fraction(-99, 100)), ctx=ctx)
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
    # the transformed sums (q > 0) too, alone and as R's quotient, whose two
    # sums share c and so each run at least the one count predicted
    transformed = {{"theta_G": (5, 1), "E": (3, 1), "phi": (2, 0)}[name]: 1}
    for q in ("1/10", "1/2", "-1/2", "9/10", "-97/98", "999/1000", "99999/100000"):
        ctx = PrecisionContext(bits, guard_bits, max_iter)
        w, (x,) = numerics._fixed(ctx, name, ctx.real(Fraction(q)))
        calls = [] if q == "99999/100000" else [lambda c: _sparse(c.real(Fraction(q)), c, name, parts, loss)]
        if x > 0:
            calls += [lambda c, row=row: qseries._poisson_quotient(x, w, c, name, row)
                      for row in (transformed, qseries._THETA_ROUTES["R"][1])]
        for call in calls:
            counted.clear()
            predicted.clear()
            try:
                call(ctx)
            except cf.ConvergenceError as exc:
                if exc.needed is None:  # ran into the cap
                    assert predicted[-1] <= max_iter == exc.iterations, q
                else:
                    assert (exc.iterations, counted) == (0, []) and exc.needed == predicted[0] > max_iter
                continue
            ends = [k for k, after in zip(counted, counted[1:] + [1]) if after == 1]  # each sum's count
            assert len(predicted) == 1 and 1 <= predicted[0] <= min(ends), q


# -- the transformed theta sums near q = 1 ------------------------------------------


@pytest.mark.parametrize("bits", [256, 1024])
@pytest.mark.parametrize("q", ["9/10", "99/100", "999/1000", "9999/10000", "999999/1000000"])
def test_transformed_sums_match_independent_routes(euler_chain, bits, q):
    # each quotient by the rule's route and by the transformation itself, to
    # bits - guard_bits: R against the fraction at q, the G and H product
    # backends against their Euler sums, E against the Euler sums' chain and
    # phi(-q) against E(q) chi(-q), chi also an Euler sum, and phi(q) against
    # its own direct sum
    ctx = PrecisionContext(bits, 32)
    nome = Nome.rational(q)
    w, (x,) = numerics._fixed(ctx, "test", nome)
    euler, g, h = euler_chain(nome, ctx)
    references = {"R": rr_cf(nome, ctx).value / root(ctx.number(nome), 5, RootMode.PRINCIPAL, ctx),
                  "G": g, "H": h, "E": euler, "phi-": euler * chi(-nome, ctx)}
    references["phi+"] = qseries._phi_sum(x, w, ctx).mid
    for name, reference in references.items():
        transformed = qseries._poisson_quotient(x, w, ctx, name, qseries._THETA_ROUTES[name][1]).mid
        for value in (_theta_quotient(nome, ctx, name).mid, transformed):
            assert agree_bits(value / reference, 1, ctx) >= ctx.bits - ctx.guard_bits, name
    assert agree_bits(R_product(nome, ctx), rr_cf(nome, ctx).value, ctx) >= ctx.bits - ctx.guard_bits
    assert agree_bits(theta_phi(-nome, ctx) / references["phi-"], 1, ctx) >= ctx.bits - ctx.guard_bits


def test_transformed_sums_with_several_terms(monkeypatch):
    # at 2,048 bits the transformation already wins at q = 0.9, where its sums
    # take 4 to 6 terms each: each quotient agrees with the direct sums
    ctx = PrecisionContext(2048, 32)
    counted, _ = _count_and_predict(monkeypatch)
    nome = Nome.rational("9/10")
    w, (x,) = numerics._fixed(ctx, "test", nome)
    for name, (route, row) in qseries._THETA_ROUTES.items():
        counted.clear()
        transformed = qseries._poisson_quotient(x, w, ctx, route, row).mid
        runs = len(counted)
        num, den = ([_theta(nome, ctx, a, b) for a, b in side] for side in qseries._sides(row))
        direct = math.prod(num, start=ctx.mp.one) / math.prod(den, start=ctx.mp.one)
        assert agree_bits(transformed / direct, 1, ctx) >= ctx.bits - ctx.guard_bits, name
        assert runs == {"R": 12, "G": 11, "H": 11, "E": 5, "phi-": 4, "phi+": 10}[name]


@pytest.mark.parametrize("bits, samples", [(256, 400), (256, 1000), (1024, 200), (2048, 60)])
def test_modular_relation_grid_takes_the_direct_sums(monkeypatch, bits, samples):
    # the transformation of R at e^(-2 alpha) is the other side of the modular
    # relation, so the identity takes the direct sums on every grid, also past
    # the crossover (R at e^(-4 pi/j) from j = 340 on at 256 bits)
    from rrlab.identities import verify

    calls, transformed = [], qseries._poisson_quotient
    monkeypatch.setattr(qseries, "_poisson_quotient", lambda *args: calls.append(args) or transformed(*args))
    report = verify("modular-relation", PrecisionContext(bits, 32), samples=samples)
    assert calls == [] and len(report.records) == samples and all(record["passed"] for record in report.records)
