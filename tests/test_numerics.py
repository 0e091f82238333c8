import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab import cf, identities, numerics, qseries, special_values
from rrlab.numerics import (
    ConvergenceError,
    CFStatus,
    Nome,
    PrecisionContext,
    RootMode,
    agree_bits,
    certify,
    golden_phi,
    root,
)

# sqrt(5)+1)/2 computed independently at 300 bits (mpmath sqrt)
PHI_75 = "1.61803398874989484820458683436563811772030917980576286213544862270526046282"


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(0)
    with pytest.raises(ValueError):
        PrecisionContext(32, 32)
    # bits - guard_bits must earn at least one decimal digit
    with pytest.raises(ValueError, match="by at least 4"):
        PrecisionContext(67, 64)
    assert PrecisionContext(68, 64).digits == 1
    with pytest.raises(ValueError):
        PrecisionContext(256, 32, 0)


def test_tol_positive_and_decreasing():
    prev = None
    for bits in (64, 128, 256, 512):
        c = PrecisionContext(bits, 32)
        assert c.tol > 0
        if prev is not None:
            assert c.tol < prev
        prev = c.tol


def test_root_examples(ctx):
    assert root(32, 5, RootMode.PRINCIPAL, ctx) == 2
    assert root(-1, 5, RootMode.REAL_ODD, ctx) == -1
    principal = root(-1, 5, RootMode.PRINCIPAL, ctx)
    expected = ctx.mp.expjpi(ctx.mp.mpf(1) / 5)  # e^(i*pi/5)
    assert abs(principal - expected) < ctx.tol


def test_root_domain_errors(ctx):
    with pytest.raises(ValueError):
        root(ctx.mp.mpc(1, 1), 5, RootMode.REAL_ODD, ctx)
    with pytest.raises(ValueError):
        root(2, 4, RootMode.REAL_ODD, ctx)
    with pytest.raises(ValueError):
        root(2, 0, RootMode.PRINCIPAL, ctx)


def test_root_branch_argument_range(ctx):
    # principal branch keeps the argument in (-pi/k, pi/k]
    for theta_num in (-3, -1, 1, 2, 3):
        z = ctx.mp.expjpi(ctx.mp.mpf(theta_num) / 4) * 3
        for k in (2, 3, 5):
            w = root(z, k, RootMode.PRINCIPAL, ctx)
            arg = ctx.mp.arg(ctx.mp.mpc(w))
            assert -ctx.mp.pi / k < arg <= ctx.mp.pi / k + ctx.tol
            assert abs(w**k - z) < ctx.tol * abs(z)


@given(
    re=st.integers(-50, 50),
    im=st.integers(-50, 50),
    k=st.integers(1, 7),
)
@settings(max_examples=60, deadline=None)
def test_root_inverts_power(re, im, k):
    ctx = PrecisionContext(128, 32)
    z = ctx.mp.mpc(re, im) / 10
    if z == 0:
        return
    w = root(z, k, RootMode.PRINCIPAL, ctx)
    assert abs(w**k - z) < ctx.tol * max(1, abs(z))


@given(x=st.integers(-10**6, 10**6), k=st.sampled_from([1, 3, 5, 7]))
@settings(max_examples=60, deadline=None)
def test_real_odd_root_inverts_power(x, k):
    ctx = PrecisionContext(128, 32)
    z = ctx.real(Fraction(x, 997))
    w = root(z, k, RootMode.REAL_ODD, ctx)
    assert not isinstance(w, ctx.mp.mpc)
    assert abs(w**k - z) < ctx.tol * max(1, abs(z))


def test_golden_phi_value(ctx):
    phi = golden_phi(ctx)
    assert abs(phi - ctx.mp.mpf(PHI_75)) < ctx.mp.mpf(10) ** -65
    assert abs(phi * phi - phi - 1) < ctx.tol
    assert abs(1 / phi - (ctx.mp.sqrt(5) - 1) / 2) < ctx.tol


def test_agree_bits_examples(ctx):
    assert agree_bits(1.0, 1.0, ctx) == ctx.bits
    assert agree_bits(1.0, 1.5, ctx) == 1
    phi64 = golden_phi(PrecisionContext(64, 32))
    phi128 = golden_phi(PrecisionContext(128, 32))
    assert agree_bits(phi64, phi128, PrecisionContext(128, 32)) >= 32


def test_agree_bits_clamps(ctx):
    assert agree_bits(0, 1e30, ctx) == 0
    assert 0 <= agree_bits(1, -1, ctx) <= ctx.bits
    # a value that is not finite agrees on no bits, so no record passes on it
    assert agree_bits(ctx.mp.nan, 1, ctx) == agree_bits(ctx.mp.inf, ctx.mp.inf, ctx) == 0


def _floor_log_bits(d, scale, bits):
    """floor(-log2(d / scale)) at 4x the bits, clamped to [0, bits]."""
    if d == 0:
        return bits
    mp = PrecisionContext(4 * bits, 32).mp
    return max(0, min(bits, int(mp.floor(-mp.log(mp.mpf(d) / mp.mpf(scale), 2)))))


@st.composite
def _agreeing_pairs(draw):
    """(bits, x, y): general, close, equal, power-of-two-ratio, near-1 and complex."""
    bits = draw(st.sampled_from([64, 128, 256]))
    mp = PrecisionContext(bits, 32).mp
    man = st.integers(-(2**60), 2**60)

    def real(lo=-200, hi=200):
        return mp.ldexp(draw(man), draw(st.integers(lo, hi)))

    kind = draw(st.sampled_from(["any", "close", "equal", "power-of-two", "near-1", "complex"]))
    if kind == "any":
        return bits, real(), real()
    if kind == "complex":
        x = mp.mpc(real(-80, 20), real(-80, 20))
        return bits, x, x + mp.mpc(real(-bits - 100, 20), real(-bits - 100, 20))
    if kind == "power-of-two":
        # |y| <= |x| = 2^a, so d / max(|x|, |y|, 1) = 2^(a - k - max(a, 0)) exactly
        a, k = draw(st.integers(-12, 12)), draw(st.integers(0, bits + 8))
        x = mp.ldexp(draw(st.sampled_from([1, -1])), a)
        return bits, x, x - x * mp.ldexp(1, -k)
    x = mp.ldexp(draw(st.integers(2**59, 2**61)), -60) if kind == "near-1" else real()
    if kind == "equal":
        return bits, x, +x
    return bits, x, x + real(-bits - 100, 0) * max(abs(x), 1)


@given(_agreeing_pairs())
@settings(max_examples=300, deadline=None)
def test_agree_bits_is_the_exact_measure(pair):
    # agree_bits and a proof's bits are one measure: the largest b <= bits with
    # d * 2^b <= max(|x|, |y|, 1), d the distance as the context computes it
    bits, x, y = pair
    ctx = PrecisionContext(bits, 32)
    d, scale = abs(x - y), max(abs(x), abs(y), ctx.mp.one)
    want = _floor_log_bits(d, scale, bits)
    assert agree_bits(x, y, ctx) == want
    assert numerics._bits(d, scale, ctx) == want


def test_precision_doubling_constants(ctx):
    for f in (golden_phi, lambda c: c.mp.pi + 0, lambda c: c.mp.e + 0):
        assert certify(f, ctx)[1] >= ctx.bits - ctx.guard_bits


def test_precision_doubling_root(ctx):
    z = Fraction(-7, 3)
    _, bits = certify(lambda c: root(z, 5, RootMode.REAL_ODD, c), ctx)
    assert bits >= ctx.bits - ctx.guard_bits


def test_certify_reports_the_doubled_recomputation(ctx):
    # 1 + 2^-(bits/2) at 256 and at 512 bits differ by just under 2^-128
    seen = []

    def fn(c):
        seen.append(c.bits)
        return c.mp.mpf(1) + c.mp.ldexp(1, -(c.bits // 2))

    value, bits = certify(fn, ctx)
    assert seen == [256, 512]
    assert value == 1 + ctx.mp.ldexp(1, -128) and bits == 128


def test_certify_names_the_self_check_in_a_convergence_error(ctx):
    def fails_at(bits):
        def fn(c):
            if c.bits == bits:
                raise ConvergenceError("probe route", CFStatus.MAX_ITERATIONS, 7)
            return c.mp.mpf(1)

        return fn

    with pytest.raises(ConvergenceError) as exc:
        certify(fails_at(512), ctx)
    assert exc.value.route == "probe route (precision self-check at 512 bits)"
    assert (exc.value.status, exc.value.iterations) == (CFStatus.MAX_ITERATIONS, 7)
    with pytest.raises(ConvergenceError) as exc:
        certify(fails_at(256), ctx)
    assert exc.value.route == "probe route"


def test_certify_keeps_a_refusal_in_the_self_check(ctx):
    def fn(c):
        if c.bits == 512:
            raise ConvergenceError("probe route", CFStatus.MAX_ITERATIONS, 0, 1200, c.max_iter)
        return c.mp.mpf(1)

    with pytest.raises(ConvergenceError) as exc:
        certify(fn, ctx)
    assert (exc.value.iterations, exc.value.needed, exc.value.max_iter) == (0, 1200, ctx.max_iter)
    assert str(exc.value) == (
        "probe route (precision self-check at 512 bits) did not converge: max-iterations "
        f"predicted, needs at least 1200 iterations (max_iter {ctx.max_iter}), none run"
    )


def _proving(radius_exp):
    """A function that returns 1/3 in a Ball of radius 2^radius_exp, and the precisions it ran at."""
    seen = []

    def fn(c):
        seen.append(c.bits)
        return numerics.Ball(c.mp.mpf(1) / 3, c.mp.ldexp(1, radius_exp))

    return fn, seen


def test_certify_takes_a_radius_that_reaches_the_contract(ctx):
    fn, seen = _proving(-230)
    value, bits = certify(fn, ctx)
    assert seen == [256] and bits == 230 and value == ctx.mp.mpf(1) / 3


def test_certify_falls_back_on_a_short_radius(ctx):
    # 2^-200 proves 200 bits, short of 256 - 32: the doubled run decides
    fn, seen = _proving(-200)
    value, bits = certify(fn, ctx)
    assert seen == [256, 512] and bits == 256  # 1/3 at 256 bits is within 2^-256 of 1/3 at 512


def test_certify_fallback_still_names_the_self_check(ctx):
    def fn(c):
        if c.bits == 512:
            raise ConvergenceError("probe route", CFStatus.MAX_ITERATIONS, 7)
        return numerics.Ball(c.mp.mpf(1), c.mp.ldexp(1, -100))

    with pytest.raises(ConvergenceError) as exc:
        certify(fn, ctx)
    assert exc.value.route == "probe route (precision self-check at 512 bits)"


def test_certify_doubles_plain_numbers_and_radii_of_other_values(ctx):
    # a plain number proves nothing, nor does a Ball without a radius; a number
    # formed from a Ball's midpoint leaves the Ball's radius behind
    seen = []

    def plain(c):
        seen.append(c.bits)
        return c.mp.mpf(1) / 3

    def unproven(c):
        seen.append(c.bits)
        return numerics.Ball(c.mp.mpf(1) / 3)

    def transformed(c):
        seen.append(c.bits)
        return 2 * numerics.Ball(c.mp.mpf(1) / 3, c.mp.ldexp(1, -250)).mid

    for fn in (plain, unproven, transformed):
        seen.clear()
        assert certify(fn, ctx)[1] == 256 and seen == [256, 512]


def test_fraction_conversion_exact(ctx):
    x = ctx.real(Fraction(1, 3))
    assert abs(x * 3 - 1) < ctx.mp.ldexp(1, -(ctx.bits - 2))


def test_context_digits(ctx):
    # 224 bits of trusted mantissa is 67 decimal digits
    assert ctx.digits == 67


def test_concurrent_evaluation_is_consistent():
    # pure functions of (input, context): one context shared by four threads,
    # on the routes that work on a widened context too, must reproduce the
    # serial results exactly and stay as it was built
    from concurrent.futures import ThreadPoolExecutor

    shared = PrecisionContext(192, 32)
    half = shared.real(Fraction(1, 2))
    jobs = (
        [lambda k=k: cf.rr_cf(shared.real(Fraction(k, 40)), ctx=shared).value for k in range(1, 9)]
        + [lambda j=j: cf.rr_root_of_unity_direct(7, j, shared).value for j in range(1, 7)]
        + [lambda k=k: tuple(identities.asymptotic_check(Fraction(1, k), shared).values()) for k in (3, 5, 8)]
        + [lambda s=s: identities.factorization_sides(s, half, shared) for s in (1, -1)]
    )
    serial = [job() for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = list(pool.map(lambda job: job(), jobs * 3, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert parallel == serial * 3
    assert shared.mp.prec == 192


def test_contexts_share_one_mpmath_context_per_precision():
    from concurrent.futures import ThreadPoolExecutor

    a, b = PrecisionContext(256), PrecisionContext(256, 16, 10)
    assert a.mp is b.mp and a.mp.prec == 256
    assert PrecisionContext(512).mp is not a.mp
    with ThreadPoolExecutor(max_workers=2) as pool:
        others = list(pool.map(PrecisionContext, [256] * 4))
    assert all(other.mp is a.mp for other in others)
    assert a.mp.prec == 256


def test_process_keeps_a_bounded_number_of_mpmath_contexts():
    for bits in range(64, 4097, 64):
        assert PrecisionContext(bits).mp.prec == bits
        assert numerics._mp_at.cache_info().currsize <= 8
    assert PrecisionContext(4096).mp is PrecisionContext(4096).mp


def test_context_is_an_immutable_value():
    ctx = PrecisionContext(100, 20, 50)
    assert PrecisionContext.__slots__ == ("bits", "guard_bits", "max_iter", "mp")
    with pytest.raises(AttributeError):
        ctx.bits = 200
    assert ctx == PrecisionContext(100, 20, 50) and ctx.mp.prec == 100
    # widening rounds bits + extra up to a multiple of 32 and keeps the rest
    assert ctx.widened(8) == PrecisionContext(128, 20, 50)
    assert ctx.widened(28) == PrecisionContext(128, 20, 50)
    assert ctx.widened(29).bits == 160 and PrecisionContext(256).widened(32).bits == 288


_Q = Fraction(1, 3)
_KERNELS = [
    ("rr_cf", lambda c: cf.rr_cf(c.real(_Q), ctx=c)),
    ("rr_root_of_unity_direct", lambda c: cf.rr_root_of_unity_direct(7, 1, c)),
    ("rr_at_root_of_unity", lambda c: cf.rr_at_root_of_unity(7, 2, c)),
    ("pochhammer_inf", lambda c: qseries.pochhammer_inf(c.real(_Q), c.real(_Q), c)),
    ("G", lambda c: qseries.G(c.real(_Q), c)),
    ("H", lambda c: qseries.H(c.real(_Q), c)),
    ("R_product", lambda c: qseries.R_product(c.real(_Q), ctx=c)),
    ("S", lambda c: qseries.S(c.real(_Q), c)),
    ("chi", lambda c: qseries.chi(c.real(_Q), c)),
    ("theta_phi", lambda c: qseries.theta_phi(c.real(-_Q), c)),
    ("asymptotic_check", lambda c: identities.asymptotic_check(Fraction(1, 5), c)),
    ("cf2_value", identities.cf2_value),
    ("verify", lambda c: identities.verify("modular-relation", c, 2, 20)),
    ("verify_registry", lambda c: special_values.verify_registry(c, ["eq2"])),
    ("golden_phi", golden_phi),
    ("agree_bits", lambda c: agree_bits(c.mp.pi, c.mp.e, c)),
]


@pytest.mark.parametrize("kernel", [pytest.param(k, id=name) for name, k in _KERNELS])
def test_kernels_leave_the_shared_precision_as_they_found_it(kernel):
    for ctx in (PrecisionContext(160, 32), PrecisionContext(320, 32)):
        kernel(ctx)
        assert ctx.mp.prec == ctx.bits
        assert PrecisionContext(ctx.bits).mp is ctx.mp


@pytest.mark.parametrize(
    "kernel",
    [
        pytest.param(lambda c: qseries.G(c.real(Fraction(999, 1000)), c), id="G-refused"),
        pytest.param(lambda c: identities.asymptotic_check(Fraction(1, 1000), c), id="asymptotic"),
        pytest.param(identities.cf2_value, id="cf2"),
    ],
)
def test_precision_is_restored_after_a_convergence_error(kernel):
    ctx = PrecisionContext(160, 32, max_iter=50)
    with pytest.raises(ConvergenceError):
        kernel(ctx)
    assert ctx.mp.prec == ctx.bits


def test_nome(ctx):
    mp = ctx.mp
    assert abs(ctx.number(Nome.exp_sqrt(4)) - mp.exp(-2 * mp.pi)) < ctx.tol
    assert abs(ctx.number(Nome.exp(2)) - mp.exp(-2 * mp.pi)) < ctx.tol
    assert abs(ctx.number(Nome.rational("1/3")) * 3 - 1) < ctx.tol
    assert abs(ctx.number(Nome.unit_root(1, 3)) - mp.expjpi(mp.mpf(2) / 3)) < ctx.tol
    assert Nome.rational(Fraction(1, 3)) == Nome.rational("1/3")
    assert Nome.unit_root(2, 6) == Nome("unit-root", "1/3")
    # rational nomes on or outside the unit circle are left to the kernels to refuse
    assert ctx.number(Nome.rational(-1)) == -1
    assert ctx.number(Nome.unit_root(3, 6)) == -1 and ctx.number(Nome.unit_root(-4, 4)) == 1
    bad = (("exp", 0), ("exp-sqrt", -1), ("rational", "1/0"), ("rational", "x"), ("bogus", 1))
    for form, arg in bad:
        with pytest.raises(ValueError):
            Nome(form, arg)
    # the exponential forms regenerate at any precision
    for nome in (Nome.exp(Fraction(1, 3)), Nome.exp_sqrt(3), Nome.unit_root(2, 7)):
        assert certify(lambda c: c.number(nome), ctx)[1] >= ctx.bits - ctx.guard_bits


def _nome_before_hook(nome, ctx):
    """A nome as converted before the _mpmath_ hook: Nome.value for the real
    forms and, for roots of unity, the cos/sin pair of the deleted _UnitRoot.
    Nome.value rounded a numerator longer than the precision twice, so the
    two agree on arguments that fit in the precision, as these do."""
    mp = ctx.mp
    if nome.form == "unit-root":
        turns = 2 * nome.arg % 2
        if turns.denominator == 1:
            return mp.mpf(1 - 2 * int(turns))
        x = ctx.real(turns)
        return mp.mpc(mp.cospi(x), mp.sinpi(x))
    x = ctx.real(nome.arg)
    if nome.form == "rational":
        return x
    if nome.form == "exp-sqrt":
        x = mp.sqrt(x)
    return mp.exp(-mp.pi * x)


_NOMES = (
    [Nome.rational(x) for x in ("0", "1", "-1/2", "1/3", "-999/1000", "99999/100000", "2/7")]
    + [Nome.exp(s) for s in ("1/3", "1", "2", "5", "22/7")]
    + [Nome.exp_sqrt(n) for n in ("1", "3", "3/5", "4", "16", "20", "36", "7/11")]
    + [Nome.unit_root(j, n) for j, n in ((0, 1), (1, 2), (1, 3), (1, 4), (3, 8), (-2, 9), (5, 12), (1, 199))]
)


@pytest.mark.parametrize("bits", [64, 96, 128, 192, 256, 333, 512, 1024, 2048])
def test_nome_conversion_is_unchanged(bits):
    ctx = PrecisionContext(bits, 32)
    for nome in _NOMES:
        got, want = ctx.number(nome), _nome_before_hook(nome, ctx)
        assert type(got) is type(want), nome
        assert getattr(got, "_mpf_", None) == getattr(want, "_mpf_", None), nome
        assert getattr(got, "_mpc_", None) == getattr(want, "_mpc_", None), nome


def test_widened_context_reads_unit_root_nome_at_its_own_precision():
    # the periodic route reads the terms of a root-of-unity fraction on a widened context
    nome = Nome.unit_root(1, 7)
    ctx = PrecisionContext(64, 16)
    wide = ctx.widened(192)
    assert wide.number(nome)._mpc_ == PrecisionContext(256, 16).number(nome)._mpc_
    assert wide.number(nome) != ctx.number(nome)
