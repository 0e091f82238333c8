from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrlab.numerics import Nome, PrecisionContext, RootMode, agree_bits, golden_phi, root

# sqrt(5)+1)/2 computed independently at 300 bits (mpmath sqrt)
PHI_75 = "1.61803398874989484820458683436563811772030917980576286213544862270526046282"


def test_context_validation():
    with pytest.raises(ValueError):
        PrecisionContext(0)
    with pytest.raises(ValueError):
        PrecisionContext(32, 32)
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


def test_golden_phi_memoized(ctx):
    assert golden_phi(ctx) is golden_phi(ctx)


def test_agree_bits_examples(ctx):
    assert agree_bits(1.0, 1.0, ctx) == ctx.bits
    assert agree_bits(1.0, 1.5, ctx) == 1
    phi64 = golden_phi(PrecisionContext(64, 32))
    phi128 = golden_phi(PrecisionContext(128, 32))
    assert agree_bits(phi64, phi128, PrecisionContext(128, 32)) >= 32


def test_agree_bits_clamps(ctx):
    assert agree_bits(0, 1e30, ctx) == 0
    assert 0 <= agree_bits(1, -1, ctx) <= ctx.bits


def test_precision_doubling_constants(ctx, ctx512):
    for f in (golden_phi, lambda c: c.mp.pi + 0, lambda c: c.mp.e + 0):
        assert agree_bits(f(ctx), f(ctx512), ctx) >= ctx.bits - ctx.guard_bits


def test_precision_doubling_root(ctx, ctx512):
    z = Fraction(-7, 3)
    a = root(z, 5, RootMode.REAL_ODD, ctx)
    b = root(z, 5, RootMode.REAL_ODD, ctx512)
    assert agree_bits(a, b, ctx) >= ctx.bits - ctx.guard_bits


def test_fraction_conversion_exact(ctx):
    x = ctx.real(Fraction(1, 3))
    assert abs(x * 3 - 1) < ctx.mp.ldexp(1, -(ctx.bits - 2))


def test_context_digits(ctx):
    # 224 bits of trusted mantissa is 67 decimal digits
    assert ctx.digits == 67


def test_concurrent_evaluation_is_consistent():
    # pure functions of (input, context): concurrent evaluations under shared
    # and distinct contexts must reproduce the serial results exactly
    from concurrent.futures import ThreadPoolExecutor
    from rrlab.cf import rr_cf

    shared = PrecisionContext(192, 32)
    qs = [Fraction(k, 40) for k in range(1, 9)]
    serial = [rr_cf(shared.real(q), ctx=shared).value for q in qs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda q: rr_cf(shared.real(q), ctx=shared).value, qs))
        fresh = list(
            pool.map(lambda q: rr_cf(PrecisionContext(192, 32).real(q), ctx=PrecisionContext(192, 32)).value, qs)
        )
    assert parallel == serial
    assert fresh == serial


def test_nome(ctx, ctx512):
    mp = ctx.mp
    assert abs(Nome.exp_sqrt(4).value(ctx) - mp.exp(-2 * mp.pi)) < ctx.tol
    assert abs(Nome.exp(2).value(ctx) - mp.exp(-2 * mp.pi)) < ctx.tol
    assert abs(Nome.rational("1/3").value(ctx) * 3 - 1) < ctx.tol
    assert Nome.rational(Fraction(1, 3)) == Nome.rational("1/3")
    # rational nomes on or outside the unit circle are left to the kernels to refuse
    assert Nome.rational(-1).value(ctx) == -1
    bad = (("exp", 0), ("exp-sqrt", -1), ("rational", "1/0"), ("rational", "x"), ("bogus", 1))
    for form, arg in bad:
        with pytest.raises(ValueError):
            Nome(form, arg)
    # the exponential forms regenerate at any precision
    for nome in (Nome.exp(Fraction(1, 3)), Nome.exp_sqrt(3)):
        assert agree_bits(nome.value(ctx), nome.value(ctx512), ctx) >= ctx.bits - ctx.guard_bits
