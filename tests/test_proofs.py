"""Proven radii against the doubled run they replace, and against mpmath.

The Euler-sum kernel (G, H, chi), theta at q >= 0, the cf2 fraction, the
transformed theta quotients and the modular relation of R and S return a
numerics.Ball, their value with its radius; R at q < 0 carries S's radius
through the product with root(-1, 5) (Ball.times), and chi at q < 0 its
sum's through 1/sum (Ball.reciprocal).  These tests keep the doubled
evaluation as the oracle: a first run and its doubled run must lie within
the sum of their radii, a value within its radius of an independent mpmath
reference where one is cheap (near q = 1, Poisson summation), and certify
must take the doubled run exactly when the radius proves fewer than
bits - guard_bits bits, or when it is handed a bare number.
"""

from fractions import Fraction

import mpmath
import pytest

from rrlab import cf, identities, numerics, qseries
from rrlab.numerics import Nome, PrecisionContext, RootMode, _bits, certify

# the kernels that return a Ball, by the name of the public kernel that reads its midpoint
_ROUTES = {
    "G": lambda nome, c: qseries._rr_function(nome, c, "G"),
    "H": lambda nome, c: qseries._rr_function(nome, c, "H"),
    "chi": qseries._chi,
    "theta_phi": qseries._theta_phi,
}
# eval R's route at q < 0 in each root mode: S's modular relation times root(-1, 5)
_R_MODES = {"R": RootMode.PRINCIPAL, "R-real-odd": RootMode.REAL_ODD}

# nomes from 1/20 up to 1 - 1e-5, in all three forms
_FAR = [
    Nome.rational("1/20"),
    Nome.rational("1/2"),
    Nome.exp(2),  # e^(-2 pi), about 0.0019
    Nome.exp_sqrt(3),  # e^(-pi sqrt 3), about 0.0043
    Nome.rational("99/100"),
    Nome.exp(Fraction(1, 100)),  # about 0.969
    Nome.exp_sqrt(Fraction(1, 10**4)),  # e^(-pi/100), the same q by the other form
]
# about 1 - 1e-5 in two forms, and 1 - 1e-6, where the head of G, H and chi
# comes from Dedekind-eta inversion
_NEAR = [Nome.rational("99999/100000"), Nome.exp(Fraction(1, 314159)), Nome.rational("999999/1000000")]
_NEGATIVE = [Nome.rational("-1/2"), Nome.rational("-99/100"), Nome.rational("-999/1000")]
_CONTEXTS = [(bits, guard) for bits in (64, 256, 512, 1024) for guard in (1, 2, 8, 32)]


def _ball(fn, ctx):
    """The midpoint and radius of the Ball fn(ctx), which must prove one."""
    ball = fn(ctx)
    assert ball.rad is not None, ball
    return ball.mid, ball.rad


def _result_ball(res):
    """A CFResult's value and radius as a Ball."""
    return numerics.Ball(res.value, res.radius)


def _proven_bits(value, radius, ctx):
    """The bits a radius proves: the one measure against max(|value|, 1)."""
    return _bits(radius, max(abs(value), ctx.mp.one), ctx)


def _label(nome):
    return f"{nome.form}:{nome.arg}"


def _cases():
    for name in _ROUTES:
        for nome in _FAR + (_NEGATIVE if name == "chi" else []):
            for bits, guard in _CONTEXTS:
                yield pytest.param(name, nome, bits, guard, id=f"{name}-{_label(nome)}-{bits}-{guard}")
        for nome in _NEAR:  # 0.2 s a run at 256 bits, 0.4 s doubled
            yield pytest.param(name, nome, 256, 32, id=f"{name}-{_label(nome)}-256-32")
    for name in _R_MODES:
        for nome in _NEGATIVE:
            for bits, guard in _CONTEXTS:
                if bits >= 256:  # at 64 bits R at -1/2 runs the fraction at q
                    yield pytest.param(name, nome, bits, guard, id=f"{name}-{_label(nome)}-{bits}-{guard}")
    for bits, guard in _CONTEXTS:
        if bits < 1024 or guard == 32:  # the 2048-bit run alone takes seconds
            yield pytest.param("cf2", None, bits, guard, id=f"cf2-{bits}-{guard}")


def _fn(name, nome):
    if name == "cf2":
        return lambda c: _result_ball(cf.eval_infinite(identities.cf2_spec(), c))
    if name in _R_MODES:
        return lambda c: _result_ball(cf.rr_value(nome, c, _R_MODES[name]))
    return lambda c: _ROUTES[name](nome, c)


@pytest.mark.parametrize("name, nome, bits, guard", _cases())
def test_radius_contains_the_doubled_run(name, nome, bits, guard):
    ctx = PrecisionContext(bits, guard)
    fn = _fn(name, nome)
    first, r1 = _ball(fn, ctx)
    doubled = ctx.widened(ctx.bits)
    second, r2 = _ball(fn, doubled)
    mp = doubled.mp
    gap = abs(mp.fsub(first, second, exact=True))
    assert gap <= mp.fadd(r1, r2, exact=True)


def _reference(name, nome, bits, poisson):
    """name at the nome from mpmath's qp and jtheta (or cf2 from the jims
    identity) at bits + 64, where that is cheap: |q| <= 1/2; near q = 1 from
    Poisson summation (``poisson``) at 2 bits + 64."""
    mp = mpmath.mp
    with mp.workprec(bits + 64):
        if name == "cf2":
            series, term, n = mp.mpf(0), mp.mpf(1), 0
            while term > mp.ldexp(1, -(bits + 80)):
                series += term
                n += 1
                term /= 2 * n + 1
            return +(mp.sqrt(mp.pi * mp.e / 2) - series)
        q = mp.convert(nome)
        if name in _R_MODES:
            fifth = mp.root(q, 5) if name == "R" else -mp.root(-q, 5)
            return fifth * mp.qp(q, q**5) * mp.qp(q**4, q**5) / (mp.qp(q**2, q**5) * mp.qp(q**3, q**5))
        if abs(q) > 0.5:
            with mp.workprec(2 * bits + 64):
                return poisson(name, nome, mp)
        if name == "G":
            return 1 / (mp.qp(q, q**5) * mp.qp(q**4, q**5))
        if name == "H":
            return 1 / (mp.qp(q**2, q**5) * mp.qp(q**3, q**5))
        if name == "chi":
            return mp.qp(-q, q**2)
        return mp.jtheta(3, 0, q)


@pytest.mark.parametrize("name, nome, bits, guard", [
    pytest.param(*case.values, id=case.id) for case in _cases()
    if case.values[1] is None or case.values[1] in _FAR[:4] + _NEGATIVE[:1] + _NEAR
])
def test_value_lies_within_its_radius_of_mpmath(name, nome, bits, guard, poisson):
    ref = _reference(name, nome, bits, poisson)
    value, radius = _ball(_fn(name, nome), PrecisionContext(bits, guard))
    mp = mpmath.mp
    with mp.workprec(bits + 64):
        assert abs(mp.mpmathify(value) - ref) <= radius + mp.ldexp(abs(ref), -(bits + 56))


@pytest.mark.parametrize("name, nome, bits, guard", [
    pytest.param(*case.values, id=case.id) for case in _cases() if case.values[2] <= 256
] + [
    # near q = 1 the rounding budget, about n^2 2^-W at n = 51,110 terms,
    # exceeds what one or two guard bits leave: the doubled run decides
    pytest.param("G", _NEAR[0], 256, 1, id="G-near-256-1"),
    pytest.param("H", _NEAR[0], 256, 2, id="H-near-256-2"),
    pytest.param("theta_phi", _NEAR[0], 256, 1, id="theta_phi-near-256-1"),
])
def test_certify_takes_the_proof_exactly_when_it_reaches_the_contract(name, nome, bits, guard):
    ctx = PrecisionContext(bits, guard)
    fn = _fn(name, nome)
    value, radius = _ball(fn, ctx)
    proven = _proven_bits(value, radius, ctx)
    runs = []

    def counted(c):
        runs.append(c.bits)
        return fn(c)

    _, got = certify(counted, ctx)
    if proven >= bits - guard:
        assert (runs, got) == ([bits], proven)
    else:
        assert runs == [bits, 2 * bits]
    if nome in _NEAR and guard <= 2:
        assert runs == [bits, 2 * bits]


def test_near_boundary_G_earns_its_bits_by_proof():
    # G(1 - 1e-5) at 256 bits: 51,110 terms; the bits come from the radius,
    # and they clear the contract's 224 by more than the doubled run did
    ctx = PrecisionContext(256, 32)
    value, radius = _ball(lambda c: _ROUTES["G"](Nome.rational("99999/100000"), c), ctx)
    assert _proven_bits(value, radius, ctx) >= 225


def test_routes_without_a_proof_report_none():
    ctx = PrecisionContext(256, 32)
    for fn in (
        lambda c: qseries._rr_function(Nome.rational("-1/2"), c, "G"),
        lambda c: qseries._rr_function(Nome.rational("1/2"), c, "G", "product"),
        lambda c: qseries._theta_phi(Nome.rational("-1/2"), c),
        lambda c: _result_ball(cf.rr_value(Nome.rational("1/10"), c, alternating=True)),  # S
    ):
        assert fn(ctx).rad is None


def test_certify_doubles_a_public_kernels_number():
    # qseries.G returns the midpoint of its kernel's Ball: a bare number, which
    # proves nothing, so certify runs the doubled run even where the Ball proves
    ctx = PrecisionContext(256, 32)
    nome = Nome.rational("1/2")
    runs = []

    def public(c):
        runs.append(c.bits)
        return qseries.G(nome, c)

    value, bits = certify(public, ctx)
    assert runs == [256, 512] and ctx.passes(bits)
    ball = _ROUTES["G"](nome, ctx)  # the kernel's own Ball is certified by its proof
    assert value == ball.mid and certify(lambda c: _ROUTES["G"](nome, c), ctx) == (
        ball.mid, _proven_bits(ball.mid, ball.rad, ctx))


# -- the transformed routes: the theta quotients near q = 1 and the modular relation

_QUOTIENTS = ("R", "G", "H", "E", "phi-", "phi+")
_WIDTHS = (64, 256, 1024)


def _takes_transform(name, nome, ctx):
    """Whether the route rule sends quotient `name` (phi+: theta_phi) at the nome
    through the transformed sums."""
    route = qseries._phi_route(nome, ctx) if name == "phi+" else qseries._quotient_route(nome, ctx, name)
    return route == "transformed"


def _phi_sum(nome, ctx):
    """theta_phi at the nome by its direct sum, whatever the route rule takes."""
    w, (x,) = numerics._fixed(ctx, "theta series", nome)
    return qseries._phi_sum(x, w, ctx)


def _crossover(takes, ctx):
    """The least nome m/10^6 from which takes(nome, ctx) holds: the first such
    nome past a route's crossover."""
    lo, hi = 1, 10**6 - 1
    assert not takes(Nome.rational(Fraction(lo, 10**6)), ctx) and takes(Nome.rational(Fraction(hi, 10**6)), ctx)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if takes(Nome.rational(Fraction(mid, 10**6)), ctx) else (mid, hi)
    return Nome.rational(Fraction(hi, 10**6))


def _nome_at(where, takes, ctx):
    """The nome a radius test runs at: the crossover of takes, an index into
    _NEAR, or e^(-pi/100) in exp-sqrt form."""
    if where == "crossover":
        return _crossover(takes, ctx)
    return _FAR[6] if where == "exp-sqrt" else _NEAR[where]


def _raw_balls(monkeypatch, module):
    """The (mantissa, exponent, units) each call of module._ball receives: the
    kernel's ball before its value is rounded to the context."""
    raw, ball = [], module._ball

    def recording(ctx, man, exp, units):
        raw.append((man, exp, units))
        return ball(ctx, man, exp, units)

    monkeypatch.setattr(module, "_ball", recording)
    return raw


def _exact(x):
    """An mpf as a Fraction."""
    sign, man, exp, _ = x._mpf_
    return (-1) ** sign * Fraction(man) * Fraction(2) ** exp


def _contains(first, second):
    """Whether two raw balls (mantissa, exponent, units) overlap."""
    (m1, e1, u1), (m2, e2, u2) = first, second
    two = Fraction(2)
    return abs(m1 * two**e1 - m2 * two**e2) <= u1 * two**e1 + u2 * two**e2


def _near_reference(name, nome, ctx, chain):
    """The quotient `name` at the nome from routes that share nothing with the
    transformation, as (value, radius): mpmath's qp and jtheta where q <= 9/10;
    otherwise R by the fraction at q, G and H by their Euler sums, E by the Euler
    sums' chain, phi(-q) as E(q) chi(-q) and phi(q) by its own direct sum."""
    mp = mpmath.mp
    wide = PrecisionContext(ctx.bits + 64, 32)
    q = wide.number(nome)
    with mp.workprec(ctx.bits + 64):
        if q <= 0.9:
            qp = mp.qp
            value = {
                "R": qp(q, q**5) * qp(q**4, q**5) / (qp(q**2, q**5) * qp(q**3, q**5)),
                "G": 1 / (qp(q, q**5) * qp(q**4, q**5)),
                "H": 1 / (qp(q**2, q**5) * qp(q**3, q**5)),
                "E": qp(q),
                "phi-": mp.jtheta(4, 0, q),
                "phi+": mp.jtheta(3, 0, q),
            }[name]
            return value, mp.ldexp(abs(value), -(ctx.bits + 48))
        if name == "R":
            value = cf.rr_cf(nome, wide).value / mp.root(q, 5)
            return value, mp.ldexp(abs(value), -(ctx.bits + 24))
        if name in ("G", "H"):
            return _ball(lambda c: _ROUTES[name](nome, c), wide)
        if name == "phi+":
            return _ball(lambda c: _phi_sum(nome, c), wide)
        euler = chain(nome, ctx)[0]
        if name == "phi-":
            euler *= qseries.chi(-q, wide)
        return euler, mp.ldexp(abs(euler), -(ctx.bits + 16))


@pytest.mark.parametrize("bits", _WIDTHS)
@pytest.mark.parametrize("where", ["crossover", 0, 1, 2], ids=["crossover", "near0", "near1", "near2"])
@pytest.mark.parametrize("name", _QUOTIENTS)
def test_transformed_quotient_radius(monkeypatch, euler_chain, name, where, bits):
    # the transformed sums' ball contains the doubled run, before and after its
    # rounding to the context, and an independent reference; at 1 - 1e-5,
    # 1 - 1e-6 and the first nome m/10^6 at which the cost rule takes them
    ctx = PrecisionContext(bits, 32)
    nome = _nome_at(where, lambda n, c: _takes_transform(name, n, c), ctx)
    route, sums = qseries._THETA_ROUTES[name]
    raw = _raw_balls(monkeypatch, qseries)

    def run(c):
        w, (x,) = numerics._fixed(c, route, nome)
        raw.clear()
        ball = qseries._poisson_quotient(x, w, c, route, sums)
        assert ball.rad is not None and len(raw) == 1
        return ball.mid, ball.rad, raw[0]

    v1, r1, b1 = run(ctx)
    v2, r2, b2 = run(ctx.widened(bits))
    assert abs(_exact(v1) - _exact(v2)) <= _exact(r1) + _exact(r2)
    assert _contains(b1, b2)
    ref, ref_radius = _near_reference(name, nome, ctx, euler_chain)
    mp = mpmath.mp
    with mp.workprec(2 * bits + 64):
        assert abs(mp.mpf(v1) - ref) <= r1 + ref_radius
    assert _proven_bits(v1, r1, ctx) >= bits - 16


def test_memo_hit_hands_the_radius_again():
    # while a command runs, a second request for a transformed quotient returns
    # the first one's Ball, radius and all
    token = numerics._MEMO.set({})
    try:
        first = qseries._theta_quotient(_NEAR[0], PrecisionContext(256, 32), "R")
        again = qseries._theta_quotient(_NEAR[0], PrecisionContext(256, 32), "R")
    finally:
        numerics._MEMO.reset(token)
    assert first.rad is not None and again is first


def test_memo_hands_a_named_route_its_own_ball():
    # past the crossover the memo holds the transformed quotient; a check that
    # names the direct sums runs them, and is never handed that Ball
    ctx, nome = PrecisionContext(256, 32), Nome.rational("99/100")
    token = numerics._MEMO.set({})
    try:
        transformed = qseries._theta_quotient(nome, ctx, "R")
        direct = qseries._direct_quotient(nome, ctx, "R")
    finally:
        numerics._MEMO.reset(token)
    assert transformed.rad is not None and direct.rad is None and direct == qseries._direct_quotient(nome, ctx, "R")


@pytest.mark.parametrize("bits", _WIDTHS)
@pytest.mark.parametrize(
    "where", ["crossover", 0, 1, 2, "exp-sqrt"], ids=["crossover", "near0", "near1", "near2", "exp-sqrt"]
)
@pytest.mark.parametrize("alternating", [False, True], ids=["R", "S"])
def test_relation_radius(monkeypatch, alternating, where, bits):
    # the modular relation's ball contains the doubled run, before and after its
    # rounding to the context, and the fraction at q (and mpmath's qp where
    # q <= 9/10); at _NEAR, at e^(-pi/100) in exp-sqrt form and at the first
    # nome m/10^6 the route rule takes it
    ctx = PrecisionContext(bits, 32)
    nome = _nome_at(where, lambda n, c: cf._rr_route(n, c, alternating) == "relation", ctx)
    raw = _raw_balls(monkeypatch, cf)

    def run(c):
        raw.clear()
        value, radius = _ball(lambda c: _result_ball(cf._by_relation(nome, c, alternating)), c)
        return value, radius, raw[-1]

    v1, r1, b1 = run(ctx)
    v2, r2, b2 = run(ctx.widened(bits))
    assert abs(_exact(v1) - _exact(v2)) <= _exact(r1) + _exact(r2)
    assert _contains(b1, b2)
    wide = PrecisionContext(2 * bits + 64, 32)
    q = wide.number(nome)
    refs = [-cf.rr_cf(-q, wide, RootMode.REAL_ODD).value if alternating else cf.rr_cf(q, wide).value]
    mp = mpmath.mp
    with mp.workprec(2 * bits + 64):
        if q <= 0.9:
            x = -q if alternating else q
            refs.append(mp.root(q, 5) * mp.qp(x, x**5) * mp.qp(x**4, x**5) / (mp.qp(x**2, x**5) * mp.qp(x**3, x**5)))
        for ref in refs:
            assert abs(mp.mpf(v1) - ref) <= r1 + mp.ldexp(abs(ref), -(bits + 32))
    assert _proven_bits(v1, r1, ctx) >= bits - 16


@pytest.mark.parametrize("decade", [2, 3, 4, 5])
def test_near_boundary_values_match_the_routes_at_q(decade):
    # the eval jobs near q = 1 at 256 bits: R and S by the proven relation against
    # the fraction at q at twice the width, and phi by its transformed sums against
    # its direct sum; each within its radius
    ctx = PrecisionContext(256, 32)
    nome = Nome.rational(Fraction(10**decade - 1, 10**decade))
    doubled = ctx.widened(ctx.bits)
    mp = doubled.mp
    q = doubled.number(nome)
    for alternating in (False, True):
        value, radius = _ball(lambda c: _result_ball(cf.rr_value(nome, c, alternating=alternating)), ctx)
        ref = -cf.rr_cf(-q, doubled, RootMode.REAL_ODD).value if alternating else cf.rr_cf(q, doubled).value
        assert abs(mp.mpf(value) - ref) <= radius + mp.ldexp(1, -(ctx.bits + 24))
    assert _takes_transform("phi+", nome, ctx) == (decade > 2)  # the direct sum at 1 - 10^-2
    value, radius = _ball(lambda c: qseries._theta_phi(nome, c), ctx)
    direct, direct_radius = _ball(lambda c: _phi_sum(nome, c), ctx)
    assert abs(mp.mpf(value) - direct) <= radius + direct_radius
