"""Proven radii against the doubled run they replace, and against mpmath.

The Euler-sum kernel (G, H, chi), theta at q >= 0 and the cf2 fraction hand
certify a radius with their value (numerics._prove).  These tests keep the
doubled evaluation as the oracle: a first run and its doubled run must lie
within the sum of their radii, a value within its radius of an independent
mpmath reference where one is cheap (near q = 1, Poisson summation), and
certify must take the doubled run exactly when the radius proves fewer than
bits - guard_bits bits.
"""

from fractions import Fraction

import mpmath
import pytest

from rrlab import identities, numerics, qseries
from rrlab.numerics import Nome, PrecisionContext, _bits, certify

_ROUTES = {
    "G": qseries.G,
    "H": qseries.H,
    "chi": qseries.chi,
    "theta_phi": qseries.theta_phi,
}

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
    """fn(ctx) and the one radius proved for that value."""
    proofs = []
    token = numerics._PROOFS.set(proofs)
    try:
        value = fn(ctx)
    finally:
        numerics._PROOFS.reset(token)
    radii = [r for v, r in proofs if v is value]
    assert len(radii) == 1, proofs
    return value, radii[0]


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
    for bits, guard in _CONTEXTS:
        if bits < 1024 or guard == 32:  # the 2048-bit run alone takes seconds
            yield pytest.param("cf2", None, bits, guard, id=f"cf2-{bits}-{guard}")


def _fn(name, nome):
    if name == "cf2":
        return lambda c: identities.cf2_value(c)[0]
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
        assert abs(mp.mpf(value) - ref) <= radius + mp.ldexp(abs(ref), -(bits + 56))


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
    value, radius = _ball(lambda c: qseries.G(Nome.rational("99999/100000"), c), ctx)
    assert _proven_bits(value, radius, ctx) >= 225


def test_routes_without_a_proof_report_none():
    ctx = PrecisionContext(256, 32)
    for fn in (
        lambda c: qseries.G(Nome.rational("-1/2"), c),
        lambda c: qseries.G(Nome.rational("1/2"), c, "product"),
        lambda c: qseries.theta_phi(Nome.rational("-1/2"), c),
        lambda c: qseries.S(Nome.rational("1/2"), c),
    ):
        proofs = []
        token = numerics._PROOFS.set(proofs)
        try:
            fn(ctx)
        finally:
            numerics._PROOFS.reset(token)
        assert proofs == []
