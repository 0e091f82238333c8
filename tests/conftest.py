import functools
from fractions import Fraction

import pytest

from rrlab.numerics import PrecisionContext
from rrlab.qseries import G, H


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(256, 32)


@pytest.fixture(scope="session")
def ctx512():
    return PrecisionContext(512, 32)


@pytest.fixture(scope="session")
def ctx128():
    return PrecisionContext(128, 32)


def _poisson(name, nome, mp):
    """G, H, chi or theta_phi at 0 < q < 1 by Poisson summation, at the
    precision of the mpmath context mp; nome is a Fraction or a Nome.

    With q = e^-h, Poisson summation of S_(A,B)(q) = sum over all m of
    (-1)^m q^((A m^2 - B m)/2) gives

        S_(A,B) = 2 sqrt(2 pi/(h A)) e^(h B^2/(8A))
                  * sum over odd j >= 1 of e^(-pi^2 j^2/(2 h A)) cos(pi B j/(2A)),

    and of theta_3 = sum q^(m^2), sqrt(pi/h) (1 + 2 sum_(j>=1) e^(-pi^2 j^2/h)).
    By the Jacobi triple product G = S_(5,1)/E and H = S_(5,3)/E with
    E = (q; q)_inf = S_(3,1), and chi(q) = E(q^2)^2/(E(q) E(q^4)).  Near q = 1
    these take a few terms where the series and products take O(1/(1 - q)),
    so they are an independent reference there.  G's log-derivative in h is
    about pi^2/(15 h): at q = 1 - 10^-5, h's relative error grows 2^16 times,
    so work at 2 bits + 64 or wider.
    """
    form, arg = ("rational", nome) if isinstance(nome, Fraction) else (nome.form, nome.arg)
    arg = mp.mpf(arg.numerator) / arg.denominator
    if form == "rational":
        h = -mp.log(arg)
    elif form == "exp":
        h = mp.pi * arg
    else:  # exp-sqrt
        h = mp.pi * mp.sqrt(arg)
    cut = (mp.prec + 16) * mp.log(2)  # drop terms 2^-(prec + 16) below the first

    def theta_sum(a, b, k):  # S_(A,B)(q^k)
        hk = k * h
        total = mp.zero
        for j in range(1, 1 << 20, 2):
            if mp.pi**2 * (j * j - 1) / (2 * hk * a) > cut:
                break
            total += mp.exp(-mp.pi**2 * j * j / (2 * hk * a)) * mp.cos(mp.pi * b * j / (2 * a))
        return 2 * mp.sqrt(2 * mp.pi / (hk * a)) * mp.exp(hk * b * b / (8 * a)) * total

    if name == "theta_phi":
        total = mp.one
        for j in range(1, 1 << 20):
            if mp.pi**2 * j * j / h > cut:
                break
            total += 2 * mp.exp(-mp.pi**2 * j * j / h)
        return mp.sqrt(mp.pi / h) * total
    if name == "chi":
        return theta_sum(3, 1, 2) ** 2 / (theta_sum(3, 1, 1) * theta_sum(3, 1, 4))
    return theta_sum(5, {"G": 1, "H": 3}[name], 1) / theta_sum(3, 1, 1)


@pytest.fixture(scope="session")
def poisson():
    """The Poisson-summation reference near q = 1 (``_poisson``)."""
    return _poisson


@functools.lru_cache(maxsize=16)
def _euler_chain(nome, ctx):
    """(q; q)_inf and the G and H series at q, for a Nome 0 < q < 1, from the
    Euler sums alone: G(q) H(q) = (q^5; q^5)_inf/(q; q)_inf, applied until
    q^(5^k) < 1/2, where mpmath's qp takes over; the powers of q are formed at
    twice the context's bits, and each sum runs 32 bits wider."""
    wide = PrecisionContext(ctx.bits + 32, ctx.guard_bits)
    mp = PrecisionContext(2 * ctx.bits, 32).mp
    power, out, first = mp.convert(nome), 1, None
    while power > 0.5:
        g, h = G(power, wide), H(power, wide)
        first = first or (g, h)
        out *= g * h
        power = power**5
    return mp.qp(power) / out, *first


@pytest.fixture(scope="session")
def euler_chain():
    """(q; q)_inf, G and H near q = 1 from the Euler sums alone (``_euler_chain``)."""
    return _euler_chain
