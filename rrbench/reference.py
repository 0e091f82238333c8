"""Reference values computed without rrlab.

Everything here uses mpmath and plain Python integers only, and follows
routes that rrlab does not take:

* G, H and R come from the Jacobi triple product, G = theta_G/E and
  H = theta_H/E, where theta_G, theta_H and Euler's E = (q;q)_inf are sparse
  alternating series (rrlab sums the Rogers-Ramanujan series, evaluates the
  continued fraction, or multiplies the products out);
* chi comes from Euler functions, chi(q) = E(q^2)^2 / (E(q) E(q^4));
* phi is mpmath's jtheta(3, 0, q);
* cf2 is sqrt(pi e / 2) * erfc(1/sqrt 2) (Jim's identity solved for the
  fraction);
* exact series use Euler's pentagonal recurrence for the partition numbers
  and the same sparse theta series.

Near q = 1 the sparse series cancel down to about exp(-pi^2/(6t)) with
t = -ln|q|, so every reference built on them adds that many guard bits.
"""

from __future__ import annotations

import math
from fractions import Fraction

from mpmath.ctx_mp import MPContext

# (a, b) of the sparse series 1 + sum_{n>=1} (-1)^n (q^(n(an-b)/2) + q^(n(an+b)/2))
_THETA_G = (5, 1)
_THETA_H = (5, 3)
_EULER = (3, 1)


def context(prec: int) -> MPContext:
    mp = MPContext()
    mp.prec = prec
    return mp


def nome(mp: MPContext, spec: dict):
    """q from a job's nome spec: {"q": "a/b"}, {"exp_arg": s} or {"exp_sqrt": n}."""
    if "q" in spec:
        f = Fraction(spec["q"])
        return mp.mpf(f.numerator) / f.denominator
    if "exp_arg" in spec:
        f = Fraction(spec["exp_arg"])
        return mp.exp(-mp.pi * mp.mpf(f.numerator) / f.denominator)
    f = Fraction(spec["exp_sqrt"])
    return mp.exp(-mp.pi * mp.sqrt(mp.mpf(f.numerator) / f.denominator))


def guard_bits(q) -> int:
    """Bits lost to cancellation in the sparse series at |q| (< 1)."""
    t = -math.log(float(abs(q)))
    return math.ceil(math.pi**2 / (6 * t * math.log(2))) + 48


def _sparse(mp: MPContext, q, ab):
    # consecutive exponents differ by a*n + (a -+ b)/2, so each term is the
    # previous one times a step that itself grows by q^a
    a, b = ab
    eps = mp.ldexp(1, -mp.prec - 8)
    qa = q**a
    lo, hi = q ** ((a - b) // 2), q ** ((a + b) // 2)
    step_lo, step_hi = lo * qa, hi * qa
    total = mp.mpf(1)
    sign = -1
    while True:
        total += sign * (lo + hi)
        if abs(lo) < eps:
            return total
        lo *= step_lo
        hi *= step_hi
        step_lo *= qa
        step_hi *= qa
        sign = -sign


_TARGETS = ("R", "S", "G", "H", "phi", "chi")


def value(target: str, spec: dict, bits: int):
    """target(q) at q = nome(spec), good to about 2*bits bits; an mpf at prec 2*bits."""
    if target not in _TARGETS:
        raise ValueError(f"no reference for {target!r}")
    if target == "phi":
        mp = context(2 * bits + 16)
        return context(2 * bits).mpf(mp.jtheta(3, 0, nome(mp, spec)))
    mp = context(2 * bits + guard_bits(nome(context(64), spec)))
    q = nome(mp, spec)
    if target == "chi":
        out = _sparse(mp, q**2, _EULER) ** 2 / (_sparse(mp, q, _EULER) * _sparse(mp, q**4, _EULER))
    elif target == "G":
        out = _sparse(mp, q, _THETA_G) / _sparse(mp, q, _EULER)
    elif target == "H":
        out = _sparse(mp, q, _THETA_H) / _sparse(mp, q, _EULER)
    else:
        # R(q) = q^(1/5) H/G and S(q) = -R(-q) with the real fifth root,
        # i.e. q^(1/5) H(-q)/G(-q); E cancels from both quotients.
        x = q if target == "R" else -q
        out = mp.root(q, 5) * _sparse(mp, x, _THETA_H) / _sparse(mp, x, _THETA_G)
    return context(2 * bits).mpf(out)


def cf2(bits: int):
    """The fraction 1/1+ 1/1+ 2/1+ 3/1+ ... = sqrt(pi e/2) erfc(1/sqrt 2)."""
    mp = context(2 * bits + 16)
    return context(2 * bits).mpf(mp.sqrt(mp.pi * mp.e / 2) * mp.erfc(1 / mp.sqrt(2)))


_POLY_DENOMS = (12, 360, 5040, 60480, 1710720)


def asymptotic(x: Fraction, bits: int):
    """x sqrt(e) sum_{n>=1} exp(-(1+nx)^2/2) + x/2 - sum_i x^(2i+2)/d_i."""
    mp = context(2 * bits + 16)
    xv = mp.mpf(x.numerator) / x.denominator
    eps = mp.ldexp(1, -2 * bits - 8) * xv
    total = mp.mpf(0)
    n = 1
    while True:
        term = mp.exp(-((1 + n * xv) ** 2) / 2)
        total += term
        if term < eps:
            break
        n += 1
    approx = xv * mp.sqrt(mp.e) * total + xv / 2
    for i, d in enumerate(_POLY_DENOMS):
        approx -= xv ** (2 * i + 2) / d
    return context(2 * bits).mpf(approx)


def special_value(name: str, bits: int):
    """Direct value of each entry of `rrlab values check all`, by name."""
    mp = context(2 * bits)
    if name == "golden-r":
        return (mp.sqrt(5) - 1) / 2  # R(1)
    if name == "golden-s":
        return (mp.sqrt(5) + 1) / 2  # S(1)
    if name == "theta-ratio-1":
        return value("phi", {"exp_arg": "5"}, bits) / value("phi", {"exp_arg": "1"}, bits)
    target, n = _REGISTRY_POINTS[name]
    return value(target, {"exp_sqrt": n}, bits)


# entry -> (function, n) with q = exp(-pi sqrt n)
_REGISTRY_POINTS = {
    "eq2": ("R", "4"),
    "eq3": ("S", "1"),
    "eq5": ("R", "20"),
    "eq7": ("R", "16"),
    "eq7-explicit": ("R", "16"),
    "eq8": ("R", "36"),
    "chan-s-3": ("S", "3"),
    "chan-berndt-s-3-5": ("S", "3/5"),
}

REGISTRY_NAMES = tuple(sorted([*_REGISTRY_POINTS, "golden-r", "golden-s", "theta-ratio-1"]))


# -- exact series --------------------------------------------------------------


def _sparse_coeffs(ab, order: int) -> list:
    a, b = ab
    out = [0] * (order + 1)
    out[0] = 1
    n = 1
    while n * (a * n - b) // 2 <= order:
        for e in (n * (a * n - b) // 2, n * (a * n + b) // 2):
            if e <= order:
                out[e] += (-1) ** n
        n += 1
    return out


def partition_numbers(order: int) -> list:
    """p(0..order) by Euler's pentagonal recurrence."""
    p = [0] * (order + 1)
    p[0] = 1
    for n in range(1, order + 1):
        total = 0
        k = 1
        while True:
            g1 = k * (3 * k - 1) // 2
            if g1 > n:
                break
            sign = 1 if k % 2 else -1
            total += sign * p[n - g1]
            g2 = g1 + k
            if g2 <= n:
                total += sign * p[n - g2]
            k += 1
        p[n] = total
    return p


def _sparse_times(sparse: list, dense: list, order: int) -> list:
    terms = [(e, c) for e, c in enumerate(sparse) if c]
    out = [0] * (order + 1)
    for e, c in terms:
        for j in range(order + 1 - e):
            out[e + j] += c * dense[j]
    return out


def series_GH(which: str, order: int, partitions: list) -> list:
    """Coefficients 0..order of G or H: theta_G/E or theta_H/E, E^-1 = sum p(n) q^n."""
    ab = _THETA_G if which == "G" else _THETA_H
    return _sparse_times(_sparse_coeffs(ab, order), partitions, order)


def series_R(order: int) -> list:
    """Coefficients of t^1..t^order of R = t * (theta_H/theta_G)(t^5)."""
    m = order // 5 + 1
    g = _sparse_coeffs(_THETA_G, m)
    h = _sparse_coeffs(_THETA_H, m)
    g_terms = [(e, c) for e, c in enumerate(g) if c and e]
    ratio = [0] * (m + 1)
    for n in range(m + 1):
        acc = h[n]
        for e, c in g_terms:
            if e > n:
                break
            acc -= c * ratio[n - e]
        ratio[n] = acc
    return [ratio[(e - 1) // 5] if (e - 1) % 5 == 0 else 0 for e in range(1, order + 1)]
