"""The route table: what each of the three route functions returns.

``cf._rr_route`` (R and S: the fraction at q or the modular relation),
``qseries._quotient_route`` (a theta quotient: its direct sums or their
Jacobi imaginary transformation) and ``qseries._phi_route`` (theta_phi at
q >= 0: its sum or the transformed quotient; both at the nome as converted
once) price their plans and choose by
``cf._cheapest``.  The table pins their choices at rational, exp and exp-sqrt
nomes, at -q where the route exists, at 64 to 4,096 bits, and on each side of
every crossover: the last nome m/10^6 before it and the first after it
(found by bisection).  Plans are cheap, so the table runs no kernel.
"""

from fractions import Fraction

import pytest

from rrlab import cf, numerics, qseries
from rrlab.numerics import Nome, PrecisionContext


def _converted(route, *name):
    """A route function of the converted nome (x, W) as a function of the nome."""

    def choose(q, c):
        w, (x,) = numerics._fixed(c, "route table", q)
        return route(x, w, c, *name)

    return choose


_ROUTE_FUNCTIONS = {
    "rr R": lambda q, c: cf._rr_route(q, c),
    "rr S": lambda q, c: cf._rr_route(q, c, alternating=True),
    **{f"quotient {name}": _converted(qseries._quotient_route, qseries._THETA_ROUTES[name][1])
       for name in ("R", "G", "H", "E", "phi-")},
    "phi": _converted(qseries._phi_route),
}
_DEFAULT = {"rr": "fraction", "quotient": "direct", "phi": "sum"}  # the route below each crossover
_OTHER = {"rr": "relation", "quotient": "transformed", "phi": "transformed"}

# (function, bits, route): the nomes at which the function takes the route
_GRID = {
    ('rr R', 64, 'fraction'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2",
    ('rr R', 64, 'relation'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('rr S', 64, 'fraction'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16",
    ('rr S', 64, 'relation'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient R', 64, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp:1/100 exp-sqrt:3 exp-sqrt:1/16 exp-sqrt:1/10000 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient R', 64, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/1000 exp-sqrt:1/1000000",
    ('quotient G', 64, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp:1/100 exp-sqrt:3 exp-sqrt:1/16 exp-sqrt:1/10000 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient G', 64, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/1000 exp-sqrt:1/1000000",
    ('quotient H', 64, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp:1/100 exp-sqrt:3 exp-sqrt:1/16 exp-sqrt:1/10000 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient H', 64, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/1000 exp-sqrt:1/1000000",
    ('quotient E', 64, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient E', 64, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient phi-', 64, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient phi-', 64, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('phi', 64, 'sum'): "q:1/10 q:1/2 q:9/10 q:99/100 q:999/1000 exp:2 exp:1/2 exp:1/100 exp:1/1000 exp-sqrt:3 exp-sqrt:1/16 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('phi', 64, 'transformed'): "q:99999/100000",
    ('rr R', 256, 'fraction'): "q:1/10 exp:2 exp:1/2 exp-sqrt:3 q:-1/10",
    ('rr R', 256, 'relation'): "q:1/2 q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/16 exp-sqrt:1/10000 exp-sqrt:1/1000000 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('rr S', 256, 'fraction'): "q:1/10 exp:2 exp:1/2 exp-sqrt:3",
    ('rr S', 256, 'relation'): "q:1/2 q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/16 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient R', 256, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient R', 256, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient G', 256, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient G', 256, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient H', 256, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient H', 256, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient E', 256, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient E', 256, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient phi-', 256, 'direct'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient phi-', 256, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('phi', 256, 'sum'): "q:1/10 q:1/2 q:9/10 q:99/100 exp:2 exp:1/2 exp:1/100 exp:1/1000 exp-sqrt:3 exp-sqrt:1/16 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('phi', 256, 'transformed'): "q:999/1000 q:99999/100000",
    ('rr R', 1024, 'fraction'): "q:1/10 exp:2 exp-sqrt:3 q:-1/10",
    ('rr R', 1024, 'relation'): "q:1/2 q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/2 exp:1/100 exp:1/1000 exp-sqrt:1/16 exp-sqrt:1/10000 exp-sqrt:1/1000000 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('rr S', 1024, 'fraction'): "q:1/10 exp:2 exp:1/2 exp-sqrt:3",
    ('rr S', 1024, 'relation'): "q:1/2 q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/16 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient R', 1024, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient R', 1024, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient G', 1024, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient G', 1024, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient H', 1024, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient H', 1024, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient E', 1024, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient E', 1024, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient phi-', 1024, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient phi-', 1024, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('phi', 1024, 'sum'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp:1/100 exp-sqrt:3 exp-sqrt:1/16 exp-sqrt:1/10000",
    ('phi', 1024, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/1000 exp-sqrt:1/1000000",
    ('rr R', 4096, 'fraction'): "q:1/10 exp:2 exp:1/2 exp-sqrt:3 q:-1/10",
    ('rr R', 4096, 'relation'): "q:1/2 q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/16 exp-sqrt:1/10000 exp-sqrt:1/1000000 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('rr S', 4096, 'fraction'): "q:1/10 exp:2 exp:1/2 exp-sqrt:3",
    ('rr S', 4096, 'relation'): "q:1/2 q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/16 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient R', 4096, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient R', 4096, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient G', 4096, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient G', 4096, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient H', 4096, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient H', 4096, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient E', 4096, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient E', 4096, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('quotient phi-', 4096, 'direct'): "q:1/10 q:1/2 exp:2 exp:1/2 exp-sqrt:3 exp-sqrt:1/16 q:-1/10 q:-1/2 q:-9/10 q:-99/100 q:-999/1000 q:-99999/100000",
    ('quotient phi-', 4096, 'transformed'): "q:9/10 q:99/100 q:999/1000 q:99999/100000 exp:1/100 exp:1/1000 exp-sqrt:1/10000 exp-sqrt:1/1000000",
    ('phi', 4096, 'sum'): "q:1/10 q:1/2 q:9/10 exp:2 exp:1/2 exp:1/100 exp-sqrt:3 exp-sqrt:1/16 exp-sqrt:1/10000",
    ('phi', 4096, 'transformed'): "q:99/100 q:999/1000 q:99999/100000 exp:1/1000 exp-sqrt:1/1000000",
}
_CROSSOVERS = {
    'rr R': {64: (660618, -667633), 256: (272840, -375414), 1024: (172165, -288870), 4096: (260769, -365806)},
    'rr S': {64: 667633, 256: 375414, 1024: 288870, 4096: 365806},
    'quotient R': {64: 979865, 256: 963707, 1024: 898507, 4096: 836601},
    'quotient G': {64: 972899, 256: 953066, 1024: 871251, 4096: 793916},
    'quotient H': {64: 972783, 256: 952871, 1024: 870787, 4096: 793458},
    'quotient E': {64: 966667, 256: 940331, 1024: 836829, 4096: 742971},
    'quotient phi-': {64: 950419, 256: 912460, 1024: 766841, 4096: 641326},
    'phi': {64: 999477, 256: 996955, 1024: 986191, 4096: 972118},
}


def _nome(spec):
    form, arg = spec.split(":")
    return {"q": Nome.rational, "exp": Nome.exp, "exp-sqrt": Nome.exp_sqrt}[form](arg)


@pytest.mark.parametrize("function", _ROUTE_FUNCTIONS)
def test_route_table(function):
    choose, kind = _ROUTE_FUNCTIONS[function], function.split()[0]
    for (name, bits, route), specs in _GRID.items():
        if name == function:
            for spec in specs.split():
                assert choose(_nome(spec), PrecisionContext(bits, 32)) == route, (spec, bits)
    for bits, first in _CROSSOVERS[function].items():
        for m in first if isinstance(first, tuple) else (first,):
            before = m - (1 if m > 0 else -1)
            sides = [choose(Nome.rational(Fraction(k, 10**6)), PrecisionContext(bits, 32)) for k in (before, m)]
            assert sides == [_DEFAULT[kind], _OTHER[kind]], (m, bits)


def test_cheapest_takes_the_least_cost_and_the_first_of_a_tie():
    # a plan costs the sum of its steps at _step_cost of their widths; None cannot run
    assert cf._cheapest({"a": [(2, 256)], "b": [(1, 256), (1, 256)]}) == "a"
    assert cf._cheapest({"a": [(3, 256)], "b": [(1, 256), (1, 512)], "c": None}) == "b"
    assert cf._cheapest({"a": None, "b": []}) == "b"
