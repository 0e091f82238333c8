"""The rows {(A, B): e} of ``qseries._THETA_ROUTES`` against mpmath's q-Pochhammer.

A row is the product of the S_(A,B)^e, and by the Jacobi triple product
S_(A,B) = (q^A; q^A)(q^((A-B)/2); q^A)(q^((A+B)/2); q^A).  The exponents are
written out here once more, so that a changed exponent in the package fails a
test, and the products come from mpmath's ``qp``, a path that shares nothing
with the package's sparse sums or their transformation.
"""

from fractions import Fraction

import pytest

from rrlab import numerics, qseries
from rrlab.numerics import agree_bits

ROWS = {
    "R": {(5, 3): 1, (5, 1): -1},  # (q; q^5)(q^4; q^5) / ((q^2; q^5)(q^3; q^5))
    "G": {(5, 1): 1, (3, 1): -1},  # 1/((q; q^5)(q^4; q^5))
    "H": {(5, 3): 1, (3, 1): -1},  # 1/((q^2; q^5)(q^3; q^5))
    "E": {(3, 1): 1},  # (q; q)
    "phi-": {(2, 0): 1},  # (q^2; q^2)(q; q^2)^2
    "phi+": {(4, 0): 2, (2, 0): -1},  # (q^2; q^2)(-q; q^2)^2
}


def triple_products(row, q, mp):
    return mp.fprod(mp.qp(q**f, q**a) ** e for (a, b), e in row.items() for f in (a, (a - b) // 2, (a + b) // 2))


def test_the_table_has_these_rows():
    assert list(qseries._THETA_ROUTES) == list(ROWS)


@pytest.mark.parametrize("name", ROWS)
@pytest.mark.parametrize("q", ["1/10", "1/2", "9/10", "-3/10"])
def test_row_matches_its_triple_products(ctx, name, q):
    # by the direct sums everywhere, and by the transformed sums where they are
    # defined, q > 0: each to bits - guard_bits at 256 bits
    route, row = qseries._THETA_ROUTES[name]
    w, (x,) = numerics._fixed(ctx, route, Fraction(q))
    wide = ctx.widened(64).mp
    reference = triple_products(ROWS[name], wide.mpf(Fraction(q).numerator) / Fraction(q).denominator, wide)
    kernels = (qseries._direct_quotient, qseries._poisson_quotient) if x > 0 else (qseries._direct_quotient,)
    for kernel in kernels:
        value = kernel(x, w, ctx, route, row).mid
        assert agree_bits(value, ctx.mp.mpf(reference), ctx) >= ctx.bits - ctx.guard_bits, kernel.__name__
