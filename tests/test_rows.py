"""The rows {(A, B): e} of ``qseries._THETA_ROUTES`` against mpmath's q-Pochhammer.

A row is the product of the S_(A,B)^e, and by the Jacobi triple product
S_(A,B) = (q^A; q^A)(q^((A-B)/2); q^A)(q^((A+B)/2); q^A).  The exponents are
written out here once more, so that a changed exponent in the package fails a
test, and the products come from mpmath's ``qp``, a path that shares nothing
with the package's sparse sums or their transformation.  R's row is the
product of ``cf.R_ROW``, which also holds R's partial numerators and its
q^(1/5); every consumer of R reads that one row.
"""

from fractions import Fraction

import pytest

from rrlab import cf, identities, numerics, qseries
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


# -- R's row: every consumer reads it ------------------------------------------------

Q, ORDER = Fraction(1, 2), 60


def r_consumers(ctx):
    """R at q = 1/2 by its fraction and by its product, its exact series, and the
    sides and verdict of cf-vs-product's numeric record (q = 1/20) and exact twin."""
    numeric, exact = identities.verify("cf-vs-product", ctx, samples=1, series_order=ORDER).records
    ((_, *twin),) = identities._formal_cf_vs_product(ORDER, ctx)
    return {
        "rr_cf": cf.rr_cf(Q, ctx).value,
        "R_product": qseries.R_product(Q, ctx),
        "series_R": qseries.series_R(ORDER),
        "numeric record": (numeric["lhs"], numeric["rhs"], numeric["passed"]),
        "exact record": (*twin, exact["passed"]),
    }


RECORDS = {"numeric record", "exact record"}
# the field changed, the change, and the consumers that move
PERTURBATIONS = {
    "a_k = q^k": ("numerators", (1, 0), {"rr_cf"} | RECORDS),
    "prefactor 1/4": ("prefactor", Fraction(1, 4), {"rr_cf", "R_product", "series_R"} | RECORDS),
    **{f"S_{key} exponent {d:+}": ("product", (key, d), {"R_product", "series_R"} | RECORDS)
       for key in ((5, 3), (5, 1)) for d in (1, -1)},
}


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_every_consumer_reads_rs_row(monkeypatch, ctx, name):
    # a perturbed copy of the row for its terms and its prefactor; its product is
    # the very dict of the "R" route, so an exponent changes in place.  The
    # fraction and the product then disagree, and both records fail, unless only
    # the prefactor, which multiplies both, changed
    field, change, moves = PERTURBATIONS[name]
    assert qseries._THETA_ROUTES["R"][1] is cf.R_ROW.product
    before = r_consumers(ctx)
    if field == "product":
        key, d = change
        monkeypatch.setitem(cf.R_ROW.product, key, cf.R_ROW.product[key] + d)
    else:
        monkeypatch.setattr(cf, "R_ROW", cf.R_ROW._replace(**{field: change}))
    after = r_consumers(ctx)
    assert {consumer for consumer in before if before[consumer] != after[consumer]} == moves
    assert [after[record][-1] for record in sorted(RECORDS)] == [field == "prefactor"] * 2
    # the exact series are in t = q^(1/d) times t^c for the row's prefactor q^(c/d)
    c, d = cf.R_ROW.prefactor.numerator, cf.R_ROW.prefactor.denominator
    for series in (after["series_R"], *after["exact record"][:2]):
        assert all(e % d == c for e in range(series.offset, series.order + 1) if series.coeff(e))
