"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Shared heavy computations
(256-bit and 512-bit sweeps) happen once in the session fixture; criterion 11
replays every numeric value gathered along the way at doubled precision.
"""

from fractions import Fraction

import pytest

from rrlab.cf import (
    CFStatus,
    legendre5,
    rr_at_root_of_unity,
    rr_cf,
    rr_root_of_unity_direct,
    schur_classify,
)
from rrlab.identities import _POLY_DENOMS, asymptotic_check, jims_identity, verify
from rrlab.numerics import PrecisionContext, agree_bits, golden_phi
from rrlab.partitions import PartitionPredicate, count_partitions
from rrlab.qseries import series_G, series_H, theta_phi
from rrlab.special_values import (
    p_value,
    quintic_alpha_beta,
    quintic_uv,
    theta_quotient,
    verify_registry,
)

TOL60_EXP = -60
SCHUR_CONVERGENT = (2, 3, 4, 6, 7, 8, 9, 11)
SCHUR_DIVERGENT = (5, 10)
ASYMPTOTIC_GRID = (Fraction(2, 5), Fraction(1, 5), Fraction(1, 10), Fraction(1, 20))


def quintic_at_exp_pi(ctx) -> dict:
    """p, u, v, alpha and beta at q = e^-pi, with R(q) = u/(1 + sqrt(1 + p)) and
    R(q^4) = v/(1 + sqrt(1 + p)) formed from them alone."""
    mp = ctx.mp
    p = p_value(mp.exp(-mp.pi), ctx)
    u, v = quintic_uv(p, ctx)
    alpha, beta = quintic_alpha_beta(p, ctx)
    s = 1 + mp.sqrt(1 + p)
    return {"p": p, "u": u, "v": v, "alpha": alpha, "beta": beta, "r_q": u / s, "r_q4": v / s}


class AcceptanceData:
    def __init__(self):
        self.ctx = PrecisionContext(256, 32)
        self.ctx2 = PrecisionContext(512, 32)
        self.pairs = {}  # name -> (256-bit value, 512-bit value) for criterion 11

        self.registry_records = {}
        for ctx, slot in ((self.ctx, 0), (self.ctx2, 1)):
            for rec in verify_registry(ctx):
                self.registry_records.setdefault(rec["point"], [None, None])[slot] = rec
        for name, (r1, r2) in self.registry_records.items():
            self.pairs[f"special:{name}:direct"] = (r1["lhs"], r2["lhs"])
            self.pairs[f"special:{name}:closed"] = (r1["rhs"], r2["rhs"])

        self.theta_direct = []
        self.quintic = []
        self.modular = []
        self.schur_direct = []
        self.jims = []
        self.asymptotic = []
        for ctx in (self.ctx, self.ctx2):
            mp = ctx.mp
            self.theta_direct.append(
                theta_phi(mp.exp(-5 * mp.pi), ctx) / theta_phi(mp.exp(-mp.pi), ctx)
            )
            self.quintic.append(quintic_at_exp_pi(ctx))
            self.modular.append(verify("modular-relation", ctx, samples=4))
            self.schur_direct.append(
                {n: rr_root_of_unity_direct(n, 1, ctx) for n in SCHUR_CONVERGENT}
            )
            self.jims.append(jims_identity(ctx))
            ref = self.jims[-1]["cf"]
            self.asymptotic.append(
                {x: asymptotic_check(x, ctx, reference=ref)["error"] for x in ASYMPTOTIC_GRID}
            )
        self.pairs["theta:direct-ratio"] = tuple(self.theta_direct)
        for attr in ("p", "u", "v", "r_q", "r_q4"):
            self.pairs[f"quintic:{attr}"] = tuple(s[attr] for s in self.quintic)
        for i, rec in enumerate(self.modular[0].records):
            self.pairs[f"modular:{rec['point']}"] = (
                rec["lhs"],
                self.modular[1].records[i]["lhs"],
            )
        for n in SCHUR_CONVERGENT:
            self.pairs[f"schur:n={n}"] = (
                self.schur_direct[0][n].value,
                self.schur_direct[1][n].value,
            )
        self.pairs["jims:sum"] = (self.jims[0]["sum"], self.jims[1]["sum"])
        for x in ASYMPTOTIC_GRID:
            self.pairs[f"asymptotic:error(x={x})"] = (
                self.asymptotic[0][x],
                self.asymptotic[1][x],
            )

        # divergent roots: statuses only, never values
        self.divergent_status = {
            n: rr_root_of_unity_direct(n, 1, self.ctx).status for n in SCHUR_DIVERGENT
        }

    def tol60(self):
        return self.ctx.mp.mpf(10) ** TOL60_EXP


@pytest.fixture(scope="module")
def acc():
    return AcceptanceData()


def _report(n, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {detail}")
    assert ok, detail


def test_criterion_01_special_values(acc):
    wanted = (
        "eq2", "eq3", "eq5", "golden-r", "golden-s",
        "eq7", "eq8", "eq7-explicit", "chan-s-3", "chan-berndt-s-3-5",
    )
    tol = acc.tol60()
    worst = max(acc.registry_records[name][0]["abs_dev"] for name in wanted)
    ok = all(acc.registry_records[name][0]["abs_dev"] < tol for name in wanted)
    _report(1, ok, f"special values, {len(wanted)} entries, max |dev| = {acc.ctx.mp.nstr(worst, 4)} < 1e-60")


def test_criterion_02_theta_quotient(acc):
    ctx = acc.ctx
    mp = ctx.mp
    ratio = acc.theta_direct[0]
    closed_invariant = mp.sqrt(1 + 2 * golden_phi(ctx)) / mp.sqrt(5)
    closed_simplified = 1 / mp.sqrt(5 * mp.sqrt(5) - 10)
    d1 = abs(ratio - closed_invariant)
    d2 = abs(ratio - closed_simplified)
    d3 = abs(theta_quotient(1, ctx) - ratio)
    ok = max(d1, d2, d3) < acc.tol60()
    _report(2, ok, f"theta quotient at n=1, max |dev| = {mp.nstr(max(d1, d2, d3), 4)} < 1e-60")


def test_criterion_03_quintic_pipeline(acc):
    ctx = acc.ctx
    mp = ctx.mp
    st = acc.quintic[0]
    tol = acc.tol60()
    r_pi = rr_cf(mp.exp(-mp.pi), ctx=ctx).value
    r_4pi = rr_cf(mp.exp(-4 * mp.pi), ctx=ctx).value
    devs = [
        abs(st["r_q"] - r_pi),
        abs(st["r_q4"] - r_4pi),
        abs(st["u"] * st["v"] - st["p"]),
        abs(1 / r_pi - r_4pi - 2 / st["u"]),
        abs(1 / r_4pi - r_pi - 2 / st["v"]),
        abs(st["alpha"] * st["beta"] - st["p"] ** 3),
    ]
    ok = max(devs) < tol
    _report(3, ok, f"quintic pipeline at exp(-pi), max |dev| = {mp.nstr(max(devs), 4)} < 1e-60")


def test_criterion_04_modular_relation(acc):
    ctx = acc.ctx
    mp = ctx.mp
    rep = acc.modular[0]
    tol = acc.tol60()
    ok = rep.status == "pass" and mp.mpf(rep.max_deviation) < tol
    # the alpha = pi case reproduces the exp(-2 pi) evaluation
    r = rr_cf(mp.exp(-2 * mp.pi), ctx=ctx).value
    closed = mp.sqrt((5 + mp.sqrt(5)) / 2) - golden_phi(ctx)
    ok = ok and abs(r - closed) < tol
    _report(4, ok, f"modular relation over 4 alphas, max |dev| = {mp.nstr(mp.mpf(rep.max_deviation), 4)} < 1e-60")


def test_criterion_05_exact_formal_suites(acc):
    ctx = acc.ctx
    ok = series_G(2000).first_mismatch(series_G(2000, side="product"), 2000) is None
    ok = ok and series_H(2000).first_mismatch(series_H(2000, side="product"), 2000) is None
    details = ["G,H sum=product to order 2000"]
    for ident in ("R-identity-1", "R-identity-2", "cf-vs-product"):
        rep = verify(ident, ctx, samples=1, series_order=1000)
        formal_ok = all(
            r["abs_dev"] == 0 for r in rep.records if "order" in str(r["point"])
        ) and rep.status == "pass"
        ok = ok and formal_ok
        details.append(f"{ident} exact to order 1000")
    _report(5, ok, "; ".join(details))


def test_criterion_06_partition_oracle(acc):
    g = series_G(80)
    h = series_H(80)
    ok = True
    for n in range(0, 81):
        ok = ok and count_partitions(n, PartitionPredicate.DISTINCT_NONCONSECUTIVE) == g.coeff(n)
        ok = ok and count_partitions(n, PartitionPredicate.PARTS_1_4_MOD_5) == g.coeff(n)
        ok = ok and count_partitions(n, PartitionPredicate.DISTINCT_NONCONSECUTIVE_MIN2) == h.coeff(n)
        ok = ok and count_partitions(n, PartitionPredicate.PARTS_2_3_MOD_5) == h.coeff(n)
    _report(6, ok, "partition counts equal series coefficients exactly for n <= 80")


def test_criterion_07_finite_form(acc):
    rep = verify("finite-form", acc.ctx, samples=1)
    ok = rep.status == "pass" and all(r["abs_dev"] == 0 for r in rep.records)
    _report(7, ok, f"mu/nu = depth-n fraction exactly on {len(rep.records)} rational cases (n <= 12)")


def test_criterion_08_schur_suite(acc):
    ctx = acc.ctx
    mp = ctx.mp
    ok = True
    for n in range(1, 10_001):
        cls = schur_classify(n)
        if cls.diverges:
            ok = ok and n % 5 == 0
        else:
            ok = ok and (cls.lam * cls.rho * n) % 5 == 1 and cls.lam == legendre5(n)
    worst = mp.mpf(0)
    for n in SCHUR_CONVERGENT:
        direct = acc.schur_direct[0][n]
        ok = ok and direct.status is CFStatus.CONVERGED
        dev = abs(direct.value - rr_at_root_of_unity(n, 1, ctx))
        worst = max(worst, dev)
        ok = ok and dev < acc.tol60()
    for n in SCHUR_DIVERGENT:
        ok = ok and acc.divergent_status[n] is CFStatus.DIVERGES
    _report(
        8,
        ok,
        f"classification exact to n=10^4; direct roots max |dev| = {mp.nstr(worst, 4)} < 1e-60; "
        f"n=5,10 statuses {[acc.divergent_status[n].value for n in SCHUR_DIVERGENT]}",
    )


def test_criterion_09_jims_identity(acc):
    mp = acc.ctx.mp
    dev = abs(acc.jims[0]["sum"] - acc.jims[0]["target"])
    ok = dev < acc.tol60()
    _report(9, ok, f"series + fraction vs sqrt(pi*e/2), |dev| = {mp.nstr(dev, 4)} < 1e-60")


def test_criterion_10_asymptotic_property(acc):
    ctx = acc.ctx
    errs = [acc.asymptotic[0][x] for x in ASYMPTOTIC_GRID]
    ok = errs[0] > errs[1] > errs[2] > errs[3]
    # the approximation at x = 0.05 without its polynomial correction x/2 - sum x^(2i+2)/d_i
    ref, x = acc.jims[0]["cf"], ctx.real(Fraction(1, 20))
    approx = asymptotic_check(x, ctx, reference=ref)["approx"]
    polynomial = x / 2 - sum(x ** (2 * i + 2) / d for i, d in enumerate(_POLY_DENOMS))
    uncorrected = abs(approx - polynomial - ref)
    ok = ok and errs[3] < uncorrected
    _report(
        10,
        ok,
        "error strictly decreasing on x = 0.4, 0.2, 0.1, 0.05; "
        f"corrected {ctx.mp.nstr(errs[3], 3)} < uncorrected {ctx.mp.nstr(uncorrected, 3)} at x = 0.05",
    )


def test_criterion_11_precision_doubling(acc):
    ctx = acc.ctx
    need = ctx.bits - ctx.guard_bits  # 224
    worst_name, worst_bits = None, ctx.bits
    ok = True
    for name, (v1, v2) in acc.pairs.items():
        got = agree_bits(v1, v2, ctx)
        if got < worst_bits:
            worst_name, worst_bits = name, got
        ok = ok and got >= need
    _report(
        11,
        ok,
        f"{len(acc.pairs)} values recomputed at 512 bits; worst agreement "
        f"{worst_bits} bits ({worst_name}) >= {need}",
    )
