"""Seeded job lists, job execution and output checks for the four workloads.

A job is a JSON-able dict with a ``kind``.  CLI jobs carry the ``argv`` given
to ``rrlab.cli.main``; library jobs (the partition oracle and the cross-route
checks, which the CLI has no command for) carry their arguments.  The same
seed always yields the same list.

Costs grow steeply with some inputs (iterations go as 1/(1 - q) near the
boundary, and the exact series are quadratic in the order), so every job sits
at a fixed design point and the seed only moves its input within a narrow
band around it.  Different seeds therefore give different nomes, orders and
n, while one pass costs about the same on every seed, which keeps runs with
different seeds comparable.
"""

from __future__ import annotations

import io
import json
import math
import random
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

from . import reference as ref

WORKLOADS = ("verify-all", "eval-ladder", "exact-series", "near-boundary")
GUARD_BITS = 32  # the CLI default; the precision contract is bits - GUARD_BITS
PREDICATES = (  # (predicate, series whose coefficients count it)
    ("distinct-nonconsecutive", "G"),
    ("parts-1-4-mod-5", "G"),
    ("distinct-nonconsecutive-min2", "H"),
    ("parts-2-3-mod-5", "H"),
)
EXPECTED_IDENTITIES = (
    "R-identity-1", "R-identity-2", "cf-vs-product", "cubic", "entry15a",
    "entry15a-corollary", "factorization-1", "factorization-2",
    "factorization-product", "finite-form", "jims", "k-param",
    "modular-relation", "quintic-corollary", "schur-consistency",
)
_GRID_IDENTITIES = ("cf-vs-product", "R-identity-1", "R-identity-2")


def _rational(x: float, den: int) -> str:
    return str(Fraction(round(x * den), den))


# -- generators ------------------------------------------------------------------------


def _verify_all(rng: random.Random) -> list:
    samples = rng.randint(8, 12)
    argv = ["verify", "all", "--format", "json", "--samples", str(samples)]
    return [{"kind": "verify", "argv": argv, "ids": list(EXPECTED_IDENTITIES),
             "samples": samples, "series_order": 150}]


_LADDER_TARGETS = ("R", "S", "G", "H", "phi", "chi")
# design points, nearest q = 0.9 first: q itself, s in exp(-pi s), n in exp(-pi sqrt n)
_Q_POINTS = (0.88, 0.8, 0.7, 0.55, 0.35, 0.15)
_EXP_ARG_POINTS = (1 / 20, 1 / 8, 1 / 4, 1 / 2, 1, 2)
_EXP_SQRT_POINTS = (1 / 400, 1 / 64, 1 / 16, 1 / 4, 1, 4)


def _eval_job(target: str, bits: int, nome: dict, extra=()) -> dict:
    (flag, arg), = nome.items()
    argv = ["eval", target, "--" + flag.replace("_", "-"), arg, "--bits", str(bits),
            "--format", "json", *extra]
    return {"kind": "eval", "argv": argv, "target": target, "bits": bits, "nome": nome}


def _eval_ladder(rng: random.Random) -> list:
    jobs = []
    for level, bits in enumerate((256, 512, 1024)):
        for j, target in enumerate(_LADDER_TARGETS):
            # 1 - q, s and n each move by at most 5 % from their design point
            q = 1 - (1 - _Q_POINTS[(j + 2 * level) % 6]) * (1 + 0.05 * rng.random())
            s = _EXP_ARG_POINTS[(j + 2 * level + 2) % 6] * (1 + 0.05 * rng.random())
            n = _EXP_SQRT_POINTS[(j + 2 * level + 4) % 6] * (1 + 0.05 * rng.random())
            for nome in ({"q": _rational(q, 10**4)}, {"exp_arg": _rational(s, 10**4)},
                         {"exp_sqrt": _rational(n, 10**6)}):
                jobs.append(_eval_job(target, bits, nome))
        jobs.append({"kind": "values", "bits": bits,
                     "argv": ["values", "check", "all", "--bits", str(bits), "--format", "json"]})
    jobs.append({"kind": "cf2", "target": "cf2", "bits": 256, "argv": ["eval", "cf2", "--format", "json"]})
    for x in (1 / 20, 1 / 10, 1 / 5, 2 / 5):
        x = _rational(x * (1 + 0.05 * rng.random()), 10**4)
        jobs.append({"kind": "asymptotic", "x": x, "bits": 256,
                     "argv": ["asymptotic", x, "--format", "json"]})
    return jobs


def _exact_series(rng: random.Random) -> list:
    # One low-order R expansion besides the two bands makes 17 jobs, so that
    # the median falls among the G and H jobs at ~5000 and the p90 among the
    # R-identity-2 jobs at ~960, not between jobs of different cost, whatever
    # the number of passes.
    series = [(which, base) for which in ("G", "H", "R") for base in (5000, 9600)] + [("R", 1000)]
    jobs = []
    for which, base in series:
        order = base + rng.randrange(100)
        jobs.append({"kind": "series", "which": which, "order": order,
                     "argv": ["series", which, "--order", str(order), "--format", "json"]})
    for ident in _GRID_IDENTITIES:
        for base in (600, 960):
            m = base + rng.randrange(20)
            jobs.append({"kind": "verify", "ids": [ident], "samples": 10, "series_order": m,
                         "argv": ["verify", ident, "--series-order", str(m), "--format", "json"]})
    for predicate, _ in PREDICATES:
        # n well below 75 keeps these jobs clear of the median job's cost
        jobs.append({"kind": "partitions", "n": rng.randint(60, 62), "predicate": predicate})
    return jobs


def _boundary_q(rng: random.Random, decade: int, pinned: bool) -> str:
    """q = 1 - 1/N with N = 10^decade, or 10^(decade - u) for seeded u in [0, 0.02)."""
    n = 10**decade if pinned else math.floor(10 ** (decade - 0.02 * rng.random()))
    return f"{n - 1}/{n}"


def _near_boundary(rng: random.Random) -> list:
    # The costliest jobs (G and H at 1 - 10^-5, the product routes at 0.999)
    # are pinned to their documented points; they are most of a pass.
    # The other eval jobs run three times, so that this single-pass workload
    # still has several job runs at its median and its p90.
    jobs = []
    for target in ("R", "S", "phi", "G", "H"):
        for decade in (2, 3, 4, 5):
            pinned = decade == 5 and target in ("G", "H")
            q = _boundary_q(rng, decade, pinned)
            jobs += [_eval_job(target, 256, {"q": q})] * (1 if pinned else 3)
    for decade in (2, 3):
        jobs.append(_eval_job("chi", 256, {"q": _boundary_q(rng, decade, pinned=decade == 3)}))
        jobs.append({"kind": "xroute_R", "bits": 256, "q": _boundary_q(rng, decade, pinned=decade == 3)})
    jobs.append({"kind": "xroute_GH", "bits": 256, "q": _boundary_q(rng, 2, pinned=False)})
    # the documented cap: G at 1 - 10^-6 needs more terms than --max-iter allows
    capped = _eval_job("G", 256, {"q": "999999/1000000"}, ("--max-iter", "200000"))
    capped.update(kind="capped", expect_exit=3)
    jobs.append(capped)
    return jobs


_GENERATORS = {
    "verify-all": _verify_all,
    "eval-ladder": _eval_ladder,
    "exact-series": _exact_series,
    "near-boundary": _near_boundary,
}


def generate(workload: str, seed: int) -> list:
    """The workload's job list for this seed (same seed, same list)."""
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


# -- references (computed before any timing) ----------------------------------------------


def _referable(nome: dict) -> bool:
    """Sparse-series references stay cheap while 1 - q >= 10^-3."""
    if "q" not in nome:
        return True
    return 1 - Fraction(nome["q"]) >= Fraction(1, 1000)


def prepare(jobs: list) -> dict:
    """References for every job, keyed by job index."""
    refs, done = {}, {}
    orders = [j["order"] for j in jobs if j["kind"] == "series"]
    orders += [j["n"] for j in jobs if j["kind"] == "partitions"]
    exact = {}
    if orders:
        top = max(orders)
        p = ref.partition_numbers(top)
        exact = {"G": ref.series_GH("G", top, p), "H": ref.series_GH("H", top, p)}
    for i, job in enumerate(jobs):
        key = json.dumps(job, sort_keys=True)  # a job listed twice is prepared once
        if key in done:
            refs[i] = done[key]
            continue
        kind, bits = job["kind"], job.get("bits", 256)
        if kind == "eval" and (job["target"] == "phi" or _referable(job["nome"])):
            refs[i] = ref.value(job["target"], job["nome"], bits)
        elif kind == "cf2":
            refs[i] = ref.cf2(bits)
        elif kind == "asymptotic":
            refs[i] = (ref.asymptotic(Fraction(job["x"]), bits), ref.cf2(bits))
        elif kind == "values":
            refs[i] = {name: ref.special_value(name, bits) for name in ref.REGISTRY_NAMES}
        elif kind == "series":
            refs[i] = ref.series_R(job["order"]) if job["which"] == "R" else exact[job["which"]]
        elif kind == "partitions":
            refs[i] = exact[dict(PREDICATES)[job["predicate"]]][job["n"]]
        elif kind == "xroute_R" and _referable(job):
            refs[i] = ref.value("R", {"q": job["q"]}, bits)
        elif kind == "xroute_GH" and _referable(job):
            refs[i] = (ref.value("G", {"q": job["q"]}, bits), ref.value("H", {"q": job["q"]}, bits))
        done[key] = refs.get(i)
    return refs


# -- execution -----------------------------------------------------------------------------


def _library_call(job: dict):
    from rrlab import cf, numerics, partitions, qseries

    if job["kind"] == "partitions":
        return partitions.count_partitions(job["n"], partitions.PartitionPredicate(job["predicate"]))
    ctx = numerics.PrecisionContext(job["bits"], GUARD_BITS)
    q = ctx.real(Fraction(job["q"]))
    if job["kind"] == "xroute_R":
        return ctx, cf.rr_cf(q, ctx=ctx), qseries.R_product(q, ctx=ctx)
    return (ctx, qseries.G(q, ctx), qseries.G(q, ctx, "product"),
            qseries.H(q, ctx), qseries.H(q, ctx, "product"))


def run_job(job: dict, clock=time.perf_counter) -> dict:
    """Run one job, timing only the call into rrlab by `clock`; never raises."""
    import rrlab.cli

    out, err = io.StringIO(), io.StringIO()
    result, error, code = None, None, None
    start = clock()
    try:
        if "argv" in job:
            with redirect_stdout(out), redirect_stderr(err):
                code = rrlab.cli.main(list(job["argv"]))
        else:
            result = _library_call(job)
    except SystemExit as exc:  # argparse rejecting the argv
        code = exc.code
    except Exception as exc:  # a raised exception is a failed job, not a crashed run
        error = f"{type(exc).__name__}: {exc}"
    seconds = clock() - start
    return {"seconds": seconds, "code": code, "stdout": out.getvalue(),
            "stderr": err.getvalue(), "result": result, "error": error}


# -- checks ---------------------------------------------------------------------------------


class CheckFailed(Exception):
    pass


def _require(cond: bool, reason: str):
    if not cond:
        raise CheckFailed(reason)


def _digits(bits: int) -> int:
    return int((bits - GUARD_BITS) * math.log10(2))


def _close(printed, reference, bits: int) -> bool:
    """A printed value (digits the precision earns) against a reference at 2*bits."""
    mp = ref.context(2 * bits)
    v, r = mp.mpf(printed), mp.mpf(reference)
    tol = 2 * mp.mpf(10) ** (1 - _digits(bits)) * abs(r) + 4 * mp.ldexp(1, GUARD_BITS - bits) * max(1, abs(r))
    return abs(v - r) <= tol


def _agreement_bits(a, b, bits: int) -> int:
    mp = ref.context(2 * bits)
    a, b = mp.mpf(a), mp.mpf(b)
    d = abs(a - b)
    if d == 0:
        return bits
    scale = max(abs(a), abs(b), mp.mpf(1))
    return max(0, min(bits, int(mp.floor(-mp.log(d / scale, 2)))))


def _json(outcome: dict):
    try:
        return json.loads(outcome["stdout"])
    except ValueError:
        raise CheckFailed(f"stdout is not JSON: {outcome['stdout'][:80]!r}") from None


def _check_eval(job, outcome, reference):
    data = _json(outcome)
    _require(data.get("target") == job["target"], f"target {data.get('target')!r}")
    _require(data.get("status") == "converged", f"status {data.get('status')!r}")
    if reference is not None:
        _require(_close(data["value"], reference, job["bits"]),
                 f"value {data['value'][:30]}... differs from the reference")
    return [data["agree_bits"]]


def _check_values(job, outcome, reference):
    data = _json(outcome)
    names = sorted(r["name"] for r in data)
    _require(names == list(ref.REGISTRY_NAMES), f"entries {names}")
    for r in data:
        _require(r["passed"] is True, f"{r['name']} not passed")
        _require(_close(r["closed"], reference[r["name"]], job["bits"]),
                 f"{r['name']} closed value differs from the reference")
    return [r["agree_bits"] for r in data]


def _check_asymptotic(job, outcome, reference):
    data = _json(outcome)
    approx, cf2 = reference
    _require(data.get("x") == job["x"], f"x {data.get('x')!r}")
    _require(_close(data["approx"], approx, job["bits"]), "approx differs from the reference")
    _require(_close(data["reference"], cf2, job["bits"]), "reference differs from cf2")
    _require(_close(data["error"], abs(approx - cf2), job["bits"]), "error differs")
    return []


def _check_series(job, outcome, reference):
    data = _json(outcome)
    lowest = 1 if job["which"] == "R" else 0
    _require(data.get("order") == job["order"], f"order {data.get('order')}")
    _require(data.get("lowest_exponent") == lowest, f"lowest exponent {data.get('lowest_exponent')}")
    coeffs = [int(c) for c in data["coeffs"]]
    expected = reference[: job["order"] - lowest + 1]
    _require(len(coeffs) == len(expected), f"{len(coeffs)} coefficients")
    bad = next((i for i, (a, b) in enumerate(zip(coeffs, expected)) if a != b), None)
    _require(bad is None, f"coefficient {bad} (from the lowest exponent) differs")
    return []


def _check_verify(job, outcome, reference):
    data = _json(outcome)
    ids = [r["id"] for r in data]
    _require(ids == job["ids"], f"identities {ids}")
    bits = []
    for rep in data:
        _require(rep["status"] == "pass", f"{rep['id']}: status {rep['status']}")
        numeric = [r["agree_bits"] for r in rep["records"] if r["agree_bits"] is not None]
        bits += numeric
        if rep["id"] in _GRID_IDENTITIES:
            _require(len(numeric) == job["samples"], f"{rep['id']}: {len(numeric)} numeric records")
            through = f"exact through order {job['series_order']}"
            _require(any(through in r["point"] for r in rep["records"]),
                     f"{rep['id']}: no record {through!r}")
    return bits


def _check_partitions(job, outcome, reference):
    got = outcome["result"]
    _require(got == reference, f"count {got} != {reference}")
    return []


def _check_xroute(job, outcome, reference):
    ctx, *values = outcome["result"]
    bits = job["bits"]
    if job["kind"] == "xroute_R":
        cf_res, product = values
        _require(cf_res.status.value == "converged", f"cf status {cf_res.status.value}")
        pairs = [("R cf vs product", cf_res.value, product)]
        refs = [(cf_res.value, reference)]
    else:
        g_s, g_p, h_s, h_p = values
        pairs = [("G series vs product", g_s, g_p), ("H series vs product", h_s, h_p)]
        refs = [] if reference is None else [(g_s, reference[0]), (h_s, reference[1])]
    agree = []
    for label, a, b in pairs:
        agree.append(_agreement_bits(a, b, bits))
        _require(agree[-1] >= bits - GUARD_BITS, f"{label}: {agree[-1]} bits")
    for got, r in refs:
        if r is not None:
            _require(_agreement_bits(got, r, bits) >= bits - GUARD_BITS, "differs from the reference")
    return agree


def _check_capped(job, outcome, reference):
    _require("did not converge" in outcome["stderr"], f"stderr {outcome['stderr'][:60]!r}")
    return []


_CHECKS = {
    "eval": _check_eval,
    "cf2": _check_eval,
    "values": _check_values,
    "asymptotic": _check_asymptotic,
    "series": _check_series,
    "verify": _check_verify,
    "partitions": _check_partitions,
    "xroute_R": _check_xroute,
    "xroute_GH": _check_xroute,
    "capped": _check_capped,
}


def check(job: dict, outcome: dict, reference) -> tuple:
    """(failure reason or None, agree_bits of the job's values) for one run of a job."""
    if outcome["error"] is not None:
        return f"raised {outcome['error']}", []
    expected = job.get("expect_exit", 0) if "argv" in job else None
    if outcome["code"] != expected:
        return f"exit {outcome['code']} (expected {expected}): {outcome['stderr'].strip()[:120]}", []
    try:
        return None, _CHECKS[job["kind"]](job, outcome, reference)
    except CheckFailed as exc:
        return str(exc), []
    except (KeyError, TypeError, ValueError) as exc:
        return f"malformed output: {type(exc).__name__}: {exc}", []
