"""Tests of the benchmark itself: python3 -m pytest rrbench -q (from the repo root)."""

from __future__ import annotations

import copy
import time
import json
from fractions import Fraction
from pathlib import Path

import pytest

from rrbench import run

run._load_program()

from rrbench import reference, tracer, workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


# -- generator -------------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs(workload):
    assert workloads.generate(workload, 7) == workloads.generate(workload, 7)
    json.dumps(workloads.generate(workload, 7))  # storable for replay


def _inputs(jobs, key):
    return [j.get(key) for j in jobs]


@pytest.mark.parametrize("workload, keys", [
    ("eval-ladder", ("nome", "x")),
    ("exact-series", ("order", "series_order", "n")),
    ("near-boundary", ("nome", "q")),
])
def test_other_seed_other_inputs(workload, keys):
    a, b = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert [j["kind"] for j in a] == [j["kind"] for j in b]
    for key in keys:
        assert _inputs(a, key) != _inputs(b, key), key


def test_verify_all_samples_follow_the_seed():
    samples = {workloads.generate("verify-all", s)[0]["samples"] for s in range(20)}
    assert samples == set(range(8, 13))


# -- checks --------------------------------------------------------------------------------


def _checked(job, mutate=None):
    refs = workloads.prepare([job])
    outcome = workloads.run_job(job)
    if mutate is not None:
        mutate(outcome)
    return workloads.check(job, outcome, refs.get(0))[0]


def _edit_json(fn):
    def mutate(outcome):
        data = json.loads(outcome["stdout"])
        fn(data)
        outcome["stdout"] = json.dumps(data)
    return mutate


def _bump_last_digit(s: str) -> str:
    return s[:-1] + str((int(s[-1]) + 5) % 10)


EVAL_R = workloads._eval_job("R", 256, {"exp_arg": "2"})


def test_clean_outputs_pass():
    assert _checked(EVAL_R) is None
    assert _checked({"kind": "partitions", "n": 30, "predicate": "parts-2-3-mod-5"}) is None


@pytest.mark.parametrize("job, mutate", [
    (EVAL_R, _edit_json(lambda d: d.update(value=_bump_last_digit(d["value"][:40])))),
    (EVAL_R, _edit_json(lambda d: d.update(status="max-iterations"))),
    (EVAL_R, lambda o: o.update(code=3)),
    (EVAL_R, lambda o: o.update(error="RuntimeError: boom")),
    (EVAL_R, lambda o: o.update(stdout="not json")),
    ({"kind": "series", "which": "H", "order": 60, "argv": ["series", "H", "--order", "60", "--format", "json"]},
     _edit_json(lambda d: d["coeffs"].__setitem__(41, str(int(d["coeffs"][41]) + 1)))),
    ({"kind": "series", "which": "R", "order": 60, "argv": ["series", "R", "--order", "60", "--format", "json"]},
     _edit_json(lambda d: d.update(order=59))),
    ({"kind": "partitions", "n": 30, "predicate": "distinct-nonconsecutive"},
     lambda o: o.update(result=o["result"] + 1)),
    ({"kind": "verify", "ids": ["cf-vs-product"], "samples": 2, "series_order": 50,
      "argv": ["verify", "cf-vs-product", "--samples", "2", "--series-order", "50", "--format", "json"]},
     _edit_json(lambda d: d[0].update(status="fail"))),
    ({"kind": "verify", "ids": ["cf-vs-product"], "samples": 2, "series_order": 50,
      "argv": ["verify", "cf-vs-product", "--samples", "2", "--series-order", "50", "--format", "json"]},
     _edit_json(lambda d: d[0]["records"].pop())),
])
def test_corrupted_output_fails(job, mutate):
    assert _checked(job) is None
    assert _checked(job, mutate) is not None


def test_corrupted_cross_route_fails():
    job = {"kind": "xroute_R", "bits": 256, "q": "9/10"}
    assert _checked(job) is None

    def skew(outcome):
        ctx, res, product = outcome["result"]
        outcome["result"] = (ctx, res, product * (1 + ctx.mp.ldexp(1, -200)))

    assert _checked(job, skew) is not None


def test_capped_job_must_exit_3():
    job = workloads._eval_job("G", 256, {"q": "1/2"}, ("--max-iter", "5"))
    job.update(kind="capped", expect_exit=3)
    assert _checked(job) is None
    assert _checked(dict(job, argv=job["argv"][:-2])) is not None  # no cap: exit 0, a failure


# -- references --------------------------------------------------------------------------------


def test_references_match_mpmath_products():
    mp = reference.context(300)
    q = mp.mpf(1) / 3
    qp = mp.qp
    g = 1 / (qp(q, q**5) * qp(q**4, q**5))
    h = 1 / (qp(q**2, q**5) * qp(q**3, q**5))
    spec = {"q": "1/3"}
    for target, expected in (("G", g), ("H", h), ("R", mp.root(q, 5) * h / g), ("chi", qp(-q, q**2))):
        assert abs(reference.value(target, spec, 140) - expected) < mp.mpf(10) ** -80


def test_reference_series_match_products():
    order = 120
    p = reference.partition_numbers(order)
    for which, residues in (("G", (1, 4)), ("H", (2, 3))):
        direct = [1] + [0] * order  # prod 1/(1 - q^k) over the residues, by hand
        for k in range(1, order + 1):
            if k % 5 in residues:
                for j in range(k, order + 1):
                    direct[j] += direct[j - k]
        assert reference.series_GH(which, order, p) == direct
    g, h = (reference.series_GH(w, 30, p) for w in "GH")
    ratio = [0] * 31  # h/g by plain long division
    for n in range(31):
        ratio[n] = h[n] - sum(g[k] * ratio[n - k] for k in range(1, n + 1))
    r = reference.series_R(150)
    assert [r[5 * k] for k in range(30)] == ratio[:30]
    assert all(c == 0 for e, c in enumerate(r) if e % 5)


# -- tracer -------------------------------------------------------------------------------


def _originals_still_bound() -> list:
    """(owner, attribute) pairs in rrlab that still hold an unwrapped traced function."""
    originals = set()
    for module, path in tracer.TRACED.values():
        fn = tracer._resolve(module, path)
        originals.add(id(getattr(fn, "__wrapped__", fn)))
    return [
        (getattr(owner, "__name__", owner), attr)
        for owner, namespace in tracer._rrlab_namespaces()
        for attr, value in namespace.items()
        if id(value) in originals and not hasattr(value, "__wrapped__")
    ]


@pytest.fixture
def installed():
    t = tracer.Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_every_binding_is_replaced(installed):
    assert _originals_still_bound() == []
    import rrlab
    from rrlab import formal, qseries

    assert formal.FormalSeries.__rmul__ is formal.FormalSeries.__mul__
    assert hasattr(qseries.product_one_minus_inv, "__wrapped__")
    assert hasattr(rrlab.eval_infinite, "__wrapped__")


def test_uninstall_restores_originals():
    from rrlab import cf, numerics

    before = (cf.eval_infinite, numerics.PrecisionContext.__init__)
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert (cf.eval_infinite, numerics.PrecisionContext.__init__) == before
    assert len(_originals_still_bound()) >= len(tracer.TRACED)
    assert not hasattr(cf.eval_infinite, "__wrapped__")


def test_exact_counts_on_a_fixed_input(installed):
    # R(e^-2pi): 9 iterations at 256 bits plus 12 in the 512-bit self-check
    assert _checked(EVAL_R) is None
    m = installed.layer_metrics()
    assert m["cli.main.calls"] == 1
    assert m["cf.eval_infinite.calls"] == 2
    assert m["cf.eval_infinite.iterations"] == 21
    assert m["cf.eval_infinite.maxiter_calls"] == 0
    assert m["numerics.PrecisionContext.calls"] == 2
    assert m["numerics.root.calls"] == 2
    assert m["numerics.agree_bits.calls"] == 1


def test_rmul_alias_and_work_counters(installed):
    from rrlab.formal import FormalSeries

    a = FormalSeries([1, 1, 1])
    3 * a
    FormalSeries([1, 2]) * a
    a.reciprocal()
    m = installed.layer_metrics()
    assert m["formal.mul.calls"] == 2
    assert m["formal.mul.coeff_products"] == 3 + 3
    assert m["formal.reciprocal.terms"] == 3


def test_maxiter_runs_count_as_wasted(installed):
    from rrlab import cf, numerics

    ctx = numerics.PrecisionContext(64, 16, 300)
    assert cf.rr_root_of_unity_direct(5, 1, ctx).status.value == "max-iterations"
    cf.rr_cf(Fraction(1, 2), ctx=ctx)
    m = installed.layer_metrics()
    assert m["cf.eval_infinite.maxiter_calls"] == 1
    wasted = 300 / m["cf.eval_infinite.iterations"]
    assert m["cf.eval_infinite.wasted_iter_ratio"] == pytest.approx(wasted)


# -- BENCHMARK.json ----------------------------------------------------------------------


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    assert set(tracer.Tracer().layer_metrics()) | {"trace.overhead_s"} == {n for n, _ in tracer.PER_LAYER}


def test_printed_end_to_end_names():
    jobs = [copy.deepcopy(EVAL_R)]
    passes = [run.one_pass(jobs, workloads.prepare(jobs))]
    metrics = run.end_to_end(jobs, passes, setup_s=0.2)
    assert list(metrics) == [n for n, _ in run.END_TO_END]
    assert all(v > 0 for v in metrics.values())


def test_refuses_to_run_without_sources(monkeypatch):
    monkeypatch.setattr(run, "SRC", ROOT / "rrbench" / "no-such-src")
    with pytest.raises(SystemExit) as exc:
        run._load_program()
    assert exc.value.code != 0


# -- speed correction ---------------------------------------------------------------------


def test_sampler_takes_probe_time_out_of_the_clock():
    from rrbench.speed import PROBE_INTERVAL_S, Sampler

    with Sampler() as sampler:
        start, clock_start = time.perf_counter(), sampler.clock()
        while time.perf_counter() - start < 4 * PROBE_INTERVAL_S:
            pass
        wall, clocked = time.perf_counter() - start, sampler.clock() - clock_start
    assert len(sampler.probes) >= 10 + 2
    assert 0 < wall - clocked <= sampler.paused


def test_slowdown_comes_from_probes_near_the_job():
    from rrbench.speed import PROBE_REF_S, WINDOW_S, Sampler

    sampler = Sampler()
    sampler.times = [0.0, 1.0, 2.0, 3.0]
    sampler.probes = [PROBE_REF_S, 2 * PROBE_REF_S, 4 * PROBE_REF_S, PROBE_REF_S]
    assert sampler.slowdown_between(2.0 - WINDOW_S / 2, 2.0) == pytest.approx(4)
    # a job spanning a 2x and a 4x probe ran at the mean speed, (1/2 + 1/4) / 2
    assert sampler.slowdown_between(1.0, 2.0) == pytest.approx(8 / 3)
