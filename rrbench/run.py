"""Run one rrlab benchmark workload, check every output, print its metrics.

    python3 rrbench/run.py --workload eval-ladder --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: the program under test is imported
from ``src/``.  Closed loop, one client, one process, no threads: each pass
runs the workload's job list in order, calling ``rrlab.cli.main(argv)``
in-process with stdout and stderr captured (library functions where the CLI
has no command).  Passes repeat until the next one would overrun
``--seconds`` (at least one pass).  References are computed before timing and
every output is checked after its pass.  Times are scaled to a reference
machine speed measured alongside the jobs (see speed.py).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every job
both plain and traced and reports the per-layer metrics of the traced runs,
plus the tracing overhead.  The last line of stdout is one JSON object; the job
list, per-job results and spans go to ``.bench_out/``.  ``--replay FILE``
reruns the job list stored in such a record.  ``--workload all`` runs every
workload, each in its own interpreter.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
    ("min_bits_ratio", "ratio"),
    ("peak_rss_mb", "MB"),
)
SETUP_SPAWNS = 7  # timed interpreter starts per run, after one untimed warm-up


def _load_program():
    """Put the checkout's src/ and rrbench/ on the path; refuse to run without them."""
    if not (SRC / "rrlab" / "cli.py").is_file():
        raise SystemExit(f"error: no rrlab sources at {SRC}; run from the root of a checkout")
    sys.path[:0] = [str(SRC), str(ROOT)]
    import rrlab.cli

    if Path(rrlab.cli.__file__).resolve().parent != SRC / "rrlab":
        raise SystemExit(f"error: imported rrlab from {rrlab.cli.__file__}, not {SRC}")


def measure_setup(spawns: int) -> tuple:
    """(median, raw median) seconds from starting a fresh interpreter until
    rrlab.cli is imported; each start is scaled to the reference speed by
    probes on either side of it (see speed.py).

    The child prints time.perf_counter() once the import is done; on Linux that
    clock is CLOCK_MONOTONIC, shared by all processes, so it compares with the
    parent's reading taken just before the spawn.
    """
    from rrbench.speed import probe, slowdown

    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    code = "import rrlab.cli, time; print(time.perf_counter()); print(rrlab.cli.__file__)"
    times = []
    for i in range(spawns + 1):
        before = [probe() for _ in range(5)]
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                              capture_output=True, text=True, timeout=60, check=True)
        done, path = proc.stdout.split()
        if Path(path).resolve().parent != SRC / "rrlab":
            raise SystemExit(f"error: setup child imported rrlab from {path}")
        if i:  # the first start may compile bytecode
            raw = float(done) - start
            times.append((raw / slowdown(before + [probe() for _ in range(5)]), raw))
    return statistics.median(t for t, _ in times), statistics.median(raw for _, raw in times)


def _percentiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0]
    return statistics.median(values), statistics.quantiles(values, n=10, method="inclusive")[8]


def _timed(job: dict, clock, tracer=None) -> dict:
    from rrbench.workloads import run_job

    if tracer is None:
        return run_job(job, clock)
    tracer.install()
    try:
        return run_job(job, clock)
    finally:
        tracer.uninstall()


def one_pass(jobs: list, refs: dict, tracer=None) -> dict:
    """One pass over the job list, checked after it ends.

    Job times are scaled to the reference speed by the probes near each job
    (see speed.py); raw times are kept too.  With a tracer every job runs
    twice, plain and traced, in alternating order, so that the two sums
    differ by the tracing cost and not by drift.
    """
    from rrbench.speed import Sampler
    from rrbench.workloads import check

    runs = []  # (job index, traced, outcome, start, end)
    with Sampler() as sampler:
        for i, job in enumerate(jobs):
            for t in (None,) if tracer is None else (None, tracer) if i % 2 else (tracer, None):
                start = time.perf_counter()
                outcome = _timed(job, sampler.clock, t)
                runs.append((i, t is not None, outcome, start, time.perf_counter()))
    results = []
    for i, traced, outcome, start, end in runs:
        failure, agree = check(jobs[i], outcome, refs.get(i))
        raw = outcome["seconds"]
        results.append({"job": i, "traced": traced, "raw_s": raw,
                        "seconds": raw / sampler.slowdown_between(start, end),
                        "failure": failure, "agree_bits": agree})
    plain = [r for r in results if not r["traced"]]
    done = {"wall_s": sum(r["seconds"] for r in plain), "raw_wall_s": sum(r["raw_s"] for r in plain),
            "jobs": results}
    if tracer is not None:
        from rrbench.tracer import PER_LAYER

        units = dict(PER_LAYER)
        traced = [r for r in results if r["traced"]]
        done["traced_wall_s"] = sum(r["seconds"] for r in traced)
        # spans are not tied to jobs, so layer times take the pass's mean scale
        scale = done["traced_wall_s"] / sum(r["raw_s"] for r in traced)
        done["layers"] = {k: v * scale if units[k] == "s" else v for k, v in tracer.layer_metrics().items()}
        done["spans"] = tracer.dump_spans()
        tracer.clear()
    return done


def measure(jobs: list, refs: dict, seconds: float, trace: bool) -> list:
    """Passes until the next one would end after `seconds` (at least one pass)."""
    from rrbench.tracer import Tracer

    tracer = Tracer() if trace else None
    passes = []
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        passes.append(one_pass(jobs, refs, tracer))
        now = time.perf_counter()
        if now - begin + (now - pass_start) > seconds:
            return passes


def end_to_end(jobs: list, passes: list, setup_s: float) -> dict:
    """End-to-end metrics; times at the reference speed of speed.py."""
    from rrbench.workloads import GUARD_BITS

    latencies = [r["seconds"] * 1e3 for p in passes for r in p["jobs"] if not r["traced"]]
    p50, p90 = _percentiles(latencies)
    ratios = [
        min(r["agree_bits"]) / (jobs[r["job"]].get("bits", 256) - GUARD_BITS)
        for p in passes for r in p["jobs"] if r["agree_bits"]
    ]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "job_p50_ms": p50,
        "job_p90_ms": p90,
        "min_bits_ratio": min(ratios),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(passes: list) -> dict:
    # median_low keeps counts whole
    values = {k: statistics.median_low(p["layers"][k] for p in passes) for k in passes[0]["layers"]}
    values["trace.overhead_s"] = statistics.median(p["traced_wall_s"] - p["wall_s"] for p in passes)
    return values


def report(workload: str, seed: int, jobs: list, passes: list, metrics: dict, units: dict) -> None:
    """Human-readable lines ahead of the JSON line."""
    from rrbench.workloads import GUARD_BITS

    runs = [r for p in passes for r in p["jobs"]]
    failed = [r for r in runs if r["failure"]]
    print(f"# {workload} seed={seed}: {len(passes)} passes x {len(jobs)} jobs, "
          f"{len(runs)} attempted, {len(failed)} failed, fail_ratio={len(failed) / len(runs):.4f}")
    walls = " ".join(f"{p['wall_s']:.4f}/{p['raw_wall_s']:.4f}" for p in passes)
    print(f"#   pass wall_s at reference speed / raw: {walls}")
    for r in failed:
        print(f"#   FAIL job {r['job']} {' '.join(jobs[r['job']].get('argv', [jobs[r['job']]['kind']]))}: {r['failure']}")
    for name, value in metrics.items():
        print(f"#   {name:<40} {value:.6g} {units[name]}")
    if "job_p90_ms" in metrics:
        beyond = len(runs) - int(0.9 * len(runs))
        print(f"#   job percentiles from {len(runs)} job runs ({beyond} at or beyond p90)")
    margins = [min(r["agree_bits"]) - (jobs[r["job"]].get("bits", 256) - GUARD_BITS) for r in runs if r["agree_bits"]]
    if margins:
        print(f"#   min_bits_margin {min(margins)} bits")
    for i, job in enumerate(jobs):
        if job.get("expect_exit"):
            print(f"#   job {i} {' '.join(job['argv'])}: exits {job['expect_exit']} as documented (known defect)")


def run_workload(args) -> int:
    _load_program()
    from rrbench import tracer, workloads

    # one CPU for the jobs, the probes and the setup children, so that the
    # probes see the speed of the CPU the measured code runs on
    with contextlib.suppress(OSError):  # a sandbox may refuse; run unpinned then
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    if args.replay:
        record = json.loads(Path(args.replay).read_text())
        workload, jobs = record["workload"], record["jobs"]
    else:
        workload, jobs = args.workload, workloads.generate(args.workload, args.seed)
    setup_s, raw_setup_s = (None, None) if args.trace else measure_setup(SETUP_SPAWNS)
    refs = workloads.prepare(jobs)
    passes = measure(jobs, refs, args.seconds, bool(args.trace))
    if args.trace:
        metrics, units = per_layer(passes), dict(tracer.PER_LAYER)
    else:
        metrics, units = end_to_end(jobs, passes, setup_s), dict(END_TO_END)
    attempted = sum(len(p["jobs"]) for p in passes)
    failed = sum(1 for p in passes for r in p["jobs"] if r["failure"])

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    spans = [p.pop("spans") for p in passes if "spans" in p]
    record = {"workload": workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
              "jobs": jobs, "passes": passes, "metrics": metrics, "raw_setup_s": raw_setup_s}
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1))
    if spans:
        stem.with_name(stem.name + "-spans.json").write_text(json.dumps(spans))

    report(workload, args.seed, jobs, passes, metrics, units)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, each in a fresh interpreter."""
    from_root = [sys.executable, str(Path(__file__).resolve())]
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in ("verify-all", "eval-ladder", "exact-series", "near-boundary"):
        proc = subprocess.run(
            [*from_root, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("verify-all", "eval-ladder", "exact-series", "near-boundary", "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", help="rerun the job list of this .bench_out record (its workload wins)")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
