"""Outside-in tracer: wraps rrlab's public functions from the benchmark side.

rrlab modules import names directly (``from .numerics import root``), the
package re-exports them, and ``FormalSeries.__rmul__`` is a second name for
``__mul__``.  Patching one module attribute would therefore miss calls, so
``install`` replaces *every* binding of each traced function object found in
any ``rrlab`` module or class namespace, and ``uninstall`` puts the originals
back.  Spans (name, start, end, parent, tag) stay in memory; ``layer_metrics``
reduces them to per-layer counts and self times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

from .workloads import EXPECTED_IDENTITIES

# metric prefix -> (module, attribute path) of the traced function
TRACED = {
    "cli.main": ("rrlab.cli", "main"),
    "cf.eval_infinite": ("rrlab.cf", "eval_infinite"),
    "cf.eval_finite": ("rrlab.cf", "eval_finite"),
    "qseries.pochhammer_inf": ("rrlab.qseries", "pochhammer_inf"),
    "qseries.chi": ("rrlab.qseries", "chi"),
    "qseries.R_product": ("rrlab.qseries", "R_product"),
    "qseries.G": ("rrlab.qseries", "G"),
    "qseries.H": ("rrlab.qseries", "H"),
    "qseries.theta_phi": ("rrlab.qseries", "theta_phi"),
    "qseries.S": ("rrlab.qseries", "S"),
    "qseries.series_G": ("rrlab.qseries", "series_G"),
    "qseries.series_H": ("rrlab.qseries", "series_H"),
    "qseries.series_R": ("rrlab.qseries", "series_R"),
    "formal.mul": ("rrlab.formal", "FormalSeries.__mul__"),
    "formal.reciprocal": ("rrlab.formal", "FormalSeries.reciprocal"),
    "formal.product_one_minus": ("rrlab.formal", "product_one_minus"),
    "formal.product_one_minus_inv": ("rrlab.formal", "product_one_minus_inv"),
    "partitions.count_partitions": ("rrlab.partitions", "count_partitions"),
    "identities.verify": ("rrlab.identities", "verify"),
    "special_values.verify_registry": ("rrlab.special_values", "verify_registry"),
    "special_values.evaluate": ("rrlab.special_values", "evaluate"),
    "numerics.PrecisionContext": ("rrlab.numerics", "PrecisionContext.__init__"),
    "numerics.root": ("rrlab.numerics", "root"),
    "numerics.agree_bits": ("rrlab.numerics", "agree_bits"),
}

# (metric name, unit): calls/self_s for most layers, inclusive s where the
# table names a function's total, and the work counters read from results
PER_LAYER = (
    [(f"{p}.{m}", u) for p in (
        "cli.main", "cf.eval_infinite", "cf.eval_finite", "qseries.pochhammer_inf",
        "formal.mul", "formal.reciprocal", "partitions.count_partitions",
        "identities.verify", "numerics.PrecisionContext", "numerics.root",
        "numerics.agree_bits",
    ) for m, u in (("calls", "count"), ("self_s", "s"))]
    + [(f"qseries.{f}.s", "s") for f in (
        "chi", "R_product", "G", "H", "theta_phi", "S", "series_G", "series_H", "series_R",
    )]
    + [
        ("cf.eval_infinite.iterations", "count"),
        ("cf.eval_infinite.maxiter_calls", "count"),
        ("cf.eval_infinite.wasted_iter_ratio", "ratio"),
        ("formal.mul.coeff_products", "count"),
        ("formal.reciprocal.terms", "count"),
        ("formal.product_one_minus.self_s", "s"),
        ("formal.product_one_minus_inv.self_s", "s"),
        ("partitions.enumerated", "count"),
        ("special_values.verify_registry.s", "s"),
        ("special_values.evaluate.self_s", "s"),
    ]
    + [(f"identities.verify.s.{i}", "s") for i in EXPECTED_IDENTITIES]
    + [("trace.overhead_s", "s")]
)


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


def _rrlab_namespaces():
    """(owner, namespace dict) for every rrlab module and every class it defines."""
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "rrlab" or name.startswith("rrlab.")):
            continue
        yield mod, vars(mod)
        for value in vars(mod).values():
            if isinstance(value, type) and value.__module__ == name:
                yield value, vars(value)


class Tracer:
    """Span recorder plus the patching that feeds it."""

    def __init__(self):
        self.spans: list = []  # [name, start, end, parent index, tag, nested]
        self.counters: dict = defaultdict(int)
        self._stack: list = []
        self._active: dict = defaultdict(int)
        self._patched: list = []  # (owner, attribute, original)

    # -- patching --------------------------------------------------------------

    def install(self) -> None:
        import rrlab.cli  # noqa: F401  (loads every rrlab module)

        if self._patched:
            raise RuntimeError("tracer already installed")
        wrappers = {}
        for span, (module, path) in TRACED.items():
            original = _resolve(module, path)
            wrappers[id(original)] = (original, self._wrap(span, original))
        for owner, namespace in _rrlab_namespaces():
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, attr, hit[1])
                    self._patched.append((owner, attr, value))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        count = _COUNTERS.get(name)
        spans, stack, active = self.spans, self._stack, self._active
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            tag = args[0] if name == "identities.verify" else None
            span = [name, clock(), 0.0, stack[-1] if stack else -1, tag, active[name] > 0]
            spans.append(span)
            stack.append(index)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                active[name] -= 1
                stack.pop()
            if count is not None:
                count(self.counters, args, result)
            return result

        return traced

    # -- reduction ---------------------------------------------------------------

    def clear(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def layer_metrics(self) -> dict:
        """Per-layer values of the recorded spans, keyed like PER_LAYER."""
        calls = defaultdict(int)
        total = defaultdict(float)  # outermost spans only, so recursion counts once
        child = [0.0] * len(self.spans)
        per_id = defaultdict(float)
        for name, start, end, parent, tag, nested in self.spans:
            calls[name] += 1
            if not nested:
                total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
            if tag is not None:
                per_id[tag] += end - start
        own = defaultdict(float)
        for (name, start, end, *_), inner in zip(self.spans, child):
            own[name] += end - start - inner
        c = self.counters
        iterations = c["cf.eval_infinite.iterations"]
        values = {}
        for metric, _unit in PER_LAYER:
            prefix, _, kind = metric.rpartition(".")
            if kind == "calls":
                values[metric] = calls[prefix]
            elif kind == "self_s":
                values[metric] = own[prefix]
            elif kind == "s":
                values[metric] = total[prefix]
            elif metric.startswith("identities.verify.s."):
                values[metric] = per_id[metric.removeprefix("identities.verify.s.")]
            elif metric == "cf.eval_infinite.wasted_iter_ratio":
                values[metric] = c["cf.eval_infinite.maxiter_iterations"] / iterations if iterations else 0.0
            elif metric != "trace.overhead_s":
                values[metric] = c[metric]
        return values

    def dump_spans(self) -> list:
        return [
            {"name": n, "start": s, "end": e, "parent": p, **({"id": t} if t else {})}
            for n, s, e, p, t, _ in self.spans
        ]


# -- work counters read from arguments and results ------------------------------


def _count_cf(c, args, result):
    c["cf.eval_infinite.iterations"] += result.iterations
    if result.status.value == "max-iterations":
        c["cf.eval_infinite.maxiter_calls"] += 1
        c["cf.eval_infinite.maxiter_iterations"] += result.iterations


def _count_mul(c, args, result):
    # computed from operand sizes: the schoolbook product touches every pair
    # (i, j) with i + j below the result length, zeros included
    a, b = args
    if hasattr(b, "nterms"):
        n = min(a.nterms, b.nterms)
        c["formal.mul.coeff_products"] += n * (n + 1) // 2
    else:
        c["formal.mul.coeff_products"] += a.nterms


def _count_reciprocal(c, args, result):
    c["formal.reciprocal.terms"] += args[0].nterms


def _count_partitions(c, args, result):
    c["partitions.enumerated"] += result


_COUNTERS = {
    "cf.eval_infinite": _count_cf,
    "formal.mul": _count_mul,
    "formal.reciprocal": _count_reciprocal,
    "partitions.count_partitions": _count_partitions,
}
