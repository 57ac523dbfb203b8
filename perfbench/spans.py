"""Pass-through spans around the public functions of each layer.

A traced run installs a wrapper around every function listed in
:data:`TARGETS`, at every place the program binds it: the defining
module or class, and every already-imported ``repro`` module that
imported the function by name (``microbench`` and ``batch`` bind
``evaluate_point`` that way, so patching the defining module alone would
miss their calls).  Modules imported later pick the wrapper up from the
defining module.  Wrappers return what the wrapped function returns and
record a span: name, start, end and the span that was open when it began.
Spans stay in memory until :meth:`SpanRecorder.dump` writes them out.

A layer's self time is the total duration of its spans minus the part
covered by their direct child spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from typing import Callable, Dict, List

#: span name -> (layer, "module:attribute" of the public function)
TARGETS = {
    "plan_for": ("plan", "repro.sched.registry:plan_for"),
    "evaluate_column": ("batch", "repro.sched.batch:evaluate_column"),
    "evaluate_point": ("dag", "repro.sched.fastpath:evaluate_point"),
    "World.run": ("event", "repro.mpi.runtime:World.run"),
    "ResultCache.get": ("store", "repro.bench.runner.cache:ResultCache.get"),
    "ResultCache.get_many": (
        "store", "repro.bench.runner.cache:ResultCache.get_many"),
    "ResultCache.put": ("store", "repro.bench.runner.cache:ResultCache.put"),
    "ResultCache.put_many": (
        "store", "repro.bench.runner.cache:ResultCache.put_many"),
    "ResultCache.flush": (
        "store", "repro.bench.runner.cache:ResultCache.flush"),
    "SweepRunner.run": ("runner", "repro.bench.runner.pool:SweepRunner.run"),
    "run_point_spec": ("runner", "repro.bench.runner.pool:run_point_spec"),
    "run_sweep_column_stats": (
        "runner", "repro.bench.runner.pool:run_sweep_column_stats"),
}

#: modules that bind a target by name; imported before the wrappers go in
#: so their bindings are rewritten too
BINDING_MODULES = (
    "repro.bench.microbench",
    "repro.bench.runner.pool",
    "repro.sched.batch",
    "repro.sched.fastpath",
)


class SpanRecorder:
    """In-memory span log of one process."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        #: one dict per evaluate_column call: how the column was evaluated
        self.columns: List[Dict] = []
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        on_result = self._record_column if name == "evaluate_column" else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            index = len(spans)
            span = [name, time.perf_counter(), 0.0, stack[-1] if stack else -1]
            spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _record_column(self, col) -> None:
        st = col.stats
        sizes = len(col.results)
        dag_sizes = len(st.fallback_sizes) + len(st.singleton_sizes)
        self.columns.append({
            "sizes": sizes,
            "vector_accepted": sizes - dag_sizes,
            "vector_attempted": sum(len(p) for p in st.partitions),
            "partitions": len(st.partitions),
            "splits": st.splits,
            "retries": st.retries,
            "fallback_sizes": len(st.fallback_sizes),
            "singleton_sizes": len(st.singleton_sizes),
            "elided_passes": st.elided_passes,
        })

    def reset(self) -> None:
        """Forget everything (a forked child starts its own log)."""
        self.spans.clear()
        self.columns.clear()
        self._local = threading.local()

    def dump(self, path, counters: Dict) -> None:
        doc = {"spans": self.spans, "columns": self.columns,
               "counters": counters}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def _resolve(target: str):
    modname, _, qual = target.partition(":")
    owner = importlib.import_module(modname)
    if "." in qual:
        cls_name, attr = qual.split(".")
        owner = getattr(owner, cls_name)
    else:
        attr = qual
    return owner, attr


def install(recorder: SpanRecorder) -> None:
    """Wrap every target at its definition and at every by-name binding."""
    for modname in BINDING_MODULES:
        importlib.import_module(modname)
    for name, (_layer, target) in TARGETS.items():
        owner, attr = _resolve(target)
        original = getattr(owner, attr)
        wrapper = recorder.wrap(name, original)
        setattr(owner, attr, wrapper)
        if isinstance(owner, type):
            continue
        for modname, module in list(sys.modules.items()):
            if not modname.startswith("repro.") or module is None:
                continue
            for binding, value in list(vars(module).items()):
                if value is original:
                    setattr(module, binding, wrapper)


def process_counters(cache=None) -> Dict:
    """Process-wide cache counters the spans cannot see."""
    from repro.sched.batch import lowering_cache_info
    from repro.sched.registry import planner_cache_info

    plan_misses = sum(
        info.misses for key, info in planner_cache_info().items()
        if key != "batch_lowering"
    )
    counters = {
        "plan_lru_misses": plan_misses,
        "lower_misses": lowering_cache_info().misses,
    }
    if cache is not None:
        stats = cache.stats()
        counters.update({
            "bytes_read": stats["bytes_read"],
            "bytes_written": stats["bytes_written"],
            "shards": stats["shards"],
        })
    return counters


def span_totals(docs: List[Dict]) -> Dict[str, List[float]]:
    """``[calls, self seconds]`` per span name over the span dumps of one
    or more processes."""
    totals: Dict[str, List[float]] = {name: [0, 0.0] for name in TARGETS}
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for _name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for (name, start, end, _parent), child in zip(spans, covered):
            totals[name][0] += 1
            totals[name][1] += (end - start) - child
    return totals


def summarize(docs: List[Dict]) -> Dict[str, float]:
    """Per-layer metrics from the span dumps of one or more processes."""
    totals = span_totals(docs)
    calls = {name: t[0] for name, t in totals.items()}
    self_s = {name: t[1] for name, t in totals.items()}
    columns = [c for doc in docs for c in doc["columns"]]
    counters: Dict[str, float] = {}
    for doc in docs:
        for key, value in doc["counters"].items():
            counters[key] = counters.get(key, 0) + value

    def layer_self(layer: str) -> float:
        return sum(v for n, v in self_s.items() if TARGETS[n][0] == layer)

    def col_sum(key: str) -> int:
        return sum(c[key] for c in columns)

    attempted = col_sum("vector_attempted")
    return {
        "plan.calls": calls["plan_for"],
        "plan.self_s": layer_self("plan"),
        "plan.lru_misses": counters.get("plan_lru_misses", 0),
        "batch.calls": calls["evaluate_column"],
        "batch.self_s": layer_self("batch"),
        "batch.sizes": col_sum("sizes"),
        "batch.vector_accepted": col_sum("vector_accepted"),
        "batch.accept_ratio": (
            col_sum("vector_accepted") / attempted if attempted else 0.0),
        "batch.partitions": col_sum("partitions"),
        "batch.splits": col_sum("splits"),
        "batch.retries": col_sum("retries"),
        "batch.fallback_sizes": col_sum("fallback_sizes"),
        "batch.singleton_sizes": col_sum("singleton_sizes"),
        "batch.elided_passes": col_sum("elided_passes"),
        "batch.lower_misses": counters.get("lower_misses", 0),
        "dag.calls": calls["evaluate_point"],
        "dag.self_s": layer_self("dag"),
        "event.runs": calls["World.run"],
        "event.self_s": layer_self("event"),
        "store.get_calls": (
            calls["ResultCache.get"] + calls["ResultCache.get_many"]),
        "store.get_s": (
            self_s["ResultCache.get"] + self_s["ResultCache.get_many"]),
        "store.put_calls": (
            calls["ResultCache.put"] + calls["ResultCache.put_many"]),
        "store.put_s": (
            self_s["ResultCache.put"] + self_s["ResultCache.put_many"]),
        "store.flush_s": self_s["ResultCache.flush"],
        "store.bytes_read": counters.get("bytes_read", 0),
        "store.bytes_written": counters.get("bytes_written", 0),
        "store.shards": counters.get("shards", 0),
        "runner.self_s": layer_self("runner"),
        "runner.point_units": calls["run_point_spec"],
        "runner.column_units": calls["run_sweep_column_stats"],
    }


#: the metrics that together hold every layer's self time
SELF_TIME_KEYS = (
    "plan.self_s", "batch.self_s", "dag.self_s", "event.self_s",
    "runner.self_s", "store.get_s", "store.put_s", "store.flush_s",
)


def layer_self_total(metrics: Dict[str, float]) -> float:
    """Sum of every layer's self time (the numerator of trace coverage)."""
    return sum(metrics[key] for key in SELF_TIME_KEYS)


def report(per_rep: List[Dict[str, List[float]]], wall_s: float) -> List[str]:
    """The traced run's per-layer table: calls, self time and share of
    the measured wall time, per span, summed over repetitions."""
    lines = [f"{'layer':<7} {'span':<22} {'calls':>8} {'self_s':>9} "
             f"{'share':>7}"]
    for name, (layer, _target) in TARGETS.items():
        calls = sum(t[name][0] for t in per_rep)
        self_s = sum(t[name][1] for t in per_rep)
        lines.append(f"{layer:<7} {name:<22} {calls:>8} {self_s:>9.3f} "
                     f"{self_s / wall_s:>7.1%}")
    return lines
