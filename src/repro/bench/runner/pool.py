"""The sweep runner: process-pool execution + cache orchestration.

Each :class:`~repro.bench.runner.points.Point` is an independent,
deterministic simulation, so a sweep is embarrassingly parallel: the runner
ships point specs (not worlds — specs pickle in ~200 bytes) to a
``multiprocessing`` pool and reassembles results in submission order.
Serial, parallel, and cache-hit execution are bit-identical by
construction; ``tests/bench/test_runner.py`` enforces it.

Points bound for the batch engine take a different route through the same
machinery: the runner groups them into *columns* — points identical except
for ``msg_bytes`` — and ships each column as one work unit
(:func:`run_sweep_column`), which evaluates the whole size axis in one
vectorized pass (:func:`repro.sched.batch.evaluate_column`) and reads and
writes the columnar result store one column-group shard at a time
(:meth:`~repro.bench.runner.cache.ResultCache.get_many` /
:meth:`~repro.bench.runner.cache.ResultCache.put_many`).  ``auto`` points
upgrade to the column route automatically when the pair is planner-backed
and the column has at least two sizes; the batch engine's bit-identity
contract makes the upgrade invisible in the results.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.microbench import (
    ENGINES,
    MicrobenchResult,
    resolve_engine,
    run_point,
)
from repro.bench.runner.cache import ResultCache
from repro.bench.runner.points import Point, column_of

__all__ = [
    "SweepRunner", "default_runner", "run_points", "run_point_spec",
    "run_sweep_column", "run_sweep_column_stats", "plan_column_routes",
]

_ENV_JOBS = "PIPMCOLL_JOBS"
_ENV_CACHE = "PIPMCOLL_CACHE"
_ENV_PROGRESS = "PIPMCOLL_PROGRESS"
_ENV_ENGINE = "PIPMCOLL_ENGINE"

#: ``progress(done, total, point, source)`` with source in {"run", "cache"}
ProgressFn = Callable[[int, int, Point, str], None]


def run_point_spec(point: Point) -> MicrobenchResult:
    """Module-level pool worker: execute one point.

    Must stay a plain top-level function — ``multiprocessing`` pickles it
    by qualified name, and the :class:`Point` argument plus the returned
    :class:`MicrobenchResult` are the only state that crosses the process
    boundary (no closures over ``World``).
    """
    return run_point(
        point.library,
        point.collective,
        point.nodes,
        point.ppn,
        point.msg_bytes,
        params=point.params,
        warmup=point.warmup,
        measure=point.measure,
        thresholds=point.thresholds,
        engine=point.engine,
    )


def _evaluate_sweep_column(points: Sequence[Point]):
    """Evaluate one column work unit; returns the raw ``ColumnResult``
    of :func:`repro.sched.batch.evaluate_column` (explicit ``"batch"``
    and upgraded ``"auto"`` columns alike)."""
    from repro.sched.batch import evaluate_column
    from repro.sched.fastpath import check_protocol

    first = points[0]
    sizes = [p.msg_bytes for p in points]
    # fail fast with run_point's exact checks instead of tripping an
    # engine internal error deep inside a pool worker
    check_protocol(first.warmup, first.measure, sizes)
    return evaluate_column(
        first.library,
        first.collective,
        first.nodes,
        first.ppn,
        sizes,
        params=first.params,
        warmup=first.warmup,
        measure=first.measure,
        thresholds=first.thresholds,
    )


def _column_results(points: Sequence[Point], col) -> List[MicrobenchResult]:
    out: List[MicrobenchResult] = []
    for p in points:
        fast = col.results[p.msg_bytes]
        out.append(
            MicrobenchResult(
                library=p.library,
                collective=p.collective,
                nodes=p.nodes,
                ppn=p.ppn,
                msg_bytes=p.msg_bytes,
                time=sum(fast.samples) / len(fast.samples),
                samples=fast.samples,
                internode_messages=fast.internode_messages,
            )
        )
    return out


def run_sweep_column(points: Sequence[Point]) -> List[MicrobenchResult]:
    """Pool worker: evaluate one column of points in a single batch pass.

    ``points`` must agree on everything but ``msg_bytes`` (the runner's
    grouping guarantees it).  Results come back in ``points`` order and
    are bit-identical to running each point on the DAG engine — the batch
    engine's contract (see :mod:`repro.sched.batch`).  Top-level for the
    same pickling reason as :func:`run_point_spec`.
    """
    return _column_results(points, _evaluate_sweep_column(points))


def run_sweep_column_stats(
    points: Sequence[Point],
) -> Tuple[List[MicrobenchResult], Dict]:
    """Pool worker: :func:`run_sweep_column` plus this work unit's lowering
    counters.

    Pool workers are separate processes, so the parent's
    ``planner_cache_info()["batch_lowering"]`` counters never see column
    work — each worker's counters die with its process.  This wrapper
    snapshots the per-process counters around the column pass and ships
    the *delta* home in the result payload, so the runner can aggregate
    lowering hits/misses across every work unit of the sweep regardless
    of which process ran it.
    """
    from repro.sched.batch import lowering_cache_info

    before = lowering_cache_info()
    col = _evaluate_sweep_column(points)
    after = lowering_cache_info()
    delta = {
        "hits": after.hits - before.hits,
        "misses": after.misses - before.misses,
    }
    return _column_results(points, col), delta


def plan_column_routes(points: Sequence[Point]) -> Dict[Tuple, List[int]]:
    """Indices of column-routed points, grouped by column.

    A point rides a column when its engine is ``"batch"`` explicitly, or
    when it is ``"auto"``, resolves to the fast path (planner-backed
    pair, at least one byte — :func:`~repro.bench.microbench.resolve_engine`),
    and at least one other point shares its column with a different size
    — the regime where the vectorized pass pays for itself.  Shared by
    :class:`SweepRunner` and the :mod:`repro.serve` daemon so both fronts
    route identically (the bit-identity contract makes routing invisible
    in the results, but identical routing keeps cache traffic and
    work-unit shapes the same too).
    """
    groups: Dict[Tuple, List[int]] = {}
    for i, p in enumerate(points):
        if p.engine == "batch" or (
            p.engine == "auto"
            and resolve_engine(
                "auto", p.library, p.collective, msg_bytes=p.msg_bytes
            ) == "dag"
        ):
            groups.setdefault(column_of(p), []).append(i)
    return {
        key: idxs
        for key, idxs in groups.items()
        if points[idxs[0]].engine == "batch"
        or len({points[i].msg_bytes for i in idxs}) > 1
    }


def _env_flag(name: str, default: bool) -> bool:
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        # empty-but-set (a shell exporting a placeholder) means "unset →
        # default", not explicit false
        return default
    return raw.strip().lower() not in ("0", "false", "off", "no")


def _default_jobs() -> int:
    raw = os.environ.get(_ENV_JOBS)
    if raw:
        try:
            return max(1, int(raw))
        except ValueError:
            raise ValueError(f"{_ENV_JOBS}={raw!r} is not an integer") from None
    return os.cpu_count() or 1


def _stderr_progress(done: int, total: int, point: Point, source: str) -> None:
    tag = " (cached)" if source == "cache" else ""
    print(f"  [{done}/{total}] {point.label()}{tag}", file=sys.stderr, flush=True)


class SweepRunner:
    """Executes lists of points with optional parallelism and memoization.

    Parameters
    ----------
    jobs:
        Worker processes; ``None`` reads ``PIPMCOLL_JOBS`` and falls back
        to ``os.cpu_count()``.  ``1`` runs serially in-process (no pool).
    use_cache:
        Consult/populate the on-disk cache (``None`` → ``PIPMCOLL_CACHE``
        env, default on).
    refresh:
        Recompute every point even on a cache hit, then overwrite the
        stored entry (CLI ``--refresh``).
    cache:
        A :class:`ResultCache`; defaults to the standard directory.
    progress:
        ``progress(done, total, point, source)`` callback; ``None`` reads
        ``PIPMCOLL_PROGRESS`` and, when set, prints to stderr.
    engine:
        Force every point onto one evaluation engine (``"event"``,
        ``"dag"``, ``"batch"``, ``"analytic"`` or ``"auto"``); ``None``
        reads ``PIPMCOLL_ENGINE`` and,
        when that is unset too, leaves each point's own ``engine`` field
        alone.  The override rewrites the points before the cache pass, so
        it is part of the cache key like any other spec field.
    """

    def __init__(
        self,
        jobs: Optional[int] = None,
        use_cache: Optional[bool] = None,
        refresh: bool = False,
        cache: Optional[ResultCache] = None,
        progress: "ProgressFn | None" = None,
        engine: Optional[str] = None,
    ):
        self.jobs = _default_jobs() if jobs is None else max(1, int(jobs))
        self.use_cache = (
            _env_flag(_ENV_CACHE, True) if use_cache is None else use_cache
        )
        self.refresh = refresh
        self.cache = cache if cache is not None else ResultCache()
        if progress is None and _env_flag(_ENV_PROGRESS, False):
            progress = _stderr_progress
        self.progress = progress
        if engine is None:
            engine = os.environ.get(_ENV_ENGINE) or None
        if engine is not None and engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
        self.engine = engine
        #: lowering-cache counters summed over every column work unit
        #: this runner executed (pool or serial); see run_sweep_column_stats
        self._lowering_totals = {"hits": 0, "misses": 0, "columns": 0}

    def lowering_cache_totals(self) -> Dict[str, int]:
        """Batch-lowering hits/misses aggregated across all column work
        units run by this runner — survives the process pool, unlike the
        in-process ``planner_cache_info()["batch_lowering"]`` counters."""
        return dict(self._lowering_totals)

    # -- execution -------------------------------------------------------

    def run(self, points: Sequence[Point]) -> List[MicrobenchResult]:
        """Execute ``points``; results come back in submission order."""
        if self.engine is not None:
            points = [
                p if p.engine == self.engine else replace(p, engine=self.engine)
                for p in points
            ]
        total = len(points)
        results: List[Optional[MicrobenchResult]] = [None] * total
        done = 0

        # grouped before any evaluation, so a column is lowered once no
        # matter how many sizes it spans
        col_groups = plan_column_routes(points)
        col_member = {i for idxs in col_groups.values() for i in idxs}

        # 1. cache pass — point files for point-routed work, one column
        # file per column for the rest
        pending: List[int] = []
        col_pending: Dict[Tuple, List[int]] = {}
        consult = self.use_cache and not self.refresh
        for key, idxs in col_groups.items():
            hits = (
                self.cache.get_many([points[i] for i in idxs])
                if consult else [None] * len(idxs)
            )
            for i, hit in zip(idxs, hits):
                if hit is not None:
                    results[i] = hit
                    done += 1
                    if self.progress:
                        self.progress(done, total, points[i], "cache")
                else:
                    col_pending.setdefault(key, []).append(i)
        for i, point in enumerate(points):
            if i in col_member:
                continue
            hit = self.cache.get(point) if consult else None
            if hit is not None:
                results[i] = hit
                done += 1
                if self.progress:
                    self.progress(done, total, point, "cache")
            else:
                pending.append(i)

        # 2. compute misses (pool or serial); each column is one work unit.
        # Point-routed puts buffer in the cache and flush as whole shards
        # in the finally block — the batched-flush half of the columnar
        # store (column puts are already one shard per put_many call).
        try:
            if pending:
                if self.jobs > 1 and len(pending) > 1:
                    computed = self._map_pool(
                        run_point_spec, [points[i] for i in pending]
                    )
                else:
                    computed = map(run_point_spec, (points[i] for i in pending))
                for i, result in zip(pending, computed):
                    results[i] = result
                    if self.use_cache:
                        self.cache.put(points[i], result)
                    done += 1
                    if self.progress:
                        self.progress(done, total, points[i], "run")
            if col_pending:
                groups = [[points[i] for i in idxs]
                          for idxs in col_pending.values()]
                if self.jobs > 1 and len(groups) > 1:
                    computed_cols = self._map_pool(
                        run_sweep_column_stats, groups
                    )
                else:
                    computed_cols = map(run_sweep_column_stats, groups)
                for idxs, group, (col_results, lower_delta) in zip(
                    col_pending.values(), groups, computed_cols
                ):
                    self._lowering_totals["hits"] += lower_delta["hits"]
                    self._lowering_totals["misses"] += lower_delta["misses"]
                    self._lowering_totals["columns"] += 1
                    if self.use_cache:
                        self.cache.put_many(group, col_results)
                    for i, result in zip(idxs, col_results):
                        results[i] = result
                        done += 1
                        if self.progress:
                            self.progress(done, total, points[i], "run")
        finally:
            if self.use_cache:
                self.cache.flush()

        return results  # type: ignore[return-value]

    def _map_pool(self, fn, items: List) -> List:
        import multiprocessing as mp

        # fork (where available) inherits the warm interpreter: no
        # re-import of numpy/repro per worker, and workers pickle by name
        method = "fork" if "fork" in mp.get_all_start_methods() else None
        ctx = mp.get_context(method)
        workers = min(self.jobs, len(items))
        # modest chunking keeps scheduling overhead low on big sweeps while
        # still load-balancing the heavy large-message points
        chunksize = max(1, len(items) // (workers * 4))
        with ctx.Pool(processes=workers) as pool:
            return pool.map(fn, items, chunksize=chunksize)


def default_runner(**overrides) -> SweepRunner:
    """A runner configured purely from the environment (plus overrides)."""
    return SweepRunner(**overrides)


def run_points(
    points: Sequence[Point], runner: Optional[SweepRunner] = None
) -> List[MicrobenchResult]:
    """Convenience wrapper: run ``points`` on ``runner`` or an env-default."""
    return (runner or default_runner()).run(points)
