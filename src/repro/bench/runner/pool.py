"""The sweep runner: one sweep plan, one worker, a process pool and the cache.

Each :class:`~repro.bench.runner.points.Point` is an independent,
deterministic simulation, so a sweep is embarrassingly parallel.  Both
sweep fronts, :class:`SweepRunner` here and the :mod:`repro.serve`
daemon, go through one plan (:func:`plan_sweep`).  It takes the sweep
as *columns* (a :class:`~repro.bench.runner.points.ColumnSpec`, every
point field but ``msg_bytes``, plus the column's sizes), resolves each
column's engine once, reads each column from the result cache with one
:meth:`~repro.bench.runner.cache.ResultCache.get_many` call, and cuts
the misses into work units:

* an ``analytic`` column, and the sizes of at least one byte of a
  planner-backed ``auto`` column that spans two or more of them, are one
  unit each, evaluated over the whole size axis in one call
  (:func:`repro.sched.analytic.evaluate_axis`,
  :func:`repro.sched.batch.evaluate_column`);
* every other size is a unit of its own, evaluated by
  :func:`run_point_spec`, so ``jobs=N`` spreads a column of event or DAG
  points across the pool.

A :class:`Point` is built only for a size that misses: the work units
carry them, and a sweep whose rows are all cached builds none.  One
worker, :func:`run_sweep_column_stats`, evaluates any unit through one
table that maps route to evaluator.  The runner groups its points into
columns, ships units (point specs pickle in ~200 bytes; worlds never
cross) to a ``multiprocessing`` pool, writes each column back with one
:meth:`~repro.bench.runner.cache.ResultCache.put_many`, and reassembles
results in submission order.  Serial, parallel and cache-hit execution
are bit-identical by construction (the batch engine's bit-identity
contract makes the ``auto`` upgrade invisible in the results);
``tests/bench/test_runner.py`` enforces it.
"""

from __future__ import annotations

import os
import sys
from dataclasses import replace
from functools import partial
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.bench.microbench import (
    _EVALUATORS,
    ENGINES,
    MicrobenchResult,
    resolve_engine,
    run_point,
)
from repro.bench.runner.cache import ResultCache
from repro.bench.runner.points import ColumnSpec, Point, columns_of
from repro.sched.fastpath import check_protocol

__all__ = [
    "SweepRunner", "SweepUnit", "SweepColumn", "plan_sweep", "run_points",
    "run_point_spec", "run_sweep_column_stats",
]

_ENV_JOBS = "PIPMCOLL_JOBS"
_ENV_CACHE = "PIPMCOLL_CACHE"
_ENV_PROGRESS = "PIPMCOLL_PROGRESS"

#: ``progress(done, total, point, source)`` with source in {"run", "cache"}
ProgressFn = Callable[[int, int, Point, str], None]


def run_point_spec(point: Point) -> MicrobenchResult:
    """Evaluate one point: the per-size route of :data:`_ROUTES`.

    The :class:`Point` argument and the returned :class:`MicrobenchResult`
    are all the state it touches (no closures over ``World``), so it runs
    the same in a pool worker as in-process.
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


class SweepUnit(NamedTuple):
    """One work unit: ``points`` of one column, one per size, evaluated
    together on ``route`` (a key of :data:`_ROUTES`)."""

    route: str
    points: Tuple[Point, ...]


class SweepColumn(NamedTuple):
    """One planned column of a sweep."""

    spec: ColumnSpec
    #: the requested sizes, in request order (a size may repeat)
    sizes: Sequence[int]
    #: the row of each of ``sizes``: the cached one, ``None`` for a miss
    #: until the front fills it in
    rows: List[Optional[MicrobenchResult]]
    #: indices into ``sizes`` with no cached row
    misses: List[int]
    #: the misses' distinct sizes, cut into work units
    units: List[SweepUnit]


def _point_rows(points: Sequence[Point]) -> List[MicrobenchResult]:
    # looked up at call time, so a wrapper installed on this module's
    # binding sees every per-size evaluation
    return [run_point_spec(p) for p in points]


def _column_rows(
    engine: str, points: Sequence[Point]
) -> List[MicrobenchResult]:
    """The whole column in one call to ``engine``'s evaluator."""
    first = points[0]
    sizes = [p.msg_bytes for p in points]
    # fail fast with run_point's exact checks instead of tripping an
    # engine internal error deep inside a pool worker
    check_protocol(first.warmup, first.measure, sizes)
    timings = _EVALUATORS[engine](
        first.library, first.collective, first.nodes, first.ppn, sizes,
        params=first.params, warmup=first.warmup, measure=first.measure,
        thresholds=first.thresholds,
    )
    return [
        MicrobenchResult(p.library, p.collective, p.nodes, p.ppn,
                         p.msg_bytes, *timings[p.msg_bytes])
        for p in points
    ]


#: route -> evaluator of a unit's points, rows in ``points`` order:
#: ``point`` runs each size through run_point (which resolves ``auto``
#: itself); ``batch`` (an ``auto`` column's) and ``analytic`` evaluate the
#: whole size axis at once
_ROUTES: Dict[str, Callable[[Sequence[Point]], List[MicrobenchResult]]] = {
    "point": _point_rows,
    "batch": partial(_column_rows, "batch"),
    "analytic": partial(_column_rows, "analytic"),
}


def run_sweep_column_stats(
    unit: SweepUnit,
) -> Tuple[List[MicrobenchResult], Dict]:
    """Pool worker: evaluate one work unit; its rows (in ``unit.points``
    order) and the lowerings it made.

    Pool workers are separate processes, so the parent's
    ``lowering_cache_info()`` never sees their work; each worker's count
    dies with its process.  The worker reads the per-process count
    around the unit and ships the *delta* home with the rows, so a front
    can sum lowerings over every unit it ran, whichever process ran it.
    """
    from repro.sched.batch import lowering_cache_info

    before = lowering_cache_info().misses
    rows = _ROUTES[unit.route](unit.points)
    return rows, {"lowerings": lowering_cache_info().misses - before}


def _column_units(
    spec: ColumnSpec, sizes: Sequence[int], missing: Sequence[int]
) -> List[SweepUnit]:
    """The work units of one column: ``sizes`` are all of its sizes in the
    sweep, ``missing`` the distinct ones that need evaluation."""
    if spec.engine == "analytic":
        route, floor = "analytic", 0
    elif (spec.engine == "auto"
          and resolve_engine("auto", spec.library, spec.collective) == "dag"
          and len({s for s in sizes if s >= 1}) > 1):
        # the batch pass pays for itself over several sizes; the planners
        # refuse empty messages, which run_point answers on the event loop
        route, floor = "batch", 1
    else:
        return [SweepUnit("point", (spec.point(s),)) for s in missing]
    whole = tuple(spec.point(s) for s in missing if s >= floor)
    units = [SweepUnit(route, whole)] if whole else []
    return units + [SweepUnit("point", (spec.point(s),)) for s in missing
                    if s < floor]


def plan_sweep(
    columns: Sequence[Tuple[ColumnSpec, Sequence[int]]],
    cache: Optional[ResultCache] = None,
) -> List[SweepColumn]:
    """The cached rows of each ``(spec, sizes)`` column and the work its
    misses need, one :class:`SweepColumn` per column in order.

    ``cache=None`` reads nothing, so every size is a miss.  The route
    depends on the column's sizes in the sweep, not on which of them are
    cached, so a partly cached column keeps its unit shape.
    """
    planned: List[SweepColumn] = []
    for spec, sizes in columns:
        rows = (cache.get_many(spec, sizes) if cache is not None
                else [None] * len(sizes))
        misses = [i for i, row in enumerate(rows) if row is None]
        units = (_column_units(spec, sizes,
                               list(dict.fromkeys(sizes[i] for i in misses)))
                 if misses else [])
        planned.append(SweepColumn(spec, sizes, rows, misses, units))
    return planned


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
        ``"auto"`` or ``"analytic"``); ``None`` leaves each point's own
        ``engine`` field alone.  The override rewrites the points before
        the cache pass, so it is part of the cache key like any other
        spec field.
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
        if engine is not None and engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
        self.engine = engine
        #: lowerings summed over every work unit this runner executed
        #: (pool or serial); see run_sweep_column_stats
        self._lowering_totals = {"lowerings": 0, "units": 0}

    def lowering_totals(self) -> Dict[str, int]:
        """Lowerings and work units summed over every unit run by this
        runner — survives the process pool, unlike the in-process
        ``lowering_cache_info()``."""
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
        consult = self.use_cache and not self.refresh
        groups = columns_of(points)
        planned = plan_sweep(
            [(spec, [points[i].msg_bytes for i in idxs])
             for spec, idxs in groups.items()],
            self.cache if consult else None,
        )
        results: List[Optional[MicrobenchResult]] = [None] * total
        for idxs, col in zip(groups.values(), planned):
            for i, row in zip(idxs, col.rows):
                results[i] = row
        progress = self.progress
        done = 0
        if progress:
            for point, row in zip(points, results):
                if row is not None:
                    done += 1
                    progress(done, total, point, "cache")

        units = [unit for col in planned for unit in col.units]
        if self.jobs > 1 and len(units) > 1:
            computed = iter(self._map_pool(run_sweep_column_stats, units))
        else:
            computed = map(run_sweep_column_stats, units)
        totals = self._lowering_totals
        for idxs, col in zip(groups.values(), planned):
            if not col.units:
                continue
            evaluated: List[Point] = []
            rows: List[MicrobenchResult] = []
            for unit in col.units:
                unit_rows, delta = next(computed)
                totals["lowerings"] += delta["lowerings"]
                totals["units"] += 1
                evaluated += unit.points
                rows += unit_rows
            if self.use_cache:
                self.cache.put_many(evaluated, rows)
            by_size = {p.msg_bytes: row for p, row in zip(evaluated, rows)}
            for j in col.misses:
                i = idxs[j]
                results[i] = by_size[points[i].msg_bytes]
                if progress:
                    done += 1
                    progress(done, total, points[i], "run")
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


def run_points(
    points: Sequence[Point], runner: Optional[SweepRunner] = None
) -> List[MicrobenchResult]:
    """Convenience wrapper: run ``points`` on ``runner`` or an env-default."""
    return (runner or SweepRunner()).run(points)
