"""Parallel, memoizing sweep runner for the benchmark harness.

Every evaluation figure expands into a list of independent, deterministic
:class:`~repro.bench.runner.points.Point` specs — one simulated world per
``(library, collective, nodes, ppn, msg_bytes)``.  The
:class:`~repro.bench.runner.pool.SweepRunner` executes such a list:

* **in parallel** across a ``multiprocessing`` pool (``jobs=N``, default
  ``os.cpu_count()``) — the sweep plan (:func:`~repro.bench.runner.pool.
  plan_sweep`, shared with the :mod:`repro.serve` daemon) cuts the
  points that miss the cache into work units, a whole column or one
  size, which ship to a worker as picklable specs and come back as
  picklable :class:`~repro.bench.microbench.MicrobenchResult` rows;
* **memoized** through an on-disk columnar store (``.bench_cache/`` by
  default; append-only npz shards, one per column group, see
  :mod:`repro.bench.runner.store`) keyed by a stable hash of the cache
  epoch, the resolved :class:`~repro.hw.params.MachineParams`, the point
  spec, and the warm-up/measure protocol — re-running a figure is
  near-instant when nothing relevant changed, and a whole size axis
  reads back with one file open;
* **deterministically** — serial, parallel, and cache-hit execution return
  bit-identical results (``tests/bench/test_runner.py`` pins this).

Environment knobs (also exposed as CLI flags by ``repro.bench.record``):

* ``PIPMCOLL_JOBS`` — worker count (``1`` forces serial in-process runs)
* ``PIPMCOLL_CACHE`` — ``0``/``off`` disables the on-disk cache
* ``PIPMCOLL_CACHE_DIR`` — cache location (default ``.bench_cache``)
* ``PIPMCOLL_PROGRESS`` — ``1`` prints per-point progress to stderr
"""

from repro.bench.runner.cache import (
    CACHE_EPOCH,
    ResultCache,
    cache_key,
    column_key,
)
from repro.bench.runner.points import Point, expand_sweep
from repro.bench.runner.pool import SweepRunner, run_points
from repro.bench.runner.store import ShardStore

__all__ = [
    "Point",
    "expand_sweep",
    "ResultCache",
    "ShardStore",
    "CACHE_EPOCH",
    "cache_key",
    "column_key",
    "SweepRunner",
    "run_points",
]
