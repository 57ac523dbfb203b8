"""The fast engines' memory contract: reference counting frees every
evaluation, and evaluations run with automatic collection paused.

CPython's cyclic collector runs on allocation counts, and a replay
allocates on every timeline event, so any world left on a reference cycle
is found only by collections that scan every live object of the process.
``FastWorld.teardown`` leaves no cycle behind, on the DAG and batch
engines alike and for a batch pass abandoned at a split or at an
iteration boundary, so with the collector disabled ``gc.collect()``
finds nothing after an evaluation.  ``gc_paused`` keeps automatic
collection off while one runs.  No lowering is kept either: each dies
with the evaluation that built it.
"""

import gc
import importlib
import pkgutil
import threading

import numpy as np
import pytest

from repro.bench import microbench
from repro.bench.microbench import run_point
from repro.bench.runner import Point, SweepRunner
from repro.hw.params import bebop_broadwell
from repro.hw.topology import Topology
from repro.mpi.runtime import World
from repro.sched import batch as batch_mod
from repro.sched import plans
from repro.sched.batch import evaluate_column
from repro.sched.fastpath import (
    _LoweredColumn,
    evaluate_point,
    evaluate_tables,
)
from repro.sched.registry import PLANNER_BACKED, registry_combinations
from repro.sim.batchline import BatchTimeline
from repro.sim.engine import Delay
from repro.util.gcpause import gc_paused

SHAPES = ((2, 2), (4, 3))
SIZES = (512, 32768, 131072)
#: quarter-octave axis, 16 B .. ~2 MB: wide enough to batch, and across
#: the eager/rendezvous and algorithm switches
AXIS = tuple(sorted({int(16 * 2 ** (k / 4)) for k in range(70)}))
#: OpenMPI allgather 2x16 on these 12 sizes runs one pass that stops
#: after the warm-up, with only its pivot undivergent
CONTENDED = tuple(int(16 * 2 ** (k / 8)) for k in range(97, 121, 2))


#: every ``lru_cache``'d planner of :mod:`repro.sched.plans`
PLANNERS = {
    id(fn): fn
    for info in pkgutil.iter_modules(plans.__path__)
    for fn in vars(
        importlib.import_module(f"{plans.__name__}.{info.name}")
    ).values()
    if hasattr(fn, "cache_clear")
}.values()


@pytest.fixture(autouse=True)
def _empty_planner_caches():
    """Every measurement starts from empty planner caches, so planning
    happens inside it, and ``gc.collect()`` scans this test's plans
    rather than every plan the session has cached before it."""
    for fn in PLANNERS:
        fn.cache_clear()


@pytest.fixture(autouse=True)
def _collector_left_enabled():
    """Every test starts and ends with automatic collection on."""
    gc.enable()
    yield
    assert gc.isenabled(), "the test left the collector disabled"
    gc.enable()


def cyclic_garbage(fn) -> int:
    """Objects only the cyclic collector can free after ``fn()``, which
    runs with automatic collection disabled."""
    gc.collect()
    gc.disable()
    try:
        fn()
        return gc.collect()
    finally:
        gc.enable()


# -- no cyclic garbage -------------------------------------------------------


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_dag_points_leave_no_cyclic_garbage(lib, coll):
    # planning and lowering count too
    for nodes, ppn in SHAPES:
        for nbytes in SIZES:
            assert cyclic_garbage(
                lambda: evaluate_point(lib, coll, nodes, ppn, nbytes)
            ) == 0, f"{lib}/{coll} {nodes}x{ppn} {nbytes}B"


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_volume_tables_leave_no_cyclic_garbage(lib, coll):
    assert cyclic_garbage(
        lambda: evaluate_tables(lib, coll, 4, 3, 4096)
    ) == 0


def test_batch_column_leaves_no_cyclic_garbage():
    """A column that splits at thresholds (passes abandoned mid-run),
    falls back on order divergence and routes narrow partitions to the
    DAG engine, and one whose pass stops at an iteration boundary."""
    cols = []
    assert cyclic_garbage(lambda: cols.append(
        evaluate_column("OpenMPI", "allreduce", 2, 4, AXIS)
    )) == 0
    stats = cols[0].stats
    assert stats.splits and stats.partitions
    assert stats.fallback_sizes and stats.singleton_sizes
    assert cyclic_garbage(lambda: cols.append(
        evaluate_column("OpenMPI", "allgather", 2, 16, CONTENDED)
    )) == 0
    assert cols[1].stats.abandoned == (CONTENDED,)


def test_rebatched_and_forced_fallback_columns_leave_no_cyclic_garbage(
        monkeypatch):
    """Divergent clusters re-batched under their own pivot until the
    depth bound, the rest drained to the DAG engine; with only the pivot
    undivergent, every pass stops after the warm-up."""

    def all_but_pivot(self):
        bad = np.ones(self.width, dtype=bool)
        bad[0] = False
        return bad

    def one_cluster(self, divergent):
        return np.where(divergent, 0, -1)

    monkeypatch.setattr(BatchTimeline, "order_divergence", all_but_pivot)
    monkeypatch.setattr(BatchTimeline, "divergence_labels", one_cluster)
    monkeypatch.setattr(batch_mod, "_MIN_BATCH_WIDTH", 2)
    cols = []
    assert cyclic_garbage(lambda: cols.append(
        evaluate_column("PiP-MColl", "scatter", 2, 2,
                        (256, 512, 1024, 2048, 4096, 8192))
    )) == 0
    assert cols[0].stats.retries and cols[0].stats.fallback_sizes
    assert cols[0].stats.abandoned


def test_every_registry_column_leaves_no_cyclic_garbage():
    for lib, coll in registry_combinations():
        assert cyclic_garbage(lambda: evaluate_column(
            PLANNER_BACKED[lib], coll, 2, 4, AXIS[::3]
        )) == 0, f"{lib}/{coll}"


# -- no lowering outlives its evaluation -------------------------------------


def lowerings_alive() -> int:
    return sum(type(o) is _LoweredColumn for o in gc.get_objects())


def test_no_lowering_outlives_its_evaluation():
    """A DAG point, a column that splits, falls back and routes narrow
    partitions to the DAG engine, a column whose pass stops at an
    iteration boundary, and a runner sweep of a column unit and a
    per-point unit each leave no lowering alive."""
    gc.collect()
    evaluate_point("OpenMPI", "allreduce", 2, 4, 4096)
    assert lowerings_alive() == 0
    stats = evaluate_column("OpenMPI", "allreduce", 2, 4, AXIS).stats
    assert stats.splits and stats.fallback_sizes and stats.singleton_sizes
    assert lowerings_alive() == 0
    stats = evaluate_column("OpenMPI", "allgather", 2, 16, CONTENDED).stats
    assert stats.abandoned
    assert lowerings_alive() == 0
    points = [Point("PiP-MColl", "allgather", 2, 2, s, engine="auto")
              for s in SIZES]
    points.append(Point("PiP-MColl", "scatter", 2, 2, 512, engine="auto"))
    runner = SweepRunner(jobs=1, use_cache=False)
    runner.run(points)
    assert runner.lowering_totals()["units"] == 2
    assert lowerings_alive() == 0


# -- the pause ---------------------------------------------------------------


def test_pause_restores_an_enabled_collector():
    with gc_paused:
        assert not gc.isenabled()
    assert gc.isenabled()
    with pytest.raises(RuntimeError):
        with gc_paused:
            assert not gc.isenabled()
            raise RuntimeError("evaluation failed")
    assert gc.isenabled()


def test_pause_leaves_a_disabled_collector_disabled():
    gc.disable()
    try:
        with gc_paused:
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_nested_pauses_restore_on_the_outermost_exit():
    with gc_paused:
        with gc_paused:
            with gc_paused:
                pass
            assert not gc.isenabled()
        assert not gc.isenabled()

        @gc_paused
        def inner():
            return gc.isenabled()

        assert inner() is False
        assert not gc.isenabled()
    assert gc.isenabled()


def test_overlapping_threads_leave_the_collector_enabled():
    """Thread A pauses, thread B pauses, A resumes while B still runs,
    then B resumes: the collector stays off until both have finished."""
    a_in, b_in, a_out = (threading.Event() for _ in range(3))
    seen = {}

    def a():
        with gc_paused:
            a_in.set()
            b_in.wait(10)
        a_out.set()

    def b():
        a_in.wait(10)
        with gc_paused:
            b_in.set()
            a_out.wait(10)
            seen["after A left"] = gc.isenabled()

    threads = [threading.Thread(target=f) for f in (a, b)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(10)
    assert seen == {"after A left": False}
    assert gc.isenabled()


def test_evaluations_run_paused(monkeypatch):
    """``run_point``, ``evaluate_column`` and ``World.run`` each run
    with automatic collection off, whichever engine they reach."""
    seen = []
    dag = microbench._dag_evaluate_point

    def spy_dag(*args, **kwargs):
        seen.append(("dag", gc.isenabled()))
        return dag(*args, **kwargs)

    monkeypatch.setattr(microbench, "_dag_evaluate_point", spy_dag)
    run_point("PiP-MColl", "allgather", 2, 2, 512, engine="auto")
    plan_column = batch_mod.plan_column

    def spy_plan(*args, **kwargs):
        seen.append(("batch", gc.isenabled()))
        return plan_column(*args, **kwargs)

    monkeypatch.setattr(batch_mod, "plan_column", spy_plan)
    evaluate_column("PiP-MColl", "allgather", 2, 2, (512, 1024))

    def body(ctx):
        seen.append(("event", gc.isenabled()))
        yield Delay(1e-6)

    World(Topology(1, 2), bebop_broadwell()).run(body)
    assert seen == [("dag", False), ("batch", False),
                    ("event", False), ("event", False)]
    assert gc.isenabled()
