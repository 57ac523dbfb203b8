"""Cross-engine equivalence: the DAG fast path vs the event loop.

The fast path's whole contract is *bit-identical* timing: for every
(library, collective) pair of the registry, the DAG replay
(:func:`evaluate_point`, which ``auto`` runs) must reproduce the event
loop's samples and message counts exactly — same floats, not
"close" floats — across the full registry grid and randomized shapes.
Anything less means the analytic evaluator serviced some resource queue in
a different order than the event loop would have, which is precisely the
class of bug equivalence testing exists to catch.
"""

import random

import pytest

import repro.bench.microbench as microbench
from repro.bench.microbench import resolve_engine, run_point
from repro.sched.check import check_planned
from repro.sched.fastpath import evaluate_point, evaluate_tables
from repro.sched.batch import evaluate_column
from repro.sched.registry import (
    PLANNER_BACKED,
    plan_for,
    planner_cache_info,
    registry_combinations,
)

SHAPES = ((2, 2), (4, 3))
SIZES = (512, 32768, 131072)


def _assert_point_identical(lib, coll, nodes, ppn, nbytes, **kw):
    name = PLANNER_BACKED[lib]
    event = run_point(name, coll, nodes, ppn, nbytes, engine="event", **kw)
    # the replay itself, not auto
    dag = evaluate_point(name, coll, nodes, ppn, nbytes, **kw)
    label = f"{lib}/{coll} {nodes}x{ppn} {nbytes}B"
    assert dag.samples == event.samples, label
    assert dag.internode_messages == event.internode_messages, label


# -- the acceptance grid: every registry pair x shapes x sizes ------------


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_cross_engine_identical_on_registry_grid(lib, coll):
    for nodes, ppn in SHAPES:
        for nbytes in SIZES:
            _assert_point_identical(lib, coll, nodes, ppn, nbytes)


def test_cross_engine_identical_on_randomized_shapes():
    """Fixed-seed fuzz over shapes, sizes, and iteration protocols."""
    rng = random.Random(0)
    combos = registry_combinations()
    for _ in range(12):
        lib, coll = rng.choice(combos)
        nodes = rng.randint(2, 5)
        ppn = rng.randint(1, 4)
        nbytes = rng.choice((16, 1024, 4096, 65536, 262144))
        warmup = rng.randint(0, 2)
        _assert_point_identical(
            lib, coll, nodes, ppn, nbytes, warmup=warmup, measure=3
        )


# -- traffic volumes: the DAG's accounting must match the static checker --


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_volume_tables_match_static_checker(lib, coll):
    nodes, ppn, nbytes = 4, 3, 4096
    tables = evaluate_tables(lib, coll, nodes, ppn, nbytes)
    planned = plan_for(lib, coll, nodes, ppn, nbytes)
    report = check_planned(planned, ppn)
    assert tables == report.per_rank


# -- engine selection and guard rails -------------------------------------


def test_auto_resolves_to_dag_only_where_supported():
    # every pair is planned, so only a tracer sends auto to the event loop
    for lib, coll in registry_combinations():
        name = PLANNER_BACKED[lib]
        assert resolve_engine("auto", name, coll) == "dag"
        assert resolve_engine("auto", name, coll, tracing=True) == "event"
    assert resolve_engine("auto", "pip_mcoll", "scatter") == "dag"
    assert resolve_engine("auto", "PiP-MColl", "alltoall") == "dag"
    assert resolve_engine("auto", "OpenMPI", "bcast") == "dag"
    assert resolve_engine("auto", "MVAPICH2", "reduce") == "dag"
    with pytest.raises(ValueError, match="unknown engine"):
        resolve_engine("fast", "PiP-MColl", "allreduce")
    # removed names are unknown, not aliased: the JIT tiers, and the two
    # replays auto chooses between
    for removed in ("native", "native-batch", "dag", "batch"):
        with pytest.raises(ValueError, match="unknown engine"):
            resolve_engine(removed, "PiP-MColl", "allreduce")
        with pytest.raises(ValueError, match="unknown engine"):
            run_point("PiP-MColl", "allreduce", 2, 2, 512, engine=removed)


def test_dag_engine_rejects_unsupported_pairs():
    # a barrier is planned, but no microbenchmark runs it
    with pytest.raises(ValueError, match="planner-backed 'barrier'"):
        evaluate_point("MVAPICH2", "barrier", 2, 2, 512)
    with pytest.raises(ValueError, match="unknown library"):
        evaluate_point("NoSuchMPI", "bcast", 2, 2, 512)


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_zero_bytes_identical_on_every_engine(lib, coll):
    """An empty message is a point like any other: the event loop, the
    DAG replay and a batch column's 0 B row agree on it."""
    name = PLANNER_BACKED[lib]
    event = run_point(name, coll, 2, 3, 0, engine="event")
    dag = evaluate_point(name, coll, 2, 3, 0)
    row = evaluate_column(name, coll, 2, 3, [0, 16, 64]).results[0]
    assert dag.samples == event.samples == row.samples
    assert (dag.internode_messages == event.internode_messages
            == row.internode_messages)


def test_auto_traces_on_the_event_loop(monkeypatch):
    """The replays cannot trace, so ``auto`` with a tracer never reaches
    them: it runs the event loop and records its spans.  (``analytic``
    refuses a tracer: ``test_analytic.py``.)"""
    from repro.sim.trace import Tracer

    def no_replay(*args, **kwargs):  # pragma: no cover - fails the test
        raise AssertionError("a traced point reached the DAG replay")

    reference = Tracer()
    want = run_point("PiP-MColl", "allreduce", 2, 2, 512, engine="event",
                     tracer=reference)
    monkeypatch.setattr(microbench, "_dag_evaluate_point", no_replay)
    traced = Tracer()
    got = run_point("PiP-MColl", "allreduce", 2, 2, 512, engine="auto",
                    tracer=traced)
    assert got == want
    assert traced.events and traced.events == reference.events


def test_auto_degrades_to_event_instead_of_raising():
    result = run_point("MVAPICH2", "reduce", 2, 2, 512, engine="auto")
    reference = run_point("MVAPICH2", "reduce", 2, 2, 512, engine="event")
    assert result == reference


def test_dag_engine_honours_threshold_overrides():
    from repro.core.tuning import Thresholds

    kw = dict(thresholds=Thresholds.always_large())
    _assert_point_identical("pip-mcoll", "allreduce", 2, 2, 512, **kw)
    with pytest.raises(ValueError, match="thresholds"):
        evaluate_point("PiP-MPICH", "allgather", 2, 2, 512,
                       thresholds=Thresholds())


def test_dag_engine_requires_measured_iteration():
    with pytest.raises(ValueError, match="measured"):
        evaluate_point("PiP-MColl", "allreduce", 2, 2, 512, measure=0)


# -- planner cache: repeated sweep points must not re-plan ----------------


def test_repeated_points_do_not_replan():
    spec = ("PiP-MColl", "allreduce", 3, 2, 7168)
    evaluate_point(*spec)  # plans on first sight (or earlier test)
    before = planner_cache_info()
    evaluate_point(*spec)
    run_point(*spec, engine="event")  # executor wrappers share the caches
    after = planner_cache_info()
    assert set(after) == set(before) and len(after) == 16
    for name in after:
        assert after[name].misses == before[name].misses, name
    assert sum(i.hits for i in after.values()) > sum(
        i.hits for i in before.values()
    )
