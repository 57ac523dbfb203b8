"""Cross-engine equivalence: the batch column engine vs the DAG engine.

The batch engine's contract is the DAG engine's, inherited transitively:
for every (point, size), ``evaluate_column`` must reproduce the scalar
DAG samples and message counts exactly — same floats, not "close" floats.
The interesting axes are the ones that stress the fallback machinery:
size axes straddling the eager/rendezvous threshold and the hybrid
intranode-mechanism threshold (partition splits), contended columns where
the conflict check flags order divergence (DAG fallback), and forced
all-divergent passes (the bail-out seam).
"""

import random

import numpy as np
import pytest

from repro.baselines.registry import make_library
from repro.bench.microbench import run_point
from repro.core.tuning import Thresholds
from repro.hw.params import bebop_broadwell
from repro.sched import batch as batch_mod
from repro.sched.batch import (
    _evaluate_partition,
    clear_lowering_cache,
    evaluate_column,
    lowering_cache_info,
)
from repro.sched.fastpath import evaluate_point, lower_column
from repro.sched.ir import BufRef, IntraOpStep, RankProgram, Schedule
from repro.sched.registry import (
    PLANNER_BACKED,
    PlannedCollective,
    planner_cache_info,
    registry_combinations,
)
from repro.sim.batchline import BatchTimeline, SizeVec

@pytest.fixture(autouse=True)
def _batch_every_partition(monkeypatch):
    """Run a vector pass on every partition of two or more sizes: these
    tests check the vector replay itself, whatever width floor the router
    applies (``test_partitions_below_the_width_floor_route_to_dag`` pins
    the floor)."""
    monkeypatch.setattr(batch_mod, "_MIN_BATCH_WIDTH", 2)


#: straddles the 16 KB eager/rendezvous default, the hybrid intranode
#: thresholds, and the PiP-MColl 64 KB algorithm switches
STRADDLE_AXIS = (16, 512, 4096, 16384, 32768, 65536, 131072, 262144)


def _assert_column_identical(lib, coll, nodes, ppn, sizes, **kw):
    col = evaluate_column(PLANNER_BACKED[lib][0], coll, nodes, ppn, sizes,
                          **kw)
    assert set(col.results) == set(sizes)
    for s in sizes:
        ref = evaluate_point(lib, coll, nodes, ppn, s, **kw)
        got = col.results[s]
        label = f"{lib}/{coll} {nodes}x{ppn} {s}B"
        assert got.samples == ref.samples, label
        assert got.internode_messages == ref.internode_messages, label
    return col


# -- the acceptance grid: every registry pair, threshold-straddling axes --


@pytest.mark.parametrize("lib,coll", registry_combinations())
def test_column_identical_on_registry_grid(lib, coll):
    for nodes, ppn in ((2, 2), (3, 4)):
        _assert_column_identical(lib, coll, nodes, ppn, STRADDLE_AXIS)


def test_column_identical_on_randomized_shapes():
    """Fixed-seed fuzz over shapes, axes, and iteration protocols."""
    rng = random.Random(7)
    combos = registry_combinations()
    pool = (16, 96, 1024, 4096, 16384, 32768, 65536, 131072, 262144)
    for _ in range(8):
        lib, coll = rng.choice(combos)
        nodes = rng.randint(2, 4)
        ppn = rng.randint(1, 4)
        sizes = tuple(sorted(rng.sample(pool, rng.randint(2, 6))))
        _assert_column_identical(
            lib, coll, nodes, ppn, sizes,
            warmup=rng.randint(0, 2), measure=rng.randint(1, 3),
        )


# -- fallback seams -------------------------------------------------------


def test_threshold_straddling_axis_partitions():
    """An axis across protocol thresholds must split, not diverge."""
    col = _assert_column_identical(
        "pip-mcoll", "allgather", 2, 4,
        (512, 8192, 16384, 32768, 262144),
    )
    # the eager/rendezvous switch alone forces at least two partitions
    assert len(col.stats.partitions) + len(col.stats.singleton_sizes) >= 2


def test_hybrid_mechanism_threshold_partitions():
    """OpenMPI's hybrid intranode mechanism splits at its threshold."""
    col = _assert_column_identical(
        "openmpi", "allgather", 2, 4, (64, 1024, 8192, 65536),
    )
    assert len(col.stats.partitions) + len(col.stats.singleton_sizes) >= 2


def test_forced_order_divergence_falls_back_to_dag(monkeypatch):
    """With every size flagged divergent, the engine must still be exact
    (everything re-evaluated on the DAG engine through the bail-out)."""

    def all_divergent(self):
        return np.ones(self.width, dtype=bool)

    monkeypatch.setattr(BatchTimeline, "order_divergence", all_divergent)
    col = _assert_column_identical(
        "pip-mcoll", "allgather", 2, 2, (512, 1024, 2048, 4096),
    )
    assert set(col.stats.fallback_sizes) | set(col.stats.singleton_sizes) \
        == {512, 1024, 2048, 4096}


def test_double_posted_board_key_flags_every_size():
    """A board key posted twice binds an order-dependent value, so the
    pass flags every size divergent.  Planner schedules post each key
    once, so only a hand-built schedule reaches this guard."""
    sizes = (64, 128, 256)
    post = IntraOpStep("post", ("buf",), value=BufRef("send"))
    lookup = IntraOpStep("lookup", ("buf",), bind="peer")
    planned = PlannedCollective(
        label="double post",
        schedule=Schedule((RankProgram((post, post)),
                           RankProgram((lookup,)))),
        ranks=(0, 1),
        bindings=({"send": SizeVec(sizes)}, {}),
    )
    lowered = lower_column((sizes, planned), sizes, ppn=2)
    _, divergent, labels = _evaluate_partition(
        lowered, 1, 2, sizes, make_library("PiP-MColl"), bebop_broadwell(),
        warmup=1, measure=1,
    )
    assert divergent.tolist() == [True, True, True]
    assert labels is not None


def test_singleton_partition_routes_to_dag():
    col = _assert_column_identical("pip-mcoll", "scatter", 2, 2, (4096,))
    assert col.stats.singleton_sizes == (4096,)
    assert col.stats.partitions == ()


def test_partitions_below_the_width_floor_route_to_dag(monkeypatch):
    """Partitions narrower than ``_MIN_BATCH_WIDTH`` never run a vector
    pass: every size goes to the DAG engine and is counted as a
    singleton, bit-identically."""
    sizes = (256, 512, 1024, 2048)
    monkeypatch.setattr(batch_mod, "_MIN_BATCH_WIDTH", len(sizes) + 1)
    col = _assert_column_identical("pip-mcoll", "scatter", 2, 2, sizes)
    assert col.stats.partitions == ()
    assert col.stats.singleton_sizes == sizes
    monkeypatch.setattr(batch_mod, "_MIN_BATCH_WIDTH", len(sizes))
    col = _assert_column_identical("pip-mcoll", "scatter", 2, 2, sizes)
    assert col.stats.partitions == (sizes,)
    assert col.stats.singleton_sizes == ()


def test_rebatch_recursion_and_depth_exhaustion(monkeypatch):
    """Signature clusters re-batch under their own pivot until the depth
    bound, then fall back to the DAG engine — exactly either way.

    Stages divergence the conflict check would not naturally flag: every
    pass marks all but its pivot as one signature cluster, so the cluster
    re-batches (width shrinking by one per level) until ``_REBATCH_DEPTH``
    exhausts and the remainder drains to the DAG engine.  Results must be
    bit-identical throughout — including the accepted pivots' vectorized
    results and the carried warm-state of every re-batched pass.
    """

    def all_but_pivot(self):
        bad = np.ones(self.width, dtype=bool)
        bad[0] = False
        return bad if self.width >= 3 else np.zeros(self.width, dtype=bool)

    def one_cluster(self, divergent):
        labels = np.full(self.width, -1, dtype=np.int64)
        labels[divergent] = 0
        return labels

    monkeypatch.setattr(BatchTimeline, "order_divergence", all_but_pivot)
    monkeypatch.setattr(BatchTimeline, "divergence_labels", one_cluster)
    from repro.sched import batch as batch_mod

    monkeypatch.setattr(batch_mod, "_REBATCH_DEPTH", 2)
    clear_lowering_cache()
    sizes = (256, 512, 1024, 2048, 4096, 8192)
    col = _assert_column_identical("pip-mcoll", "scatter", 2, 2, sizes)
    # depth 0 (width 6) and depth 1 (width 5) each re-batch one cluster;
    # depth 2 hits the bound and drains the remaining flagged sizes
    assert col.stats.retries == 2
    assert col.stats.rebatch_depth == 2
    assert col.stats.fallback_sizes  # the depth-exhausted remainder
    clear_lowering_cache()


# -- surface and argument checking ---------------------------------------


def test_batch_rejects_unsupported_pairs():
    with pytest.raises(ValueError, match="planner-backed"):
        evaluate_column("OpenMPI", "bcast", 2, 2, (512,))


def test_batch_rejects_threshold_overrides_without_thresholds():
    with pytest.raises(ValueError, match="thresholds"):
        evaluate_column(
            "PiP-MPICH", "allgather", 2, 2, (512,), thresholds=Thresholds()
        )


def test_batch_honours_threshold_overrides():
    kw = dict(thresholds=Thresholds.always_large())
    _assert_column_identical(
        "pip-mcoll", "allreduce", 2, 2, (512, 4096), **kw
    )


def test_batch_requires_measured_iteration():
    with pytest.raises(ValueError, match="measured"):
        evaluate_column("PiP-MColl", "allreduce", 2, 2, (512,), measure=0)


def test_batch_rejects_empty_axis():
    with pytest.raises(ValueError, match="empty"):
        evaluate_column("PiP-MColl", "allreduce", 2, 2, ())


# -- run_point / engine registry integration -----------------------------


def test_run_point_engine_batch_identical_to_dag():
    batch = run_point("PiP-MColl", "allreduce", 2, 2, 4096, engine="batch")
    dag = run_point("PiP-MColl", "allreduce", 2, 2, 4096, engine="dag")
    assert batch == dag


def test_run_point_engine_batch_rejects_tracing():
    from repro.sim.trace import Tracer

    with pytest.raises(ValueError, match="trace"):
        run_point("PiP-MColl", "allreduce", 2, 2, 512, engine="batch",
                  tracer=Tracer())


# -- lowering cache -------------------------------------------------------


def test_repeated_columns_do_not_relower():
    clear_lowering_cache()
    sizes = (512, 1024, 4096)
    evaluate_column("PiP-MColl", "allgather", 2, 3, sizes)
    first = lowering_cache_info()
    assert first.misses > 0 and first.currsize > 0
    evaluate_column("PiP-MColl", "allgather", 2, 3, sizes)
    second = lowering_cache_info()
    assert second.misses == first.misses
    assert second.hits > first.hits


def test_lowering_cache_stays_at_capacity():
    """More distinct lowerings than the capacity evict the least recently
    used: the cache never grows past its bound."""
    clear_lowering_cache()
    capacity = lowering_cache_info().maxsize
    last = capacity + 9
    for s in range(1, last + 1):
        evaluate_point("PiP-MColl", "scatter", 1, 2, s)
    info = lowering_cache_info()
    assert info.misses == last
    assert info.currsize == capacity
    evaluate_point("PiP-MColl", "scatter", 1, 2, last)  # most recent: kept
    assert lowering_cache_info().hits == info.hits + 1
    evaluate_point("PiP-MColl", "scatter", 1, 2, 1)  # oldest: evicted
    assert lowering_cache_info().misses == last + 1
    assert lowering_cache_info().currsize == capacity
    clear_lowering_cache()


def test_lowering_cache_reports_through_planner_window():
    info = planner_cache_info()
    assert "batch_lowering" in info
    li = info["batch_lowering"]
    assert li == lowering_cache_info()
    assert hasattr(li, "hits") and hasattr(li, "misses")
