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
from repro.core.tuning import Thresholds
from repro.hw.params import bebop_broadwell
from repro.sched import batch as batch_mod
from repro.sched.batch import (
    _evaluate_partition,
    evaluate_column,
    lowering_cache_info,
)
from repro.sched.fastpath import evaluate_point, lower_column
from repro.sched.ir import BufRef, IntraOpStep, RankProgram, Schedule
from repro.sched.registry import (
    PLANNER_BACKED,
    PlannedCollective,
    plan_column,
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
    results, divergent, labels = _evaluate_partition(
        lowered, 1, 2, sizes, make_library("PiP-MColl"), bebop_broadwell(),
        warmup=1, measure=1,
    )
    # with no size left to accept, the pass stops after the warm-up, and
    # its verdict covers the iteration it ran
    assert results is None
    assert divergent.tolist() == [True, True, True]
    assert labels is not None


@pytest.mark.xfail(strict=True, reason="a commuting access can jump past "
                   "a strict one unchecked (ROADMAP, first open item)")
def test_commuting_access_cannot_jump_a_strict_one_unchecked():
    """Every size a pass leaves unflagged must equal its DAG replay.  In
    this PiP-MPICH allreduce 2x16 pass, node 0's memory-lane pool logs
    zero-wait reservations before reservations that waited; at 2435 B
    the earlier ones fire later, an inversion the adjacent-pair check
    forgives as commuting, so the pass accepts a wrong sample."""
    sizes = (2233, 2435)
    (piece,) = plan_column("PiP-MPICH", "allreduce", 2, 16, sizes)
    lowered = lower_column(piece, sizes, ppn=16)
    results, divergent, _ = _evaluate_partition(
        lowered, 2, 16, sizes, make_library("PiP-MPICH"), bebop_broadwell(),
        warmup=0, measure=1,
    )
    for size, got, flagged in zip(sizes, results, divergent):
        if not flagged:
            assert got == evaluate_point("PiP-MPICH", "allreduce", 2, 16,
                                         size, warmup=0, measure=1), size


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
    exhausts and the remainder drains to the DAG engine.  A width floor of
    one lets every pass run to the end (a lone pivot always pays for the
    iterations left), so results must be bit-identical throughout —
    including the accepted pivots' vectorized results and the carried
    warm-state of every re-batched pass.
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
    monkeypatch.setattr(batch_mod, "_MIN_BATCH_WIDTH", 1)
    sizes = (256, 512, 1024, 2048, 4096, 8192)
    col = _assert_column_identical("pip-mcoll", "scatter", 2, 2, sizes)
    # depth 0 (width 6) and depth 1 (width 5) each re-batch one cluster;
    # depth 2 hits the bound and drains the remaining flagged sizes
    assert col.stats.retries == 2
    assert col.stats.rebatch_depth == 2
    assert col.stats.fallback_sizes  # the depth-exhausted remainder
    assert [p[0] for p in col.stats.partitions] == [256, 512, 1024]
    assert col.stats.abandoned == ()


#: every second size of the eighth-octave axis from 71467 B to 512 KB
#: (OpenMPI allgather 2x16): the memory-lane pool diverges at every size
#: but the pivot during the warm-up, yet most of them agree with each other
CONTENDED = tuple(int(16 * 2 ** (k / 8)) for k in range(97, 121, 2))


def test_pass_without_survivors_is_abandoned_after_the_warm_up():
    """A pass whose warm-up leaves only its pivot undivergent stops
    there: the pivot goes to the DAG engine, and the divergent sizes are
    re-adjudicated as a completed pass's are — the largest signature
    cluster re-batches under its own pivot and is accepted."""
    col = _assert_column_identical("openmpi", "allgather", 2, 16, CONTENDED)
    st = col.stats
    assert st.abandoned == (CONTENDED,)
    assert CONTENDED[0] in st.singleton_sizes
    assert st.retries >= 1
    assert any(set(p) < set(CONTENDED) for p in st.partitions)
    # every size is accounted for exactly once
    accepted = sum(len(p) for p in st.partitions)
    assert (accepted + len(st.fallback_sizes) + len(st.singleton_sizes)
            == len(CONTENDED))


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


def test_single_size_column_identical_to_dag():
    col = evaluate_column("PiP-MColl", "allreduce", 2, 2, (4096,))
    assert col.results == {
        4096: evaluate_point("PiP-MColl", "allreduce", 2, 2, 4096)
    }


# -- lowering ------------------------------------------------------------


def test_each_column_lowers_every_pass_and_dag_size_once():
    """No lowering is kept: a column lowers each vector pass it starts (a
    completed partition, one abandoned at a split or at an iteration
    boundary) and each size it routes to the DAG engine, once, and a
    repeat of the column lowers them all again."""
    for lib, nodes, ppn, sizes in (("OpenMPI", 2, 4, STRADDLE_AXIS),
                                   ("OpenMPI", 2, 16, CONTENDED)):
        made = []
        for _ in range(2):
            before = lowering_cache_info().misses
            col = evaluate_column(lib, "allgather", nodes, ppn, sizes)
            made.append(lowering_cache_info().misses - before)
        st = col.stats
        assert st.fallback_sizes and st.singleton_sizes
        assert st.splits if sizes is STRADDLE_AXIS else st.abandoned
        passes = len(st.partitions) + len(st.abandoned) + st.splits
        dag_sizes = len(st.fallback_sizes) + len(st.singleton_sizes)
        assert made == [passes + dag_sizes] * 2
    info = lowering_cache_info()
    assert (info.hits, info.maxsize, info.currsize) == (0, None, 0)
