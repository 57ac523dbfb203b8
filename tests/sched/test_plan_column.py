"""Column planning: one planner run per schedule structure.

``plan_column`` runs the registry's algorithm selection and planners once
over a :class:`~repro.sim.batchline.SizeVec`, and ``lower_column`` lowers
any selection of its sizes.  Both must reproduce per-size planning and
per-size lowering exactly: every piece is one structure group of
per-size planning, and the lowerings have the same opcodes, operands,
environments, tag tables and handle counts — equal in value *and* type —
at every size.  The batch engine runs each piece as one group, so this
file pins its grouping.
"""

import operator

import numpy as np
import pytest

from repro.core.tuning import Thresholds
from repro.mpi.collectives import group as group_mod
from repro.mpi.collectives.group import block_partition
from repro.sched import batch as batch_mod
from repro.sched.batch import evaluate_column
from repro.sched.fastpath import evaluate_point, lower_column
from repro.sched.ir import (
    AllocStep,
    ComputeStep,
    CopyStep,
    IntraOpStep,
    PhaseStep,
    RecvStep,
    ReduceStep,
    SendStep,
    WaitStep,
)
from repro.sched.plans import baseline, hierarchical, mcoll, ring
from repro.sched.registry import plan_column, plan_for, registry_combinations
from repro.sim.batchline import BatchDivergence, BatchTimeline, SizeVec
from repro.util.units import KB

SHAPES = (
    (1, 1), (1, 4), (2, 1), (2, 3), (3, 3), (4, 3), (5, 2), (3, 7), (4, 8),
    (2, 16), (6, 5),
)
#: the eighth-octave axis, 16 B .. 512 KB (121 sizes)
OCTAVE_AXIS = tuple(sorted({int(16 * 2 ** (k / 8)) for k in range(121)}))
SMALL_AXIS = tuple(range(0, 65))
OVERRIDES = (
    Thresholds.always_small(),
    Thresholds.always_large(),
    Thresholds(allgather_large_bytes=100, allreduce_large_bytes=3000),
)
PLANNERS = (
    mcoll.plan_scatter, mcoll.plan_allgather_small, mcoll.plan_allgather_large,
    mcoll.plan_allreduce_small, mcoll.plan_allreduce_large,
    mcoll.plan_alltoall, mcoll.plan_bcast, mcoll.plan_gather,
    mcoll.plan_reduce_small, mcoll.plan_reduce_large,
    baseline.plan_group, hierarchical.plan_hier_scatter,
    hierarchical.plan_hier_allgather, hierarchical.plan_hier_allreduce,
    hierarchical.plan_hier_bcast, hierarchical.plan_hier_reduce,
)


@pytest.fixture(autouse=True)
def _drop_reference_plans():
    """The per-size references fill the planners' caches with thousands
    of schedules; release them after each test."""
    yield
    for planner in PLANNERS:
        planner.cache_clear()


# -- the size vector ------------------------------------------------------


def test_mixed_vector_branches_raise_with_the_split_mask():
    v = SizeVec([16, 32, 64])
    with pytest.raises(BatchDivergence) as info:
        bool(v < 40)
    assert info.value.mask.tolist() == [True, True, False]
    with pytest.raises(BatchDivergence) as info:
        min(v, 40)
    assert info.value.mask.tolist() == [False, False, True]
    for collapse in (range, int, operator.index):
        with pytest.raises(BatchDivergence) as info:
            collapse(v)
        assert info.value.mask.tolist() == [True, False, False]
    if_taken = []
    with pytest.raises(BatchDivergence):
        if v > 20:
            if_taken.append(True)
    assert not if_taken


def test_uniform_vector_branches_return_plain_python_values():
    v = SizeVec([5, 5, 5])
    assert bool(v > 0) is True and bool(v > 9) is False
    assert bool(v) is True and bool(v - 5) is False
    assert list(range(v)) == [0, 1, 2, 3, 4]
    for value in (int(v), operator.index(v)):
        assert value == 5 and type(value) is int
    assert [1, 2, 3, 4, 5, 6][v] == 6
    assert min(v, 9) is v and max(v, 9) == 9


def test_size_vector_is_unhashable():
    with pytest.raises(TypeError):
        hash(SizeVec([1, 2]))


def test_in_place_operators_leave_aliases_untouched():
    v = SizeVec([1, 2, 3])
    alias = v
    v += 1
    assert alias.tolist() == [1, 2, 3]
    assert v.tolist() == [2, 3, 4] and type(v) is SizeVec
    v *= 2
    v -= 1
    v //= 3
    v %= 2
    assert alias.tolist() == [1, 2, 3]


def test_arithmetic_stays_a_size_vector():
    v = SizeVec([10, 11])
    for out in (v + 1, 2 * v, v - 3, v // 4, v % 3, divmod(v, 3)[1], v < 11):
        assert type(out) is SizeVec


# -- branch-free block partition -----------------------------------------


def _block_partition_with_branch(count, parts):
    base, extra = divmod(count, parts)
    counts = tuple(base + (1 if i < extra else 0) for i in range(parts))
    displs, acc = [], 0
    for c in counts:
        displs.append(acc)
        acc += c
    return counts, tuple(displs)


def test_branch_free_block_partition_matches_the_branching_form():
    for count in range(301):
        for parts in range(1, 21):
            got = block_partition(count, parts)
            assert got == _block_partition_with_branch(count, parts)
            assert all(type(x) is int for half in got for x in half)


def test_block_partition_of_a_size_vector_is_element_wise():
    counts, displs = block_partition(SizeVec([7, 8, 9, 10]), 4)
    for j, c in enumerate((7, 8, 9, 10)):
        want = block_partition(c, 4)
        assert tuple(int(x[j]) for x in counts) == want[0]
        assert tuple(int(x[j]) if isinstance(x, np.ndarray) else x
                     for x in displs) == want[1]


# -- identity with per-size planning and lowering ------------------------


def _threshold_axis(nodes, ppn):
    """Sizes one byte either side of every size switch: the PiP-MColl
    64 KB algorithm switches, MPICH's 80 KB-total ring switch, 2 KB
    allreduce switch and 256 B alltoall block switch, and the 16 KB
    eager/rendezvous threshold."""
    world = nodes * ppn
    marks = (64 * KB, 16 * KB, 2 * KB, 256, 80 * KB // world,
             -(-80 * KB // world))
    return tuple(sorted({m + d for m in marks for d in (-1, 0, 1)
                         if m + d >= 1}))


_NS = (101, 102, 103)
_SYMBOLS = {"tag": (7, 9), "node-in": (7, 3), "leader": (7, 4),
            "node-out": (7, 5)}


def _canonical(low):
    """Every field of a lowering as text: ``repr`` shows the type of every
    number (``5`` vs ``np.int64(5)``), and tag builders are evaluated."""
    rows = [repr(low.envs), repr((low.nbufs, low.num_namespaces, low.tags))]
    for comp in low.compiled:
        rows.append(repr(comp.ops))
        rows.append(repr(comp.const_tags))
        rows.append(repr([(slot, build(_NS, _SYMBOLS))
                          for slot, build in comp.dyn_tags]))
        rows.append(repr(comp.num_handles))
    return rows


def _at(value, j):
    """Size ``j``'s view of a lowered column."""
    if isinstance(value, np.ndarray):
        return value.item(j)
    if isinstance(value, tuple):
        return tuple(_at(v, j) for v in value)
    if isinstance(value, dict):
        return {k: _at(v, j) for k, v in value.items()}
    return value


def _ref_sig(ref) -> tuple:
    # offsets/counts are data (selected at lowering); name and the
    # whole-buffer marker are structure
    return (ref.name, ref.count is None)


def _program_signature(program) -> tuple:
    sig = []
    for step in program.steps:
        cls = step.__class__
        if cls is SendStep:
            sig.append(("s", step.dst, step.handle, step.tag,
                        _ref_sig(step.buf)))
        elif cls is RecvStep:
            sig.append(("r", step.src, step.handle, step.tag))
        elif cls is WaitStep:
            sig.append(("w", step.handles))
        elif cls is CopyStep:
            sig.append(("c", _ref_sig(step.src), step.dst.name))
        elif cls is ReduceStep:
            sig.append(("d", _ref_sig(step.src), step.dst.name))
        elif cls is IntraOpStep:
            sig.append(("i", step.op, step.key, step.bind, step.n,
                        None if step.value is None else _ref_sig(step.value)))
        elif cls is AllocStep:
            sig.append(("a", step.name, step.dtype_of))
        elif cls is PhaseStep:
            sig.append(("p", step.name))
        elif cls is ComputeStep:
            sig.append(("x",))
        else:  # pragma: no cover - the IR is closed
            raise TypeError(f"unknown step {step!r}")
    return (tuple(sig), program.num_handles)


def schedule_signature(schedule) -> tuple:
    """The schedule's structure with all counts/offsets erased: equal
    signatures mean the same opcode program — step classes, peers, tags,
    handle slots, buffer names — differing only in numeric operands."""
    return (schedule.num_namespaces,
            tuple(_program_signature(p) for p in schedule.programs))


def _assert_column_matches_per_size(lib, coll, nodes, ppn, sizes,
                                    thresholds=None):
    """``plan_column``'s pieces are exactly the structure groups of
    per-size planning — a branch that splits the column without changing
    its structure fails here — and at each piece's first, middle and last
    size (the sizes either side of every switch among them) its
    lowerings equal per-size lowering."""
    label = f"{lib}/{coll} {nodes}x{ppn} {thresholds}"
    reference = {
        s: plan_for(lib, coll, nodes, ppn, s, thresholds=thresholds)
        for s in sizes
    }
    per_size = {}
    for s in sizes:
        sig = schedule_signature(reference[s].schedule)
        per_size.setdefault(sig, []).append(s)
    pieces = plan_column(lib, coll, nodes, ppn, sizes, thresholds)
    assert sorted(axis for axis, _ in pieces) == sorted(
        tuple(g) for g in per_size.values()), label

    for piece in pieces:
        axis = piece[0]
        column = lower_column(piece, axis, ppn)
        for j in sorted({0, len(axis) // 2, len(axis) - 1}):
            s = axis[j]
            want = _canonical(lower_column(((s,), reference[s]), (s,), ppn))
            got = _canonical(lower_column(piece, (s,), ppn))
            assert got == want, f"{label} {s}B width-1"
            assert _canonical(column._replace(
                compiled=tuple(
                    c._replace(ops=_at(c.ops, j)) for c in column.compiled
                ),
                envs=_at(column.envs, j),
            )) == want, f"{label} {s}B in column"


@pytest.mark.parametrize("nodes,ppn", SHAPES)
def test_column_plans_and_lowerings_match_per_size(nodes, ppn):
    # every registry pair at one shape: pairs that share planners (the two
    # PiP-MColl variants, the two MPICH-selection baselines) share the
    # per-size reference plans through the planners' caches
    switches = _threshold_axis(nodes, ppn)
    sizes = tuple(sorted(set(SMALL_AXIS + switches + OCTAVE_AXIS)))
    for lib, coll in registry_combinations():
        _assert_column_matches_per_size(lib, coll, nodes, ppn, sizes)


@pytest.mark.parametrize("thresholds", OVERRIDES)
def test_column_plans_honour_threshold_overrides(thresholds):
    switches = tuple(sorted({
        t + d for t in (thresholds.allgather_large_bytes,
                        thresholds.allreduce_large_bytes)
        for d in (-1, 0, 1) if 1 <= t + d <= OCTAVE_AXIS[-1]
    }))
    sizes = tuple(sorted(set(SMALL_AXIS + switches + OCTAVE_AXIS)))
    for lib in ("pip-mcoll", "pip-mcoll-small"):
        for coll in ("allgather", "allreduce"):
            _assert_column_matches_per_size(
                lib, coll, 2, 3, sizes, thresholds,
            )


def test_dag_replays_batch_lowered_sizes_bit_identically(monkeypatch):
    """With every size sent to the DAG engine, each replays the width-1
    entry the batch engine lowered from its vector plan; results must
    equal points the DAG engine plans and lowers itself."""

    def all_divergent(self):
        return np.ones(self.width, dtype=bool)

    monkeypatch.setattr(BatchTimeline, "order_divergence", all_divergent)
    # run a vector pass on every partition wider than one size
    monkeypatch.setattr(batch_mod, "_MIN_BATCH_WIDTH", 2)
    sizes = (2048, 4096, 8192, 65536, 131072, 262144)
    col = evaluate_column("PiP-MColl", "allreduce", 4, 3, sizes)
    assert set(col.stats.fallback_sizes) == set(sizes)
    for s in sizes:
        assert evaluate_point("PiP-MColl", "allreduce", 4, 3, s) \
            == col.results[s], s


def test_over_split_columns_stay_exact(monkeypatch):
    """A planner branch that splits the column without changing the
    schedule's structure only costs partitions: with the branching
    ``block_partition`` the column splits into more pieces, each runs as
    its own group, and every result equals the unpatched column's."""
    sizes = (96, 97, 98, 99, 100, 101, 131072, 131073, 131075)
    args = ("PiP-MColl", "allreduce", 4, 3, sizes)
    # run a vector pass on every partition wider than one size
    monkeypatch.setattr(batch_mod, "_MIN_BATCH_WIDTH", 2)
    want = evaluate_column(*args)
    pieces = plan_column("pip-mcoll", "allreduce", 4, 3, sizes)
    for module in (group_mod, mcoll, ring):
        monkeypatch.setattr(module, "block_partition",
                            _block_partition_with_branch)
    split = plan_column("pip-mcoll", "allreduce", 4, 3, sizes)
    assert len(split) > len(pieces)  # C % N branches split the column
    got = evaluate_column(*args)
    assert (len(got.stats.partitions) + len(got.stats.singleton_sizes)
            > len(want.stats.partitions) + len(want.stats.singleton_sizes))
    assert got.results == want.results


def test_planning_runs_once_per_structure(monkeypatch):
    """The batch engine never plans per size: the planners run once per
    structure over a size vector, and the cached per-size path stays
    cold."""
    calls = []
    original = plan_column

    def counting(*args, **kwargs):
        pieces = original(*args, **kwargs)
        calls.append(len(pieces))
        return pieces

    monkeypatch.setattr(batch_mod, "plan_column", counting)
    before = mcoll.plan_scatter.cache_info()
    evaluate_column("PiP-MColl", "scatter", 2, 4, OCTAVE_AXIS)
    assert calls == [1]
    after = mcoll.plan_scatter.cache_info()
    assert after.misses == before.misses and after.hits == before.hits
