"""Differential execution engine: run one campaign point, check payloads.

For every :class:`~repro.verify.cases.Case` the engine builds a real-buffer
(non-phantom) world with ``validate=True`` — arming the runtime semantics
oracles (send-buffer reuse, non-overtaking, quiescence) — executes exactly
one collective, and compares every rank's final payload against the pure
numpy oracles in :mod:`repro.verify.oracles`.

A point fails on a payload mismatch, a :class:`ValidationError`, or any
other exception; the failure report always carries the one-line repro
command from :func:`repro_command`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines.base import replay
from repro.baselines.registry import make_library
from repro.core.mcoll import PiPMColl
from repro.core.tuning import Thresholds
from repro.hw import Topology, tiny_test_machine
from repro.mpi.buffer import Buffer
from repro.mpi.collectives import (
    allgatherv_ring,
    gatherv_linear,
    reduce_scatter_halving,
    reduce_scatter_pairwise,
    scatterv_linear,
)
from repro.mpi.collectives.group import Group
from repro.mpi.datatypes import BYTE, DataType, ReduceOp
from repro.mpi.runtime import World
from repro.sched.plans.baseline import (
    emit_allgather_bruck,
    emit_allgather_recursive_doubling,
    emit_allgather_ring,
    emit_allreduce_rabenseifner,
    emit_allreduce_recursive_doubling,
    emit_alltoall_bruck,
    emit_alltoall_pairwise,
    emit_barrier_dissemination,
    emit_bcast_binomial,
    emit_gather_binomial,
    emit_reduce_binomial,
    emit_scatter_binomial,
    plan_group,
)
from repro.sched.registry import plan_for
from repro.shmem.mechanisms import PipShmem, PosixShmem
from repro.verify import oracles
from repro.verify.cases import (
    DTYPES,
    MECHANISMS,
    OPS,
    Case,
    build_case,
)

__all__ = ["PointResult", "run_point", "repro_command"]

_DTYPE_BY_NAME: Dict[str, DataType] = {d.name: d for d in DTYPES}
_OP_BY_NAME: Dict[str, ReduceOp] = {o.name: o for o in OPS}

#: the classical group algorithms, by entry label: replayed from their
#: group schedules over the case's subgroup
_FLAT_EMITTERS = {
    "allgather_bruck": emit_allgather_bruck,
    "allgather_recursive_doubling": emit_allgather_recursive_doubling,
    "allgather_ring": emit_allgather_ring,
    "allreduce_recursive_doubling": emit_allreduce_recursive_doubling,
    "allreduce_rabenseifner": emit_allreduce_rabenseifner,
    "alltoall_bruck": emit_alltoall_bruck,
    "alltoall_pairwise": emit_alltoall_pairwise,
    "bcast_binomial": emit_bcast_binomial,
    "gather_binomial": emit_gather_binomial,
    "reduce_binomial": emit_reduce_binomial,
    "scatter_binomial": emit_scatter_binomial,
    "barrier_dissemination": emit_barrier_dissemination,
}
#: the reduce-scatter generators, run as written
_REDUCE_SCATTERS = {
    "reduce_scatter_halving": reduce_scatter_halving,
    "reduce_scatter_pairwise": reduce_scatter_pairwise,
}


@dataclass
class PointResult:
    """Outcome of one campaign point."""

    index: int
    case: Case
    ok: bool
    #: human-readable mismatch/error descriptions (empty when ok)
    failures: List[str] = field(default_factory=list)
    #: intranode mechanism actually used (library cases use their own)
    mechanism: str = ""

    def summary(self) -> str:
        status = "ok " if self.ok else "FAIL"
        return f"{status} [{self.index:4d}] {self.case.describe()}"


def repro_command(seed: int, index: int) -> str:
    """The one-liner that replays exactly this point."""
    return (
        f"PYTHONPATH=src python -m repro.verify --seed {seed} --point {index}"
    )


# -- deterministic content ----------------------------------------------------


def _fill(rng: np.random.Generator, dtype: DataType, n: int) -> np.ndarray:
    """Random payload in a range safe for every reduce op.

    Floats stay in [0.5, 1.5] so PROD over <=16 ranks neither explodes nor
    underflows; integers use the full wrap-capable range (the oracle wraps
    identically by accumulating in-dtype).
    """
    nd = dtype.np_dtype
    if n == 0:
        return np.empty(0, dtype=nd)
    if nd.kind == "f":
        return (rng.random(n) + 0.5).astype(nd)
    if nd == np.uint8:
        return rng.integers(0, 256, size=n, dtype=nd)
    return rng.integers(-100, 101, size=n, dtype=nd)


def _make_params(case: Case):
    params = tiny_test_machine()
    if case.eager_threshold is not None:
        params = params.with_overrides(eager_threshold=case.eager_threshold)
    return params


def _compare(
    per_rank_actual: Sequence[Optional[np.ndarray]],
    per_rank_expected: Sequence[Optional[np.ndarray]],
    labels: Sequence[str],
) -> List[str]:
    failures = []
    for label, actual, expected in zip(
        labels, per_rank_actual, per_rank_expected
    ):
        if expected is None:
            continue
        if actual is None:
            failures.append(f"{label}: missing output buffer")
            continue
        if not oracles.payloads_match(actual, expected):
            diff = _first_diff(actual, expected)
            failures.append(f"{label}: payload mismatch {diff}")
    return failures


def _first_diff(actual: np.ndarray, expected: np.ndarray) -> str:
    if actual.shape != expected.shape:
        return f"(shape {actual.shape} != {expected.shape})"
    if actual.dtype != expected.dtype:
        return f"(dtype {actual.dtype} != {expected.dtype})"
    bad = np.flatnonzero(actual != expected)
    if bad.size == 0:  # float tolerance failure
        return "(float tolerance exceeded)"
    i = int(bad[0])
    return (
        f"(first diff at [{i}]: got {actual[i]!r}, want {expected[i]!r}; "
        f"{bad.size}/{actual.size} elements differ)"
    )


# -- case runners -------------------------------------------------------------


def _run_library_case(case: Case) -> Tuple[List[str], str]:
    lib_name = case.entry.algo
    coll = case.entry.collective
    if lib_name == "PiP-MColl" and case.thresholds != "default":
        thr = (
            Thresholds.always_small()
            if case.thresholds == "small"
            else Thresholds.always_large()
        )
        lib = PiPMColl(thr)
    else:
        lib = make_library(lib_name)
    mech = lib.make_mechanism()
    world = World(
        Topology(case.nodes, case.ppn),
        _make_params(case),
        mechanism=mech,
        validate=True,
    )
    P = world.world_size
    C = case.count
    dtype = _DTYPE_BY_NAME[case.dtype_name]
    op = _OP_BY_NAME[case.op_name]
    root = case.root_index
    rng = np.random.default_rng((case.index, 0xC0FFEE))

    if coll == "barrier":
        world.run(lambda ctx: lib.barrier(ctx))
        return [], mech.name if mech is not None else "none"

    inputs = [_fill(rng, dtype, C) for _ in range(P)]
    sendbufs: List[Optional[Buffer]] = []
    recvbufs: List[Optional[Buffer]] = []

    if coll == "scatter":
        root_input = _fill(rng, dtype, P * C)
        sendbufs = [
            Buffer.real(root_input.copy(), dtype) if r == root else None
            for r in range(P)
        ]
        recvbufs = [Buffer.alloc(dtype, C) for _ in range(P)]
        expected = oracles.scatter(root_input, P, C)
        body = lambda ctx: lib.scatter(  # noqa: E731
            ctx, sendbufs[ctx.rank], recvbufs[ctx.rank], root=root
        )
    elif coll == "allgather":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [Buffer.alloc(dtype, P * C) for _ in range(P)]
        expected = oracles.allgather(inputs)
        body = lambda ctx: lib.allgather(  # noqa: E731
            ctx, sendbufs[ctx.rank], recvbufs[ctx.rank]
        )
    elif coll == "allreduce":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [Buffer.alloc(dtype, C) for _ in range(P)]
        expected = oracles.allreduce(inputs, op)
        body = lambda ctx: lib.allreduce(  # noqa: E731
            ctx, sendbufs[ctx.rank], recvbufs[ctx.rank], op
        )
    elif coll == "alltoall":
        inputs = [_fill(rng, dtype, P * C) for _ in range(P)]
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [Buffer.alloc(dtype, P * C) for _ in range(P)]
        expected = oracles.alltoall(inputs, C)
        body = lambda ctx: lib.alltoall(  # noqa: E731
            ctx, sendbufs[ctx.rank], recvbufs[ctx.rank]
        )
    elif coll == "bcast":
        bufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = bufs
        expected = oracles.bcast(inputs[root], P)
        body = lambda ctx: lib.bcast(ctx, bufs[ctx.rank], root=root)  # noqa: E731
    elif coll == "gather":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [
            Buffer.alloc(dtype, P * C) if r == root else None
            for r in range(P)
        ]
        expected = oracles.gather(inputs, root)
        body = lambda ctx: lib.gather(  # noqa: E731
            ctx, sendbufs[ctx.rank], recvbufs[ctx.rank], root=root
        )
    elif coll == "reduce":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [
            Buffer.alloc(dtype, C) if r == root else None for r in range(P)
        ]
        expected = oracles.reduce(inputs, op, root)
        body = lambda ctx: lib.reduce(  # noqa: E731
            ctx, sendbufs[ctx.rank], recvbufs[ctx.rank], op, root=root
        )
    else:  # pragma: no cover - registry/enum drift
        raise ValueError(f"unknown library collective {coll!r}")

    world.run(body)
    actual = [b.array() if b is not None else None for b in recvbufs]
    labels = [f"rank {r} ({coll})" for r in range(P)]
    return (
        _compare(actual, expected, labels),
        mech.name if mech is not None else "none",
    )


def _noop_body():
    return
    yield  # pragma: no cover - makes this a generator


def _run_flat_case(case: Case) -> Tuple[List[str], str]:
    algo = case.entry.algo
    mech = MECHANISMS[case.mechanism]()
    world = World(
        Topology(case.nodes, case.ppn),
        _make_params(case),
        mechanism=mech,
        validate=True,
    )
    group = Group(case.group_ranks)
    size = group.size
    C = case.count
    dtype = _DTYPE_BY_NAME[case.dtype_name]
    op = _OP_BY_NAME[case.op_name]
    root = case.root_index
    rng = np.random.default_rng((case.index, 0xC0FFEE))

    # inputs/expected are ordered by *group index*
    coll = case.entry.collective
    inputs = [_fill(rng, dtype, C) for _ in range(size)]
    sendbufs: List[Optional[Buffer]] = [None] * size
    recvbufs: List[Optional[Buffer]] = [None] * size
    expected: Sequence[Optional[np.ndarray]] = [None] * size

    if coll == "allgather":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [Buffer.alloc(dtype, size * C) for _ in range(size)]
        expected = oracles.allgather(inputs)
    elif coll == "allreduce":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [Buffer.alloc(dtype, C) for _ in range(size)]
        expected = oracles.allreduce(inputs, op)
    elif coll == "alltoall":
        inputs = [_fill(rng, dtype, size * C) for _ in range(size)]
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [Buffer.alloc(dtype, size * C) for _ in range(size)]
        expected = oracles.alltoall(inputs, C)
    elif coll == "bcast":
        recvbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        expected = oracles.bcast(inputs[root], size)
    elif coll == "gather":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [
            Buffer.alloc(dtype, size * C) if i == root else None
            for i in range(size)
        ]
        expected = oracles.gather(inputs, root)
    elif coll == "reduce":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [
            Buffer.alloc(dtype, C) if i == root else None for i in range(size)
        ]
        expected = oracles.reduce(inputs, op, root)
    elif coll == "reduce_scatter":
        inputs = [_fill(rng, dtype, size * C) for _ in range(size)]
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [Buffer.alloc(dtype, C) for _ in range(size)]
        expected = oracles.reduce_scatter(inputs, op, C)
    elif coll == "scatter":
        root_input = _fill(rng, dtype, size * C)
        sendbufs = [
            Buffer.real(root_input.copy(), dtype) if i == root else None
            for i in range(size)
        ]
        recvbufs = [Buffer.alloc(dtype, C) for _ in range(size)]
        expected = oracles.scatter(root_input, size, C)
    elif coll != "barrier":  # pragma: no cover - registry/enum drift
        raise ValueError(f"unknown flat collective {coll!r}")

    if coll == "reduce_scatter":
        schedule = None
    else:
        rooted = coll in ("scatter", "gather", "reduce", "bcast")
        schedule = plan_group(
            _FLAT_EMITTERS[algo], group.ranks,
            0 if coll == "barrier" else C, *((root,) if rooted else ()),
        )

    def body(ctx):
        if ctx.rank not in group:
            return _noop_body()
        i = group.index_of(ctx.rank)
        if schedule is None:
            return _REDUCE_SCATTERS[algo](
                ctx, group, sendbufs[i], recvbufs[i], op
            )
        if coll == "barrier":
            bindings = {"token": ctx.alloc_bytes(0)}
        elif coll == "bcast":
            bindings = {"buf": recvbufs[i]}
        else:
            bindings = {"send": sendbufs[i], "recv": recvbufs[i]}
        return replay(ctx, schedule, ("tag",), bindings, op, group)

    world.run(body)
    if coll == "barrier":
        return [], mech.name
    actual = [b.array() if b is not None else None for b in recvbufs]
    labels = [
        f"group[{i}]=rank {r} ({algo})"
        for i, r in enumerate(case.group_ranks)
    ]
    return _compare(actual, expected, labels), mech.name


def _run_vector_case(case: Case) -> Tuple[List[str], str]:
    algo = case.entry.algo
    mech = MECHANISMS[case.mechanism]()
    world = World(
        Topology(case.nodes, case.ppn),
        _make_params(case),
        mechanism=mech,
        validate=True,
    )
    group = Group(case.group_ranks)
    size = group.size
    dtype = _DTYPE_BY_NAME[case.dtype_name]
    counts, displs = list(case.counts), list(case.displs)
    total = max(
        (d + c for c, d in zip(counts, displs)), default=0
    )
    root = case.root_index
    rng = np.random.default_rng((case.index, 0xC0FFEE))

    inputs = [_fill(rng, dtype, c) for c in counts]
    sendbufs: List[Optional[Buffer]] = [None] * size
    recvbufs: List[Optional[Buffer]] = [None] * size

    if algo == "scatterv":
        root_input = _fill(rng, dtype, total)
        sendbufs = [
            Buffer.real(root_input.copy(), dtype) if i == root else None
            for i in range(size)
        ]
        recvbufs = [Buffer.alloc(dtype, c) for c in counts]
        expected = oracles.scatterv(root_input, counts, displs)

        def body(ctx):
            if ctx.rank not in group:
                return _noop_body()
            i = group.index_of(ctx.rank)
            return scatterv_linear(
                ctx, group, sendbufs[i], counts, displs, recvbufs[i],
                root_index=root,
            )
    elif algo == "gatherv":
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [
            Buffer.alloc(dtype, total) if i == root else None
            for i in range(size)
        ]
        expected = oracles.gatherv(inputs, counts, displs, root, total)

        def body(ctx):
            if ctx.rank not in group:
                return _noop_body()
            i = group.index_of(ctx.rank)
            return gatherv_linear(
                ctx, group, sendbufs[i], counts, displs, recvbufs[i],
                root_index=root,
            )
    else:  # allgatherv
        sendbufs = [Buffer.real(a.copy(), dtype) for a in inputs]
        recvbufs = [Buffer.alloc(dtype, total) for _ in range(size)]
        expected = oracles.allgatherv(inputs, counts, displs, total)

        def body(ctx):
            if ctx.rank not in group:
                return _noop_body()
            i = group.index_of(ctx.rank)
            return allgatherv_ring(
                ctx, group, sendbufs[i], counts, displs, recvbufs[i]
            )

    world.run(body)
    actual = [b.array() if b is not None else None for b in recvbufs]
    labels = [
        f"group[{i}]=rank {r} ({algo})"
        for i, r in enumerate(case.group_ranks)
    ]
    return _compare(actual, expected, labels), mech.name


def _run_schedule_case(case: Case) -> Tuple[List[str], str]:
    lib, coll = case.entry.algo.split(":")
    thr = None
    if lib == "pip-mcoll" and case.thresholds != "default":
        thr = (
            Thresholds.always_small()
            if case.thresholds == "small"
            else Thresholds.always_large()
        )
    planned = plan_for(
        lib, coll, case.nodes, case.ppn, case.count, thresholds=thr
    )
    mech = PipShmem() if lib.startswith("pip") else PosixShmem()
    world = World(
        Topology(case.nodes, case.ppn),
        _make_params(case),
        mechanism=mech,
        validate=True,
    )
    P = world.world_size
    C = case.count  # byte elements: schedules plan in bytes
    op = _OP_BY_NAME[case.op_name]
    rng = np.random.default_rng((case.index, 0xC0FFEE))

    # per-participant buffers: "send" and the bcast root's "buf" are
    # inputs, the rest outputs; every plan roots at global rank 0
    inputs: List[Optional[np.ndarray]] = [None] * P
    bound: List[Dict[str, Optional[Buffer]]] = []
    for i in range(P):
        bufs: Dict[str, Optional[Buffer]] = {}
        for name, count in planned.bindings[i].items():
            if name == "send" or (name == "buf" and i == 0):
                arr = _fill(rng, BYTE, count)
                if inputs[i] is None:
                    inputs[i] = arr
                bufs[name] = Buffer.real(arr.copy(), BYTE)
            else:
                bufs[name] = Buffer.alloc(BYTE, count)
        bound.append(bufs)

    tags = tuple(planned.symbols)

    def body(ctx):
        # registry schedules are world-indexed: program i is rank i
        return replay(ctx, planned.schedule, tags, bound[ctx.rank], op)

    world.run(body)

    if coll == "scatter":
        expected = oracles.scatter(inputs[0], P, C)
    elif coll == "allgather":
        expected = oracles.allgather(inputs)
    elif coll == "allreduce":
        expected = oracles.allreduce(inputs, op)
    elif coll == "alltoall":
        expected = oracles.alltoall(inputs, C)
    elif coll == "bcast":
        expected = oracles.bcast(inputs[0], P)
    elif coll == "gather":
        expected = oracles.gather(inputs, 0)
    elif coll == "reduce":
        expected = oracles.reduce(inputs, op, 0)
    else:  # pragma: no cover - registry drift
        raise ValueError(f"no oracle for schedule collective {coll!r}")

    out = "buf" if coll == "bcast" else "recv"
    actual = [
        bound[i][out].array() if out in bound[i] else None
        for i in range(P)
    ]
    labels = [f"rank {r} ({planned.label})" for r in planned.ranks]
    return _compare(actual, expected, labels), mech.name


_RUNNERS: Dict[str, Callable[[Case], Tuple[List[str], str]]] = {
    "library": _run_library_case,
    "flat": _run_flat_case,
    "vector": _run_vector_case,
    "schedule": _run_schedule_case,
}


def run_point(seed: int, index: int) -> PointResult:
    """Build and execute campaign point ``index``; never raises."""
    case = build_case(seed, index)
    try:
        failures, mech_name = _RUNNERS[case.entry.kind](case)
    except Exception as exc:  # noqa: BLE001 - report, don't crash the sweep
        failures = [f"{type(exc).__name__}: {exc}"]
        mech_name = case.mechanism
    return PointResult(
        index=index,
        case=case,
        ok=not failures,
        failures=failures,
        mechanism=mech_name,
    )
