"""The classical group algorithms, replayed from their compiled schedules.

Binomial scatter, gather, bcast and reduce (MPICH-style), recursive
doubling and Rabenseifner allreduce (both with the non-power-of-two fold:
the first ``2*rem`` members pair up, odd members absorb their even
neighbour and join the power-of-two core, and results are copied back at
the end), and the three classical allgathers the paper names (§III-A2):
Bruck for small non-power-of-two, recursive doubling for small
power-of-two, ring for large messages.

Each algorithm is described once, as an ``emit_*`` planner in
:mod:`repro.sched.plans.baseline`; the functions here are thin wrappers
that draw the communicator-scoped tag (it mutates per-(rank, group)
counters), bind it symbolically, and replay the group schedule through
the :class:`~repro.sched.executor.ScheduleExecutor`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.mpi.buffer import Buffer
from repro.mpi.collectives.group import Group
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx
from repro.sched.executor import ScheduleExecutor
from repro.sched.plans.baseline import (
    GroupEmitter,
    emit_allgather_bruck,
    emit_allgather_recursive_doubling,
    emit_allgather_ring,
    emit_allreduce_rabenseifner,
    emit_allreduce_recursive_doubling,
    emit_bcast_binomial,
    emit_gather_binomial,
    emit_reduce_binomial,
    emit_scatter_binomial,
    plan_group,
)
from repro.sim.engine import ProcGen
from repro.util.intmath import is_power_of

__all__ = [
    "run_group",
    "scatter_binomial",
    "gather_binomial",
    "bcast_binomial",
    "reduce_binomial",
    "allreduce_recursive_doubling",
    "allreduce_rabenseifner",
    "allgather_bruck",
    "allgather_recursive_doubling",
    "allgather_ring",
]


def run_group(
    ctx: RankCtx,
    group: Group,
    emit: GroupEmitter,
    bindings: Dict[str, Optional[Buffer]],
    count: int,
    *root: int,
    op: Optional[ReduceOp] = None,
) -> ProcGen:
    """Replay group algorithm ``emit`` over ``group`` on this rank.

    ``bindings`` maps the emitter's buffer names to this rank's buffers
    (``None`` for buffers only the root supplies), ``count`` is the
    per-member element count and ``root`` the rooted algorithms'
    ``root_index``.
    """
    me = group.index_of(ctx.rank)
    tag = ctx.collective_tag(group)
    schedule = plan_group(emit, group.ranks, count, *root)
    yield from ScheduleExecutor(schedule).run(
        ctx, bindings, op=op, symbols={"tag": tag}, program_index=me,
    )


def scatter_binomial(
    ctx: RankCtx, group: Group, sendbuf: Optional[Buffer], recvbuf: Buffer,
    root_index: int = 0,
) -> ProcGen:
    """Binomial-tree scatter: ``sendbuf`` (root only, ``size * count``
    elements, ordered by group index) is split into per-rank blocks of
    ``recvbuf.count`` elements."""
    yield from run_group(
        ctx, group, emit_scatter_binomial,
        {"send": sendbuf, "recv": recvbuf}, recvbuf.count, root_index,
    )


def gather_binomial(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Optional[Buffer],
    root_index: int = 0,
) -> ProcGen:
    """Binomial-tree gather: every rank's ``sendbuf`` (``count`` elements)
    lands in the root's ``recvbuf`` ordered by group index."""
    yield from run_group(
        ctx, group, emit_gather_binomial,
        {"send": sendbuf, "recv": recvbuf}, sendbuf.count, root_index,
    )


def bcast_binomial(
    ctx: RankCtx, group: Group, buf: Buffer, root_index: int = 0
) -> ProcGen:
    """Binomial-tree broadcast of ``buf`` from ``group[root_index]``: the
    classic MPICH small-message broadcast, ``ceil(log2 size)`` rounds."""
    yield from run_group(
        ctx, group, emit_bcast_binomial, {"buf": buf}, buf.count, root_index,
    )


def reduce_binomial(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Optional[Buffer],
    op: ReduceOp, root_index: int = 0,
) -> ProcGen:
    """Binomial-tree reduction into ``group[root_index]``'s ``recvbuf``
    (commutative operators)."""
    yield from run_group(
        ctx, group, emit_reduce_binomial,
        {"send": sendbuf, "recv": recvbuf}, sendbuf.count, root_index, op=op,
    )


def allreduce_recursive_doubling(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Buffer,
    op: ReduceOp,
) -> ProcGen:
    """Recursive-doubling allreduce: ``log2`` rounds of full-buffer
    exchanges, latency-optimal for small messages (MPICH's default up to
    2 kB)."""
    yield from run_group(
        ctx, group, emit_allreduce_recursive_doubling,
        {"send": sendbuf, "recv": recvbuf}, sendbuf.count, op=op,
    )


def allreduce_rabenseifner(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Buffer,
    op: ReduceOp,
) -> ProcGen:
    """Rabenseifner's allreduce: recursive-halving reduce-scatter followed
    by recursive-doubling allgather — the bandwidth-optimal large-message
    default the paper's §III-B2 contrasts against."""
    yield from run_group(
        ctx, group, emit_allreduce_rabenseifner,
        {"send": sendbuf, "recv": recvbuf}, sendbuf.count, op=op,
    )


def _allgather(ctx: RankCtx, group: Group, emit: GroupEmitter,
               sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
    count = sendbuf.count
    if recvbuf.count != group.size * count:
        raise ValueError(
            f"recvbuf has {recvbuf.count} elements, "
            f"need {group.size * count}"
        )
    yield from run_group(
        ctx, group, emit, {"send": sendbuf, "recv": recvbuf}, count,
    )


def allgather_bruck(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Buffer
) -> ProcGen:
    """Bruck allgather: ``ceil(log2 size)`` rounds, any group size."""
    yield from _allgather(ctx, group, emit_allgather_bruck, sendbuf, recvbuf)


def allgather_recursive_doubling(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Buffer
) -> ProcGen:
    """Recursive-doubling allgather (power-of-two group sizes only)."""
    if not is_power_of(2, group.size):
        raise ValueError(
            f"recursive doubling needs a power-of-two size, got {group.size}"
        )
    yield from _allgather(
        ctx, group, emit_allgather_recursive_doubling, sendbuf, recvbuf
    )


def allgather_ring(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Buffer
) -> ProcGen:
    """Ring allgather: ``size - 1`` rounds of neighbour exchange —
    bandwidth-optimal total traffic, the classical large-message choice."""
    yield from _allgather(ctx, group, emit_allgather_ring, sendbuf, recvbuf)
