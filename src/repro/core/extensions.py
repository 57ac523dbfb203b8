"""PiP-MColl's multi-object extensions: alltoall, bcast, gather, reduce
and barrier.

Beyond the paper's three collectives, the same ingredients — every
process of a node as an internode sender/receiver, reading and writing
its peers' buffers directly through PiP — give a full collective suite.
Each algorithm is described and compiled by its planner in
:mod:`repro.sched.plans.mcoll`; the wrappers here check the buffers and
replay the schedule through the
:class:`~repro.sched.executor.ScheduleExecutor`.
"""

from __future__ import annotations

from repro.mpi.buffer import Buffer
from repro.mpi.collectives.alltoall import check_alltoall_buffers
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx
from repro.sched.executor import ScheduleExecutor
from repro.sched.plans.mcoll import (
    plan_alltoall,
    plan_barrier,
    plan_bcast,
    plan_gather,
    plan_reduce_large,
)
from repro.sim.engine import ProcGen

__all__ = ["mcoll_alltoall", "mcoll_bcast", "mcoll_gather", "mcoll_reduce",
           "mcoll_barrier"]


def mcoll_alltoall(ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
    """Multi-object alltoall: block ``r`` of my ``sendbuf`` lands in block
    ``me`` of rank ``r``'s ``recvbuf`` (equal blocks of ``count``
    elements)."""
    check_alltoall_buffers(sendbuf, recvbuf, ctx.world_size)
    schedule = plan_alltoall(
        ctx.nodes, ctx.ppn, sendbuf.count // ctx.world_size
    )
    yield from ScheduleExecutor(schedule).run(
        ctx, {"send": sendbuf, "recv": recvbuf}
    )


def mcoll_bcast(ctx: RankCtx, buf: Buffer, root: int = 0) -> ProcGen:
    """Multi-object broadcast of ``root``'s ``buf`` into every rank's
    ``buf``, over the (P+1)-ary tree of the multi-object scatter."""
    schedule = plan_bcast(ctx.nodes, ctx.ppn, buf.count, root)
    yield from ScheduleExecutor(schedule).run(ctx, {"buf": buf})


def mcoll_gather(
    ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer | None, root: int = 0
) -> ProcGen:
    """Multi-object gather of every rank's ``sendbuf`` (``count``
    elements) into ``root``'s ``recvbuf`` (``world_size * count``,
    global-rank order)."""
    if ctx.rank == root:
        assert recvbuf is not None, "root must supply a receive buffer"
        need = ctx.world_size * sendbuf.count
        if recvbuf.count != need:
            raise ValueError(
                f"recvbuf has {recvbuf.count} elements, need {need}"
            )
    schedule = plan_gather(ctx.nodes, ctx.ppn, sendbuf.count, root)
    yield from ScheduleExecutor(schedule).run(
        ctx, {"send": sendbuf, "recv": recvbuf}
    )


def mcoll_reduce(
    ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer | None, op: ReduceOp,
    root: int = 0,
) -> ProcGen:
    """Multi-object reduce-scatter-then-collect reduce of every rank's
    ``sendbuf`` into ``root``'s ``recvbuf`` (both ``count`` elements)."""
    C = sendbuf.count
    if ctx.rank == root:
        assert recvbuf is not None, "root must supply a receive buffer"
        if recvbuf.count != C:
            raise ValueError(f"recvbuf has {recvbuf.count} elements, need {C}")
    schedule = plan_reduce_large(ctx.nodes, ctx.ppn, C, root)
    yield from ScheduleExecutor(schedule).run(
        ctx, {"send": sendbuf, "recv": recvbuf}, op=op
    )


def mcoll_barrier(ctx: RankCtx) -> ProcGen:
    """Multi-object dissemination barrier of radix ``P + 1``: block until
    every rank of the world has entered it."""
    schedule = plan_barrier(ctx.nodes, ctx.ppn)
    yield from ScheduleExecutor(schedule).run(
        ctx, {"token": ctx.alloc_bytes(0)}
    )
