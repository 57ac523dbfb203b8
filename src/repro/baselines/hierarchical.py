"""Two-level (leader-based) collective composition.

MVAPICH2 and Intel MPI run hierarchical collectives by default: an
intranode phase over shared memory, an internode phase among one
*leader* process per node (local rank 0), and an intranode fan-out.  The
intranode phases travel through the library's configured shared-memory
mechanism via regular p2p.

Every composition compiles to one schedule
(:mod:`repro.sched.plans.hierarchical`), which the libraries select and
replay themselves; the wrappers here run the scatter, allgather and
allreduce compositions with a caller-chosen leader algorithm.  That
argument is a *selector* ``(leader count, bytes) -> emitter`` over the
group emitters of :mod:`repro.sched.plans.baseline`, such as MPICH's
choice (``mpich_select``).
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional

from repro.baselines.base import leader_group, node_group, replay
from repro.mpi.buffer import Buffer
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx
from repro.sched.plans.baseline import mpich_select
from repro.sched.plans.hierarchical import (
    COMPOSE_TAGS,
    FAN_OUT_TAGS,
    plan_hier_allgather,
    plan_hier_allreduce,
    plan_hier_scatter,
)
from repro.sim.engine import ProcGen

__all__ = ["node_group", "leader_group", "hier_scatter", "hier_allgather",
           "hier_allreduce"]


def hier_scatter(
    ctx: RankCtx,
    sendbuf: Optional[Buffer],
    recvbuf: Buffer,
    root: int,
    leader_scatter: Callable = partial(mpich_select, "scatter"),
) -> ProcGen:
    """Leader-based scatter.

    A non-leader root first forwards its buffer to its node's leader,
    which is what production libraries fall back to as well.
    """
    emit = leader_scatter(ctx.nodes, ctx.ppn * recvbuf.nbytes)
    schedule = plan_hier_scatter(
        ctx.nodes, ctx.ppn, recvbuf.count, root, emit
    )
    yield from replay(
        ctx, schedule, FAN_OUT_TAGS, {"send": sendbuf, "recv": recvbuf}
    )


def hier_allgather(
    ctx: RankCtx,
    sendbuf: Buffer,
    recvbuf: Buffer,
    leader_allgather: Callable,
) -> ProcGen:
    """Intranode gather -> leader allgather -> intranode broadcast."""
    emit = leader_allgather(ctx.nodes, recvbuf.nbytes)
    schedule = plan_hier_allgather(ctx.nodes, ctx.ppn, sendbuf.count, emit)
    yield from replay(
        ctx, schedule, COMPOSE_TAGS, {"send": sendbuf, "recv": recvbuf}
    )


def hier_allreduce(
    ctx: RankCtx,
    sendbuf: Buffer,
    recvbuf: Buffer,
    op: ReduceOp,
    leader_allreduce: Callable,
) -> ProcGen:
    """Intranode reduce -> leader allreduce -> intranode broadcast."""
    emit = leader_allreduce(ctx.nodes, sendbuf.nbytes)
    schedule = plan_hier_allreduce(ctx.nodes, ctx.ppn, sendbuf.count, emit)
    yield from replay(
        ctx, schedule, COMPOSE_TAGS, {"send": sendbuf, "recv": recvbuf},
        op=op,
    )
