"""Two-level (leader-based) collective composition.

MVAPICH2 and Intel MPI run hierarchical collectives by default: an
intranode phase over shared memory, an internode phase among one *leader*
process per node (local rank 0), and an intranode fan-out.  The
intranode phases travel through the library's configured shared-memory
mechanism via regular p2p.

Scatter, allgather and allreduce compile to one schedule per composition
(:mod:`repro.sched.plans.hierarchical`); their wrappers here draw each
group's collective tag and replay it.  The leader-algorithm argument is a
*selector* ``(leader count, bytes) -> emitter`` over the group emitters of
:mod:`repro.sched.plans.baseline`, such as MPICH's ``mpich_*`` choices.
Broadcast and reduce compose the classical group wrappers directly.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.mpi.buffer import Buffer
from repro.mpi.collectives import bcast_binomial, reduce_binomial
from repro.mpi.collectives.group import Group
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx
from repro.sched.executor import ScheduleExecutor
from repro.sched.ir import Schedule
from repro.sched.plans.baseline import mpich_scatter
from repro.sched.plans.hierarchical import (
    COMPOSE_TAGS,
    SCATTER_TAGS,
    plan_hier_allgather,
    plan_hier_allreduce,
    plan_hier_scatter,
)
from repro.sim.engine import ProcGen

__all__ = ["node_group", "leader_group", "hier_scatter", "hier_allgather",
           "hier_allreduce"]


def node_group(ctx: RankCtx) -> Group:
    """This rank's node as a group (leader = local rank 0 = index 0)."""
    return Group(range(ctx.node * ctx.ppn, (ctx.node + 1) * ctx.ppn))


def leader_group(ctx: RankCtx) -> Group:
    """One leader (local rank 0) per node."""
    return Group(ctx.rank_of(n, 0) for n in range(ctx.nodes))


def _compose(ctx: RankCtx, schedule: Schedule, tags: Tuple[str, ...],
             bindings: Dict[str, Optional[Buffer]],
             op: Optional[ReduceOp] = None) -> ProcGen:
    """Replay a two-level composition on this rank.

    Draws each phase's group tag in the composition's order, exactly as
    the phases would: the node group's for ``"node-in"`` and
    ``"node-out"``, the leader group's for ``"leader"`` (leaders only).
    """
    ngroup = node_group(ctx)
    groups = {"node-in": ngroup, "leader": leader_group(ctx),
              "node-out": ngroup}
    symbols = {
        name: ctx.collective_tag(groups[name]) for name in tags
        if name != "leader" or ctx.local_rank == 0
    }
    yield from ScheduleExecutor(schedule).run(
        ctx, bindings, op=op, symbols=symbols,
    )


def hier_scatter(
    ctx: RankCtx,
    sendbuf: Optional[Buffer],
    recvbuf: Buffer,
    root: int,
    leader_scatter: Callable = mpich_scatter,
) -> ProcGen:
    """Leader-based scatter.

    Assumes the root is a node leader (the benchmarks use rank 0, as the
    paper does); a non-leader root first forwards its buffer to its node's
    leader, which is what production libraries fall back to as well.
    """
    emit = leader_scatter(ctx.nodes, ctx.ppn * recvbuf.nbytes)
    schedule = plan_hier_scatter(
        ctx.nodes, ctx.ppn, recvbuf.count, root, emit
    )
    yield from _compose(
        ctx, schedule, SCATTER_TAGS, {"send": sendbuf, "recv": recvbuf}
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
    yield from _compose(
        ctx, schedule, COMPOSE_TAGS, {"send": sendbuf, "recv": recvbuf}
    )


def hier_bcast(ctx: RankCtx, buf: Buffer, root: int) -> ProcGen:
    """Leader-based broadcast: root -> its leader -> leaders -> intranode.

    Non-leader roots forward to their node's leader first (one intranode
    hop), as production libraries do.
    """
    root_node = ctx.node_of(root)
    root_leader = ctx.rank_of(root_node, 0)
    tag = ("hier-bcast-reloc", root)
    if root != root_leader:
        if ctx.rank == root:
            yield from ctx.send(root_leader, buf, tag=tag)
        elif ctx.rank == root_leader:
            yield from ctx.recv(root, buf, tag=tag)
    leaders = leader_group(ctx)
    if ctx.local_rank == 0:
        yield from bcast_binomial(
            ctx, leaders, buf, leaders.index_of(root_leader)
        )
    yield from bcast_binomial(ctx, node_group(ctx), buf, 0)


def hier_reduce(
    ctx: RankCtx,
    sendbuf: Buffer,
    recvbuf: Optional[Buffer],
    op: ReduceOp,
    root: int,
    leader_reduce: Callable = reduce_binomial,
) -> ProcGen:
    """Leader-based reduce: intranode reduce -> leader reduce -> deliver.

    The leader reduction targets the root's node leader; a final intranode
    hop delivers to a non-leader root.
    """
    root_node = ctx.node_of(root)
    root_leader = ctx.rank_of(root_node, 0)
    leaders = leader_group(ctx)
    ngroup = node_group(ctx)
    tag = ("hier-reduce-deliver", root)

    if ctx.local_rank == 0:
        partial = ctx.alloc(sendbuf.dtype, sendbuf.count)
        yield from reduce_binomial(ctx, ngroup, sendbuf, partial, op, 0)
        if ctx.rank == root_leader:
            result = recvbuf if ctx.rank == root else ctx.alloc(
                sendbuf.dtype, sendbuf.count
            )
            yield from leader_reduce(
                ctx, leaders, partial, result,
                op, leaders.index_of(root_leader),
            )
            if ctx.rank != root:
                yield from ctx.send(root, result, tag=tag)
        else:
            yield from leader_reduce(
                ctx, leaders, partial, None, op, leaders.index_of(root_leader)
            )
    else:
        yield from reduce_binomial(ctx, ngroup, sendbuf, None, op, 0)
        if ctx.rank == root and ctx.rank != root_leader:
            assert recvbuf is not None
            yield from ctx.recv(root_leader, recvbuf, tag=tag)


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
    yield from _compose(
        ctx, schedule, COMPOSE_TAGS, {"send": sendbuf, "recv": recvbuf},
        op=op,
    )
