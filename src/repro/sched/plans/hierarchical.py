"""Planners for the two-level (leader-based) compositions.

MVAPICH2 and Intel MPI run scatter, allgather, allreduce, bcast and
reduce as an intranode phase over each node's group, an internode phase
among one leader per node (local rank 0), and an intranode fan-out — the
two-level scheme of Zhou et al. (arXiv:2007.06892).  Each planner chains
the group emitters of :mod:`repro.sched.plans.baseline` into one
world-indexed program per rank; the leader phase runs whichever emitter
the caller's selector picked (MPICH's, for the modelled libraries).

Every group phase tags its messages with its own group's collective tag,
drawn by the wrapper and bound as a symbol: ``"node-in"`` for the
intranode gather/reduce, ``"leader"`` for the leader phase and
``"node-out"`` for the intranode scatter/broadcast.  The rooted
compositions move data between a non-leader root and its node's leader
on a constant, root-scoped tag: only those two ranks use that channel.
"""

from __future__ import annotations

from functools import lru_cache

from repro.sched.emit import Emitter
from repro.sched.ir import BufRef, Schedule, Sym
from repro.sched.plans.baseline import (
    GroupEmitter,
    emit_bcast_binomial,
    emit_gather_binomial,
    emit_reduce_binomial,
    emit_scatter_binomial,
)

__all__ = [
    "plan_hier_scatter",
    "plan_hier_allgather",
    "plan_hier_allreduce",
    "plan_hier_bcast",
    "plan_hier_reduce",
    "FAN_OUT_TAGS",
    "FAN_IN_TAGS",
    "COMPOSE_TAGS",
]

_NODE_IN = Sym("node-in")
_LEADER = Sym("leader")
_NODE_OUT = Sym("node-out")

#: the group-tag symbols each composition binds, in draw order: the
#: rooted fan-outs (scatter, bcast), the rooted fan-in (reduce), and the
#: unrooted compositions (allgather, allreduce)
FAN_OUT_TAGS = ("leader", "node-out")
FAN_IN_TAGS = ("node-in", "leader")
COMPOSE_TAGS = ("node-in", "leader", "node-out")


def _schedule(programs, label: str) -> Schedule:
    return Schedule(tuple(programs), num_namespaces=0, label=label)


@lru_cache(maxsize=None)
def plan_hier_scatter(nodes: int, ppn: int, count, root: int,
                      leader: GroupEmitter) -> Schedule:
    """Leader-based scatter from global rank ``root``.

    A non-leader root first relocates its buffer onto its node's leader
    (one intranode hop on a constant, root-scoped tag: only the root and
    its leader use that channel), as production libraries do.
    """
    N, P, C = nodes, ppn, count
    leaders = tuple(n * P for n in range(N))
    root_node = root // P
    root_leader = root_node * P
    reloc = ("hier-reloc", root)
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        node_ranks = tuple(range(node * P, (node + 1) * P))
        em = Emitter()
        staging = None
        if root != root_leader:
            if rank == root:
                em.wait(em.isend(root_leader, BufRef("send"), reloc))
            elif rank == root_leader:
                staging = "hsc_stg"
                em.alloc(staging, N * P * C, dtype_of="recv")
                em.wait(em.irecv(root, BufRef(staging), reloc))
        elif rank == root:
            staging = "send"

        if lr == 0:
            # internode: scatter node blocks among the leaders, then
            # scatter my node block locally
            em.alloc("hsc_nb", P * C, dtype_of="recv")
            leader(em, leaders, node, P * C, _LEADER, root_node,
                   send=staging, recv="hsc_nb", prefix="hsc_l_")
            emit_scatter_binomial(em, node_ranks, 0, C, _NODE_OUT,
                                  send="hsc_nb", prefix="hsc_n_")
        else:
            emit_scatter_binomial(em, node_ranks, lr, C, _NODE_OUT,
                                  send=None, prefix="hsc_n_")
        programs.append(em.build())
    return _schedule(programs, f"hier-scatter {N}x{P} c{C} root{root}")


@lru_cache(maxsize=None)
def plan_hier_allgather(nodes: int, ppn: int, count,
                        leader: GroupEmitter) -> Schedule:
    """Intranode gather -> leader allgather -> intranode broadcast."""
    N, P, C = nodes, ppn, count
    leaders = tuple(n * P for n in range(N))
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        node_ranks = tuple(range(node * P, (node + 1) * P))
        em = Emitter()
        if lr == 0:
            em.alloc("hag_nb", P * C, dtype_of="send")
            emit_gather_binomial(em, node_ranks, 0, C, _NODE_IN,
                                 recv="hag_nb", prefix="hag_n_")
            leader(em, leaders, node, P * C, _LEADER,
                   send="hag_nb", prefix="hag_l_")
        else:
            emit_gather_binomial(em, node_ranks, lr, C, _NODE_IN,
                                 recv=None, prefix="hag_n_")
        emit_bcast_binomial(em, node_ranks, lr, N * P * C, _NODE_OUT,
                            buf="recv")
        programs.append(em.build())
    return _schedule(programs, f"hier-allgather {N}x{P} c{C}")


@lru_cache(maxsize=None)
def plan_hier_allreduce(nodes: int, ppn: int, count,
                        leader: GroupEmitter) -> Schedule:
    """Intranode reduce -> leader allreduce -> intranode broadcast."""
    N, P, C = nodes, ppn, count
    leaders = tuple(n * P for n in range(N))
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        node_ranks = tuple(range(node * P, (node + 1) * P))
        em = Emitter()
        if lr == 0:
            em.alloc("har_part", C, dtype_of="send")
            emit_reduce_binomial(em, node_ranks, 0, C, _NODE_IN,
                                 recv="har_part", prefix="har_n_")
            leader(em, leaders, node, C, _LEADER,
                   send="har_part", prefix="har_l_")
        else:
            emit_reduce_binomial(em, node_ranks, lr, C, _NODE_IN,
                                 recv=None, prefix="har_n_")
        emit_bcast_binomial(em, node_ranks, lr, C, _NODE_OUT, buf="recv")
        programs.append(em.build())
    return _schedule(programs, f"hier-allreduce {N}x{P} c{C}")


@lru_cache(maxsize=None)
def plan_hier_bcast(nodes: int, ppn: int, count, root: int,
                    leader: GroupEmitter) -> Schedule:
    """Leader-based broadcast: root -> its leader -> leaders -> intranode.

    A non-leader root first forwards its buffer to its node's leader (one
    intranode hop), as production libraries do.
    """
    N, P, C = nodes, ppn, count
    leaders = tuple(n * P for n in range(N))
    root_node = root // P
    root_leader = root_node * P
    reloc = ("hier-bcast-reloc", root)
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        em = Emitter()
        if root != root_leader:
            if rank == root:
                em.wait(em.isend(root_leader, BufRef("buf"), reloc))
            elif rank == root_leader:
                em.wait(em.irecv(root, BufRef("buf"), reloc))
        if lr == 0:
            leader(em, leaders, node, C, _LEADER, root_node, buf="buf")
        emit_bcast_binomial(em, tuple(range(node * P, (node + 1) * P)), lr,
                            C, _NODE_OUT, 0, buf="buf")
        programs.append(em.build())
    return _schedule(programs, f"hier-bcast {N}x{P} c{C} root{root}")


@lru_cache(maxsize=None)
def plan_hier_reduce(nodes: int, ppn: int, count, root: int,
                     leader: GroupEmitter) -> Schedule:
    """Leader-based reduce: intranode reduce -> leader reduce -> deliver.

    The leader reduction targets the root's node leader; a final intranode
    hop delivers to a non-leader root.
    """
    N, P, C = nodes, ppn, count
    leaders = tuple(n * P for n in range(N))
    root_node = root // P
    root_leader = root_node * P
    deliver = ("hier-reduce-deliver", root)
    programs = []
    for rank in range(N * P):
        node, lr = divmod(rank, P)
        node_ranks = tuple(range(node * P, (node + 1) * P))
        em = Emitter()
        if lr == 0:
            em.alloc("hre_part", C, dtype_of="send")
            emit_reduce_binomial(em, node_ranks, 0, C, _NODE_IN, 0,
                                 recv="hre_part", prefix="hre_n_")
            result = None
            if rank == root:
                result = "recv"
            elif rank == root_leader:
                result = "hre_res"
                em.alloc(result, C, dtype_of="send")
            leader(em, leaders, node, C, _LEADER, root_node,
                   send="hre_part", recv=result, prefix="hre_l_")
            if rank == root_leader and rank != root:
                em.wait(em.isend(root, BufRef(result), deliver))
        else:
            emit_reduce_binomial(em, node_ranks, lr, C, _NODE_IN, 0,
                                 recv=None, prefix="hre_n_")
            if rank == root:
                em.wait(em.irecv(root_leader, BufRef("recv"), deliver))
        programs.append(em.build())
    return _schedule(programs, f"hier-reduce {N}x{P} c{C} root{root}")
