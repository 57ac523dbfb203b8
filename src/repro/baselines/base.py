"""The MPI-library interface every modelled implementation provides.

A *library* bundles (a) the intranode transport mechanism its p2p path uses
and (b) its collective algorithm choices.  Benchmarks instantiate one
library per run and call its collectives through this interface.

Every collective is a compiled schedule: a library's one
:meth:`~MpiLibrary.select` maps an invocation to the planner that builds
its schedule, and the collective methods here replay that schedule on the
calling rank.  The schedule registry (:mod:`repro.sched.registry`) asks
the same method, so the event loop, the replays and the static checker
run one selection.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Tuple

from repro.mpi.buffer import Buffer
from repro.mpi.collectives.group import Group
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx, World
from repro.sched.executor import ScheduleExecutor
from repro.sched.ir import Schedule
from repro.shmem.base import ShmemMechanism
from repro.sim.engine import Delay, ProcGen

__all__ = ["MpiLibrary", "Selection", "buffer_counts", "node_group",
           "leader_group", "replay"]

#: what :meth:`MpiLibrary.select` returns: the planner, the arguments it
#: is called with, and the group-tag symbols its schedule binds
Selection = Tuple[Callable[..., Schedule], tuple, Tuple[str, ...]]


def node_group(ctx: RankCtx) -> Group:
    """This rank's node as a group (leader = local rank 0 = index 0)."""
    return Group(range(ctx.node * ctx.ppn, (ctx.node + 1) * ctx.ppn))


def leader_group(ctx: RankCtx) -> Group:
    """One leader (local rank 0) per node."""
    return Group(ctx.rank_of(n, 0) for n in range(ctx.nodes))


def buffer_counts(collective: str, size: int,
                  count) -> Tuple[Dict[str, int], Dict[str, int]]:
    """Each buffer's element count for one world collective, as
    ``(root's, every other rank's)``.

    ``size`` is the world size and ``count`` the per-rank element count
    (an alltoall's per-rank block, 0 for a barrier).  A buffer only the
    root supplies is absent from the other ranks' counts; the unrooted
    collectives give every rank the same counts.
    """
    whole = size * count
    return {
        "scatter": ({"send": whole, "recv": count}, {"recv": count}),
        "allgather": ({"send": count, "recv": whole},) * 2,
        "allreduce": ({"send": count, "recv": count},) * 2,
        "alltoall": ({"send": whole, "recv": whole},) * 2,
        "bcast": ({"buf": count},) * 2,
        "gather": ({"send": count, "recv": whole}, {"send": count}),
        "reduce": ({"send": count, "recv": count}, {"send": count}),
        "barrier": ({"token": 0},) * 2,
    }[collective]


def replay(ctx: RankCtx, schedule: Schedule, tags: Tuple[str, ...],
           bindings: Dict[str, Optional[Buffer]],
           op: Optional[ReduceOp] = None,
           group: Optional[Group] = None) -> ProcGen:
    """Replay ``schedule`` on this rank, binding its group tags.

    ``group`` is the participating group (default: the world): this rank
    runs its program ``group.index_of(ctx.rank)``.  Each tag symbol is the
    collective tag of the group whose phase it scopes, drawn in ``tags``
    order: ``"tag"`` the participating group's, ``"node-in"`` and
    ``"node-out"`` this rank's node's, and ``"leader"`` the node leaders'
    — drawn on leaders only, as only they run that phase.
    """
    symbols = {}
    for name in tags:
        if name == "tag":
            scope = group if group is not None else Group(
                range(ctx.world_size)
            )
        elif name == "leader":
            if ctx.local_rank:
                continue
            scope = leader_group(ctx)
        else:
            scope = node_group(ctx)
        symbols[name] = ctx.collective_tag(scope)
    yield from ScheduleExecutor(schedule).run(
        ctx, bindings, op=op, symbols=symbols,
        program_index=None if group is None else group.index_of(ctx.rank),
    )


class MpiLibrary(abc.ABC):
    """One modelled MPI implementation."""

    #: display name for reports
    name: str = "abstract"
    #: fixed per-collective-call software-stack overhead per rank (models
    #: differences in progress-engine/path length between implementations)
    software_overhead: float = 0.0

    @abc.abstractmethod
    def make_mechanism(self) -> Optional[ShmemMechanism]:
        """Fresh intranode mechanism for a new :class:`World`."""

    @abc.abstractmethod
    def select(self, collective: str, nodes: int, ppn: int, count, nbytes,
               root: int = 0) -> Selection:
        """The library's algorithm for one world collective.

        ``count`` is the per-rank element count (an alltoall's per-rank
        block, 0 for a barrier) and ``nbytes`` the same in bytes, which
        the size switches read; ``root`` is the rooted collectives' global
        root rank.  Both may be a :class:`~repro.sim.batchline.SizeVec`
        when the registry plans a whole size column.
        """

    def make_world(
        self, topology, params, phantom: bool = False, tracer=None,
        validate: bool = False,
    ) -> World:
        """Convenience: a world configured with this library's transport."""
        return World(
            topology, params, mechanism=self.make_mechanism(),
            phantom=phantom, tracer=tracer, validate=validate,
        )

    # -- collectives --------------------------------------------------------

    def scatter(
        self, ctx: RankCtx, sendbuf: Optional[Buffer], recvbuf: Buffer,
        root: int = 0,
    ) -> ProcGen:
        """MPI_Scatter over the whole world."""
        yield from self._run(ctx, "scatter", recvbuf.count, recvbuf.nbytes,
                             {"send": sendbuf, "recv": recvbuf}, root)

    def allgather(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
        """MPI_Allgather over the whole world."""
        yield from self._run(ctx, "allgather", sendbuf.count,
                             sendbuf.nbytes,
                             {"send": sendbuf, "recv": recvbuf})

    def allreduce(
        self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer, op: ReduceOp
    ) -> ProcGen:
        """MPI_Allreduce over the whole world."""
        yield from self._run(ctx, "allreduce", sendbuf.count,
                             sendbuf.nbytes,
                             {"send": sendbuf, "recv": recvbuf}, op=op)

    def alltoall(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
        """MPI_Alltoall over the whole world (equal blocks)."""
        size = ctx.world_size
        yield from self._run(ctx, "alltoall", sendbuf.count // size,
                             sendbuf.nbytes // size,
                             {"send": sendbuf, "recv": recvbuf})

    def bcast(self, ctx: RankCtx, buf: Buffer, root: int = 0) -> ProcGen:
        """MPI_Bcast over the whole world."""
        yield from self._run(ctx, "bcast", buf.count, buf.nbytes,
                             {"buf": buf}, root)

    def gather(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Optional[Buffer],
               root: int = 0) -> ProcGen:
        """MPI_Gather over the whole world."""
        yield from self._run(ctx, "gather", sendbuf.count, sendbuf.nbytes,
                             {"send": sendbuf, "recv": recvbuf}, root)

    def reduce(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Optional[Buffer],
               op: ReduceOp, root: int = 0) -> ProcGen:
        """MPI_Reduce over the whole world."""
        yield from self._run(ctx, "reduce", sendbuf.count, sendbuf.nbytes,
                             {"send": sendbuf, "recv": recvbuf}, root, op)

    def barrier(self, ctx: RankCtx) -> ProcGen:
        """MPI_Barrier over the whole world."""
        # every exchange sends and receives one fresh zero-byte token
        yield from self._run(ctx, "barrier", 0, 0,
                             {"token": ctx.alloc_bytes(0)})

    # -- helpers -------------------------------------------------------------

    def _run(self, ctx: RankCtx, collective: str, count: int, nbytes: int,
             bindings: Dict[str, Optional[Buffer]], root: int = 0,
             op: Optional[ReduceOp] = None) -> ProcGen:
        """Check the buffers, charge the per-call software overhead, then
        replay the schedule :meth:`select` picks for this invocation."""
        counts = buffer_counts(collective, ctx.world_size, count)
        for name, need in counts[ctx.rank != root].items():
            buf = bindings.get(name)
            if buf is None:
                raise ValueError(
                    f"{collective} needs a {name} buffer of {need} elements"
                    f" on rank {ctx.rank}"
                )
            if buf.count != need:
                raise ValueError(
                    f"{collective} {name} buffer has {buf.count} elements,"
                    f" need {need}"
                )
        yield Delay(self.software_overhead)
        planner, args, tags = self.select(
            collective, ctx.nodes, ctx.ppn, count, nbytes, root
        )
        yield from replay(ctx, planner(*args), tags, bindings, op)

    def __str__(self) -> str:
        return self.name
