"""PiP-MColl auxiliary intranode collectives (§III-C, Fig. 5).

These are the userspace building blocks the primary collectives compose:
broadcast, gather, and reduce *within one node*, built purely from PiP
primitives — address posting, flag counters, and direct loads/stores into
peer buffers.  No messages, no syscalls, no double copies.

All functions must be called by **every rank of one node** (they
synchronise through the node's address board and counters, namespaced by
the per-rank collective sequence number, which is identical across ranks
because collectives are invoked in the same order everywhere).

Cost behaviour matches §III-C:

* small broadcast — root copies to a staging buffer, posts its address,
  peers copy out in parallel; the root does *not* wait.
* large broadcast — root posts its source buffer directly (zero staging
  copy) but must wait until every peer has copied out.
* gather — root posts its destination buffer; every process copies its
  block in, in parallel.
* small reduce — binomial tree of direct-access reductions.
* large reduce — every buffer is chunked P ways and process *i* reduces
  chunk *i* of every source into the destination (Fig. 5): P-way parallel
  reduction bandwidth.

Each operation is compiled to a per-local-rank schedule by the planners in
:mod:`repro.sched.plans.intranode` and replayed here by the
:class:`~repro.sched.executor.ScheduleExecutor`.  The intranode barrier is
no entry point of its own: planners inline it as
:meth:`~repro.sched.emit.Emitter.barrier`.
"""

from __future__ import annotations

from typing import Optional

from repro.mpi.buffer import Buffer
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx
from repro.sched.executor import ScheduleExecutor
from repro.sched.plans.intranode import (
    plan_intra_bcast,
    plan_intra_gather,
    plan_intra_reduce_binomial,
    plan_intra_reduce_chunked,
)
from repro.sim.engine import ProcGen

__all__ = [
    "intra_bcast",
    "intra_gather",
    "intra_reduce_binomial",
    "intra_reduce_chunked",
]


def intra_bcast(
    ctx: RankCtx, buf: Buffer, root_local: int = 0, large: bool = False
) -> ProcGen:
    """Intranode broadcast of the root's ``buf`` into every rank's ``buf``."""
    schedule = plan_intra_bcast(ctx.ppn, buf.count, root_local, large)
    yield from ScheduleExecutor(schedule).run(
        ctx, {"buf": buf}, program_index=ctx.local_rank
    )


def intra_gather(
    ctx: RankCtx,
    sendbuf: Buffer,
    recvbuf: Optional[Buffer],
    root_local: int = 0,
) -> ProcGen:
    """Intranode gather: rank ``l``'s block lands at offset ``l * count``
    of the root's ``recvbuf``.  Every process copies its own block in —
    P-way parallel, the inverse of Fig. 5's layout."""
    if ctx.local_rank == root_local:
        assert recvbuf is not None, "root must supply a receive buffer"
    schedule = plan_intra_gather(ctx.ppn, sendbuf.count, root_local)
    yield from ScheduleExecutor(schedule).run(
        ctx, {"send": sendbuf, "recv": recvbuf}, program_index=ctx.local_rank
    )


def intra_reduce_binomial(
    ctx: RankCtx,
    sendbuf: Buffer,
    recvbuf: Optional[Buffer],
    op: ReduceOp,
    root_local: int = 0,
) -> ProcGen:
    """Small-message intranode reduce: binomial tree of direct accesses.

    Each tree parent reads its child's accumulator straight out of the
    child's memory (PiP) — ``ceil(log2 P)`` rounds, no staging copies.
    """
    if (ctx.local_rank - root_local) % ctx.ppn == 0:
        assert recvbuf is not None, "root must supply a receive buffer"
    schedule = plan_intra_reduce_binomial(ctx.ppn, sendbuf.count, root_local)
    yield from ScheduleExecutor(schedule).run(
        ctx, {"send": sendbuf, "recv": recvbuf}, op=op,
        program_index=ctx.local_rank,
    )


def intra_reduce_chunked(
    ctx: RankCtx,
    sendbuf: Buffer,
    recvbuf: Optional[Buffer],
    op: ReduceOp,
    root_local: int = 0,
    all_wait: bool = False,
) -> ProcGen:
    """Large-message intranode reduce (Fig. 5): chunk-parallel.

    Every process posts its source buffer; process ``i`` then reduces the
    ``i``-th chunk of *every* source buffer into the ``i``-th chunk of the
    root's destination — P processes reducing in parallel.

    With ``all_wait`` every rank blocks until the whole destination is
    reduced (needed when all ranks immediately read it, as in the
    large-message allreduce); otherwise only the root waits.
    """
    if ctx.local_rank == root_local or ctx.ppn == 1:
        assert recvbuf is not None, "root must supply a receive buffer"
    schedule = plan_intra_reduce_chunked(
        ctx.ppn, sendbuf.count, root_local, all_wait
    )
    yield from ScheduleExecutor(schedule).run(
        ctx, {"send": sendbuf, "recv": recvbuf}, op=op,
        program_index=ctx.local_rank,
    )
