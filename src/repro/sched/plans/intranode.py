"""Planners for the §III-C intranode building blocks.

The ``emit_*`` functions transcribe the control flow of the original
``repro.core.intranode`` generators for one local rank, so the primary
collective planners can inline them (one executor run, phases spanning the
whole collective); the ``plan_*`` functions wrap them into standalone
per-node schedules backing the public ``intra_*`` entry points.

Transcription fidelity is the whole game: every board post/lookup, counter
operation, copy and reduction is emitted at exactly the position the
generator performed it, so replay is bit-identical in simulated time.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from repro.mpi.collectives.group import block_partition
from repro.sched.emit import Emitter
from repro.sched.ir import BufRef, Ns, RankProgram, Schedule

__all__ = [
    "emit_intra_bcast",
    "emit_intra_gather",
    "emit_intra_reduce_binomial",
    "emit_intra_reduce_chunked",
    "plan_intra_bcast",
    "plan_intra_gather",
    "plan_intra_reduce_binomial",
    "plan_intra_reduce_chunked",
]


def emit_intra_bcast(
    em: Emitter,
    lr: int,
    ppn: int,
    count: int,
    root_local: int,
    large: bool,
    ns_key,
    buf: str = "buf",
    prefix: str = "ib_",
) -> None:
    """Intranode broadcast of the root's buffer into every rank's buffer."""
    if ppn == 1:
        return
    if lr == root_local:
        if large:
            # post the source buffer itself; peers copy straight out of it,
            # and the root must wait for them before reusing it
            em.post((ns_key, "src"), BufRef(buf))
            em.counter_wait((ns_key, "done"), ppn - 1)
        else:
            # copy through a staging buffer so the root can move on
            staging = em.alloc(f"{prefix}stg", count, dtype_of=buf)
            em.copy(staging, BufRef(buf))
            em.post((ns_key, "src"), staging)
    else:
        src = em.lookup((ns_key, "src"), f"{prefix}src")
        em.copy(BufRef(buf), src)
        if large:
            em.counter_add((ns_key, "done"), 1)


def emit_intra_gather(
    em: Emitter,
    lr: int,
    ppn: int,
    count: int,
    root_local: int,
    ns_key,
    send: str = "send",
    recv: str = "recv",
    prefix: str = "ig_",
) -> None:
    """Intranode gather: rank ``l``'s block at offset ``l * count`` of the
    root's receive buffer, every process copying its own block in."""
    if lr == root_local:
        if ppn == 1:
            em.copy(BufRef(recv, 0, count), BufRef(send))
            return
        em.post((ns_key, "dst"), BufRef(recv))
        dst = BufRef(recv)
    else:
        dst = em.lookup((ns_key, "dst"), f"{prefix}dst")
    em.copy(dst.view(lr * count, count), BufRef(send))
    em.counter_add((ns_key, "done"), 1)
    if lr == root_local:
        em.counter_wait((ns_key, "done"), ppn)


def emit_intra_reduce_binomial(
    em: Emitter,
    lr: int,
    ppn: int,
    count: int,
    root_local: int,
    ns_key,
    send: str = "send",
    recv: str = "recv",
    prefix: str = "irb_",
) -> BufRef:
    """Small-message intranode reduce: binomial tree of direct accesses.

    Returns this rank's accumulator reference (the root's receive buffer,
    or the temporary a non-root folds into before its parent reads it).
    """
    rel = (lr - root_local) % ppn
    if rel == 0:
        acc = BufRef(recv)
    else:
        acc = em.alloc(f"{prefix}acc", count, dtype_of=send)
    em.copy(acc, BufRef(send))
    if ppn == 1:
        return acc

    mask = 1
    while mask < ppn:
        if rel & mask:
            # expose my accumulator to my parent; stay alive until it reads
            em.post((ns_key, "acc", rel), acc)
            em.counter_wait((ns_key, "read", rel), 1)
            return acc
        child = rel | mask
        if child < ppn:
            child_acc = em.lookup((ns_key, "acc", child), f"{prefix}c{child}")
            em.reduce(acc, child_acc)
            em.counter_add((ns_key, "read", child), 1)
        mask <<= 1
    return acc


def emit_intra_reduce_chunked(
    em: Emitter,
    lr: int,
    ppn: int,
    count: int,
    root_local: int,
    all_wait: bool,
    ns_key,
    send: str = "send",
    recv: str = "recv",
    prefix: str = "irc_",
) -> None:
    """Large-message intranode reduce (Fig. 5): chunk-parallel."""
    if ppn == 1:
        em.copy(BufRef(recv), BufRef(send))
        return

    em.post((ns_key, "src", lr), BufRef(send))
    if lr == root_local:
        em.post((ns_key, "dst"), BufRef(recv))
        dst = BufRef(recv)
    else:
        dst = em.lookup((ns_key, "dst"), f"{prefix}dst")

    def src_of(peer: int) -> BufRef:
        # resolve a peer's posted source buffer (my own without a lookup)
        if peer == lr:
            return BufRef(send)
        return em.lookup((ns_key, "src", peer), f"{prefix}s{peer}")

    counts, displs = block_partition(count, ppn)
    off, cnt = displs[lr], counts[lr]
    if cnt:
        # seed my chunk with the root's contribution, then fold in peers
        root_src = src_of(root_local)
        em.copy(dst.view(off, cnt), root_src.view(off, cnt))
        for peer in range(ppn):
            if peer == root_local:
                continue
            src = src_of(peer)
            em.reduce(dst.view(off, cnt), src.view(off, cnt))

    em.counter_add((ns_key, "done"), 1)
    if all_wait or lr == root_local:
        em.counter_wait((ns_key, "done"), ppn)


# ---------------------------------------------------------------------------
# standalone per-node schedules (programs indexed by local rank)
# ---------------------------------------------------------------------------

def _node_schedule(programs, label: str) -> Schedule:
    return Schedule(tuple(programs), num_namespaces=1, label=label)


@lru_cache(maxsize=None)
def plan_intra_bcast(
    ppn: int, count: int, root_local: int, large: bool
) -> Schedule:
    # the generator draws its namespace before the ppn == 1 early-out, so
    # the schedule always consumes one namespace, even when empty
    programs = []
    for lr in range(ppn):
        em = Emitter()
        emit_intra_bcast(
            em, lr, ppn, count, root_local, large, ("ib", Ns(0))
        )
        programs.append(em.build())
    return _node_schedule(programs, f"intra-bcast p{ppn} c{count}")


@lru_cache(maxsize=None)
def plan_intra_gather(ppn: int, count: int, root_local: int) -> Schedule:
    programs = []
    for lr in range(ppn):
        em = Emitter()
        emit_intra_gather(em, lr, ppn, count, root_local, ("ig", Ns(0)))
        programs.append(em.build())
    return _node_schedule(programs, f"intra-gather p{ppn} c{count}")


@lru_cache(maxsize=None)
def plan_intra_reduce_binomial(
    ppn: int, count: int, root_local: int
) -> Schedule:
    programs = []
    for lr in range(ppn):
        em = Emitter()
        emit_intra_reduce_binomial(
            em, lr, ppn, count, root_local, ("irb", Ns(0))
        )
        programs.append(em.build())
    return _node_schedule(programs, f"intra-reduce-binomial p{ppn} c{count}")


@lru_cache(maxsize=None)
def plan_intra_reduce_chunked(
    ppn: int, count: int, root_local: int, all_wait: bool
) -> Schedule:
    programs = []
    for lr in range(ppn):
        em = Emitter()
        emit_intra_reduce_chunked(
            em, lr, ppn, count, root_local, all_wait, ("irc", Ns(0))
        )
        programs.append(em.build())
    return _node_schedule(programs, f"intra-reduce-chunked p{ppn} c{count}")
