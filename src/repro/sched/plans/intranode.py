"""Planners for the PiP-MColl auxiliary intranode collectives (§III-C,
Fig. 5).

These are the userspace building blocks the primary collectives compose:
broadcast, gather, and reduce *within one node*, built purely from PiP
primitives — address posting, flag counters, and direct loads/stores into
peer buffers.  No messages, no syscalls, no double copies.

Every ``emit_*`` here emits one local rank's part, and **every rank of
one node** must run it: the ranks synchronise through the node's address
board and counters under the caller's namespace key.  The PiP-MColl
planners of :mod:`repro.sched.plans.mcoll` inline them (one executor
run, phases spanning the whole collective).  The intranode barrier is no
emitter of its own: planners inline it as
:meth:`~repro.sched.emit.Emitter.barrier`.

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

Transcription fidelity is the whole game: every board post/lookup, counter
operation, copy and reduction is emitted at exactly the position the
hand-written generators performed it, so replay is bit-identical in
simulated time.
"""

from __future__ import annotations

from repro.mpi.collectives.group import block_partition
from repro.sched.emit import Emitter
from repro.sched.ir import BufRef

__all__ = [
    "emit_intra_bcast",
    "emit_intra_gather",
    "emit_intra_reduce_binomial",
    "emit_intra_reduce_chunked",
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
    root's receive buffer, every process copying its own block in —
    P-way parallel, the inverse of Fig. 5's layout."""
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

    Each tree parent reads its child's accumulator straight out of the
    child's memory (PiP) — ``ceil(log2 P)`` rounds, no staging copies.
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
    """Large-message intranode reduce (Fig. 5): chunk-parallel.

    Every process posts its source buffer; process ``i`` then reduces the
    ``i``-th chunk of *every* source buffer into the ``i``-th chunk of the
    root's destination — P processes reducing in parallel.

    With ``all_wait`` every rank blocks until the whole destination is
    reduced (needed when all ranks immediately read it, as in the
    large-message allreduce); otherwise only the root waits.
    """
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
