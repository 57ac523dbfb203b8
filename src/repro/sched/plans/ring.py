"""Planner for the multi-object internode ring with overlapped intranode
broadcast (Fig. 4 core).

This is the communication core shared by the large-message allgather
(§III-B1, Fig. 4) and the allgather stage of the large-message allreduce
(§III-B2): ``N - 1`` ring steps over nodes, where each node block is split
into ``P`` slices and local process ``R_l`` rings slice ``R_l`` — P
concurrent, fully independent ring lanes per node, all reading/writing the
local root's staging buffer directly (PiP).

Overlap: while the step-``s`` transfers are in flight, each process copies
the block completed at step ``s-1`` from the staging buffer into its own
receive buffer — the "overlapped intranode broadcast" of Fig. 4.  A block
is complete once all ``P`` lane counters for it have arrived.

Blocks may have heterogeneous sizes (``node_counts``/``node_displs`` in
elements): uniform ``P*C`` blocks for the plain allgather, ``C/N``-ish
chunks for the allreduce's gather stage.

:func:`emit_ring_allgather_blocks` emits one rank's part; the PiP-MColl
planners of :mod:`repro.sched.plans.mcoll` inline it with their own
namespace key.
"""

from __future__ import annotations

from typing import Sequence, Tuple

from repro.mpi.collectives.group import block_partition
from repro.sched.emit import Emitter
from repro.sched.ir import BufRef, HashTag

__all__ = ["emit_ring_allgather_blocks"]


def emit_ring_allgather_blocks(
    em: Emitter,
    node: int,
    lr: int,
    nodes: int,
    ppn: int,
    ns_key,
    node_counts: Sequence[int],
    node_displs: Sequence[int],
    staging: str = "staging",
    recv: str = "recv",
    overlap: bool = True,
) -> None:
    """Ring-allgather node blocks through ``staging`` into ``recv``.

    Preconditions: every local rank can reach the node's shared
    ``staging`` (the local root's buffer, absolute node-block order),
    whose own node block is already complete, and all local ranks have
    synchronised on that fact.  ``recv`` is this rank's private
    full-size buffer.
    """
    N, P = nodes, ppn
    tag = HashTag(ns_key)
    stag = BufRef(staging)
    rbuf = BufRef(recv)

    def lane(b: int) -> Tuple[int, int]:
        # (element offset, count) of my lane's slice of block ``b``
        counts, displs = block_partition(node_counts[b], P)
        return node_displs[b] + displs[lr], counts[lr]

    def blk_key(b: int):
        return (ns_key, "blk", b)

    # own block is complete by precondition
    own = node
    em.copy(
        rbuf.view(node_displs[own], node_counts[own]),
        stag.view(node_displs[own], node_counts[own]),
    )
    if N == 1:
        return

    right = ((node + 1) % N) * P + lr
    left = ((node - 1) % N) * P + lr

    for step in range(N - 1):
        send_block = (node - step) % N
        recv_block = (node - step - 1) % N
        s_off, s_cnt = lane(send_block)
        r_off, r_cnt = lane(recv_block)
        rreq = em.irecv(left, stag.view(r_off, r_cnt), tag)
        sreq = em.isend(right, stag.view(s_off, s_cnt), tag)

        if overlap and step > 0:
            # overlapped intranode broadcast of the block completed last step
            done_block = (node - step) % N
            em.counter_wait(blk_key(done_block), P)
            em.copy(
                rbuf.view(node_displs[done_block], node_counts[done_block]),
                stag.view(node_displs[done_block], node_counts[done_block]),
            )

        em.wait(rreq)
        em.wait(sreq)
        em.counter_add(blk_key(recv_block), 1)

    # drain: everything not yet broadcast intranode (just the final step's
    # block with overlap on; all N-1 foreign blocks with it off)
    pending = (
        [(node + 1) % N]
        if overlap
        else [b for b in range(N) if b != node]
    )
    for b in pending:
        em.counter_wait(blk_key(b), P)
        em.copy(
            rbuf.view(node_displs[b], node_counts[b]),
            stag.view(node_displs[b], node_counts[b]),
        )
