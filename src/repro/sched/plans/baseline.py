"""Planners for the classical group algorithms the baselines run.

MPICH-style binomial scatter, gather, bcast and reduce; recursive-doubling
and Rabenseifner allreduce (both with the non-power-of-two fold); Bruck,
recursive-doubling and ring allgather; Bruck and pairwise-exchange
alltoall; the dissemination barrier.  Each ``emit_*`` transcribes the
control flow of one algorithm for one group member, in the
:mod:`repro.sched.plans.intranode` emit style: buffer names and an alloc
prefix are parameters, so the two-level compositions of
:mod:`repro.sched.plans.hierarchical` can chain several group phases into
one program.  :func:`plan_group` wraps any of them into a standalone
schedule whose programs are indexed by *group index*.

Every group emitter shares the signature ``emit(em, ranks, me, count,
tag, [root_index,] *, <buffer names>, prefix)``: ``ranks`` are the group
members' global ranks (``SendStep``/``RecvStep`` targets are baked in at
plan time), ``me`` is the member's group index, ``count`` the per-member
element count, and ``tag`` the message-tag expression.  The
communicator-scoped tag stays symbolic (``Sym("tag")`` in
:func:`plan_group`): it comes from :meth:`RankCtx.collective_tag`, which
mutates per-(rank, group) call counters and therefore must keep running
in the wrapper.  The rooted algorithms take any ``root_index``.

The ``mpich_*`` selectors are MPICH's default algorithm choices: each
maps ``(group size, bytes)`` to an emitter.  :func:`mpich_select` is the
one place that calls them; the flat libraries run its choice over the
world and the leader-based ones over their leaders.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Callable, Optional, Tuple

from repro.sched.emit import Emitter
from repro.sched.ir import BufRef, Schedule, Sym
from repro.util.intmath import is_power_of
from repro.util.units import KB

__all__ = [
    "emit_scatter_binomial",
    "emit_gather_binomial",
    "emit_bcast_binomial",
    "emit_reduce_binomial",
    "emit_allreduce_recursive_doubling",
    "emit_allreduce_rabenseifner",
    "emit_allgather_bruck",
    "emit_allgather_recursive_doubling",
    "emit_allgather_ring",
    "emit_alltoall_bruck",
    "emit_alltoall_pairwise",
    "emit_barrier_dissemination",
    "plan_group",
    "mpich_scatter",
    "mpich_allgather",
    "mpich_allreduce",
    "mpich_alltoall",
    "mpich_select",
    "MPICH_ALLGATHER_RING_BYTES",
    "MPICH_ALLREDUCE_RD_BYTES",
]

_TAG = Sym("tag")

#: MPICH's allgather leaves recursive doubling / Bruck for the ring at
#: this *total* receive size
MPICH_ALLGATHER_RING_BYTES = 80 * KB
#: MPICH's allreduce runs recursive doubling up to this size, and
#: Rabenseifner above it
MPICH_ALLREDUCE_RD_BYTES = 2 * KB


# ---------------------------------------------------------------------------
# binomial trees (rooted)
# ---------------------------------------------------------------------------

def emit_scatter_binomial(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any,
    root_index: int = 0, *, send: Optional[str] = "send",
    recv: str = "recv", prefix: str = "scatter_",
) -> None:
    """Binomial-tree scatter: the root's ``send`` (``size * count``
    elements, ordered by group index) is split into per-member blocks of
    ``count`` elements; each holder forwards its subtree's portion."""
    size = len(ranks)
    em.phase("scatter-binomial")
    if size == 1:
        em.copy(BufRef(recv), BufRef(send, 0, count))
        return

    relrank = (me - root_index) % size
    # staging holds blocks for my whole subtree, in relative order
    if relrank == 0:
        if root_index == 0:
            staging = BufRef(send)
        else:
            # rotate into relative-rank order (one extra root-side copy,
            # exactly as MPICH pays for non-zero roots)
            staging = em.alloc(f"{prefix}stg", size * count, dtype_of=send)
            head = size - root_index
            em.copy(staging.view(0, head * count),
                    BufRef(send, root_index * count, head * count))
            em.copy(staging.view(head * count, root_index * count),
                    BufRef(send, 0, root_index * count))
        # the root forwards from the top of its mask
        mask = 1
        while mask < size:
            mask <<= 1
        mask >>= 1
    else:
        # receive my subtree's data from my parent
        mask = 1
        while not (relrank & mask):
            mask <<= 1
        my_blocks = min(mask, size - relrank)
        staging = em.alloc(f"{prefix}stg", my_blocks * count, dtype_of=recv)
        parent = ranks[(relrank - mask + root_index) % size]
        em.wait(em.irecv(parent, staging, tag))
        mask >>= 1

    # forward sub-blocks to children, largest subtree first
    while mask > 0:
        child_rel = relrank + mask
        if child_rel < size:
            child_blocks = min(mask, size - child_rel)
            dst = ranks[(child_rel + root_index) % size]
            em.wait(em.isend(
                dst, staging.view(mask * count, child_blocks * count), tag
            ))
        mask >>= 1

    # my own block is the first block of my staging range
    em.copy(BufRef(recv), staging.view(0, count))


def emit_gather_binomial(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any,
    root_index: int = 0, *, send: str = "send", recv: Optional[str] = "recv",
    prefix: str = "gather_",
) -> None:
    """Binomial-tree gather: every member's ``send`` (``count`` elements)
    lands in the root's ``recv``, ordered by group index."""
    size = len(ranks)
    em.phase("gather-binomial")
    if size == 1:
        em.copy(BufRef(recv, 0, count), BufRef(send))
        return

    relrank = (me - root_index) % size
    # staging accumulates my subtree's blocks in relative order
    mask = 1
    while not (relrank & mask) and mask < size:
        mask <<= 1
    my_blocks = min(mask, size - relrank) if relrank else size
    staging = em.alloc(f"{prefix}stg", my_blocks * count, dtype_of=send)
    em.copy(staging.view(0, count), BufRef(send))

    # collect from children, smallest subtree first (mirror of scatter)
    submask = 1
    while submask < (mask if relrank else size):
        child_rel = relrank + submask
        if child_rel < size:
            child_blocks = min(submask, size - child_rel)
            src = ranks[(child_rel + root_index) % size]
            em.wait(em.irecv(
                src, staging.view(submask * count, child_blocks * count), tag
            ))
        submask <<= 1

    if relrank != 0:
        parent = ranks[(relrank - mask + root_index) % size]
        em.wait(em.isend(parent, staging, tag))
        return

    # root: staging holds blocks in relative order; rotate into recv
    if root_index == 0:
        em.copy(BufRef(recv), staging)
    else:
        head = size - root_index
        em.copy(BufRef(recv, root_index * count, head * count),
                staging.view(0, head * count))
        em.copy(BufRef(recv, 0, root_index * count),
                staging.view(head * count, root_index * count))


def emit_bcast_binomial(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any,
    root_index: int = 0, *, buf: str = "buf", prefix: str = "bcast_",
) -> None:
    """Binomial-tree broadcast of the root's ``buf``: ``ceil(log2 size)``
    rounds, each holder forwarding the whole buffer to a member ``mask``
    away in relative-rank space (``count`` and ``prefix`` are unused: the
    tree moves whole buffers and allocates nothing)."""
    size = len(ranks)
    em.phase("bcast-binomial")
    if size == 1:
        return

    relrank = (me - root_index) % size
    # receive from parent
    mask = 1
    while mask < size:
        if relrank & mask:
            src = ranks[(relrank - mask + root_index) % size]
            em.wait(em.irecv(src, BufRef(buf), tag))
            break
        mask <<= 1
    # forward to children, highest subtree first
    mask >>= 1
    while mask > 0:
        if relrank + mask < size:
            dst = ranks[(relrank + mask + root_index) % size]
            em.wait(em.isend(dst, BufRef(buf), tag))
        mask >>= 1


def emit_reduce_binomial(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any,
    root_index: int = 0, *, send: str = "send", recv: Optional[str] = "recv",
    prefix: str = "reduce_",
) -> None:
    """Binomial-tree reduction into the root's ``recv`` (commutative
    operators)."""
    size = len(ranks)
    em.phase("reduce-binomial")
    if size == 1:
        em.copy(BufRef(recv), BufRef(send))
        return

    relrank = (me - root_index) % size
    # accumulate into recv at the root, a scratch buffer elsewhere
    if relrank == 0:
        acc = BufRef(recv)
    else:
        acc = em.alloc(f"{prefix}acc", count, dtype_of=send)
    em.copy(acc, BufRef(send))
    tmp = em.alloc(f"{prefix}tmp", count, dtype_of=send)

    mask = 1
    while mask < size:
        if relrank & mask:
            dst = ranks[(relrank - mask + root_index) % size]
            em.wait(em.isend(dst, acc, tag))
            return
        src_rel = relrank | mask
        if src_rel < size:
            src = ranks[(src_rel + root_index) % size]
            em.wait(em.irecv(src, tmp, tag))
            em.reduce(acc, tmp)
        mask <<= 1


# ---------------------------------------------------------------------------
# allreduce: recursive doubling and Rabenseifner, with the fold
# ---------------------------------------------------------------------------

def _pof2_split(size: int) -> Tuple[int, int]:
    """``(pof2, rem)``: the largest power of two <= ``size``, and the
    number of members above it."""
    pof2 = 1
    while pof2 * 2 <= size:
        pof2 *= 2
    return pof2, size - pof2


def _fold_in(em: Emitter, ranks, me: int, rem: int, acc: BufRef,
             tmp: BufRef, tag: Any) -> int:
    """Pre-step: the first ``2 * rem`` members pair up and odd members
    absorb their even neighbour, collapsing to a power-of-two core.
    Returns my core rank, or -1 when I sit the core out."""
    if me < 2 * rem:
        if me % 2 == 0:
            em.wait(em.isend(ranks[me + 1], acc, tag))
            return -1
        em.wait(em.irecv(ranks[me - 1], tmp, tag))
        em.reduce(acc, tmp)
        return me // 2
    return me - rem


def _fold_out(em: Emitter, ranks, me: int, rem: int, acc: BufRef,
              tag: Any) -> None:
    """Post-step: odd members return the result to their even partner."""
    if me < 2 * rem:
        if me % 2 == 0:
            em.wait(em.irecv(ranks[me + 1], acc, tag))
        else:
            em.wait(em.isend(ranks[me - 1], acc, tag))


def _core_to_group(newrank: int, rem: int) -> int:
    """Map a power-of-two core rank back to its group index."""
    return newrank * 2 + 1 if newrank < rem else newrank + rem


def _sendrecv(em: Emitter, dst: int, send_ref: BufRef, src: int,
              recv_ref: BufRef, tag: Any) -> None:
    """``RankCtx.sendrecv``: post the receive, send, wait both."""
    rreq = em.irecv(src, recv_ref, tag)
    sreq = em.isend(dst, send_ref, tag)
    em.wait(rreq)
    em.wait(sreq)


def _exchange(em: Emitter, partner: int, recv_ref: BufRef,
              send_ref: BufRef, tag: Any) -> None:
    """Simultaneous exchange with one partner."""
    _sendrecv(em, partner, send_ref, partner, recv_ref, tag)


def emit_allreduce_recursive_doubling(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any, *,
    send: str = "send", recv: str = "recv", prefix: str = "allreduce_rd_",
) -> None:
    """Recursive-doubling allreduce: ``log2`` rounds of full-buffer
    exchanges, latency-optimal for small messages."""
    size = len(ranks)
    em.phase("allreduce-recursive-doubling")
    acc = BufRef(recv)
    em.copy(acc, BufRef(send))
    if size == 1:
        return
    tmp = em.alloc(f"{prefix}tmp", count, dtype_of=send)

    pof2, rem = _pof2_split(size)
    newrank = _fold_in(em, ranks, me, rem, acc, tmp, tag)
    if newrank != -1:
        mask = 1
        while mask < pof2:
            partner = ranks[_core_to_group(newrank ^ mask, rem)]
            _exchange(em, partner, tmp, acc, tag)
            em.reduce(acc, tmp)
            mask <<= 1
    _fold_out(em, ranks, me, rem, acc, tag)


def emit_allreduce_rabenseifner(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any, *,
    send: str = "send", recv: str = "recv", prefix: str = "allreduce_rab_",
) -> None:
    """Rabenseifner's allreduce: recursive-halving reduce-scatter followed
    by recursive-doubling allgather — bandwidth-optimal for large
    messages."""
    # lazy: repro.mpi.collectives imports this module
    from repro.mpi.collectives.group import block_partition

    size = len(ranks)
    em.phase("allreduce-rabenseifner")
    acc = BufRef(recv)
    em.copy(acc, BufRef(send))
    if size == 1:
        return
    tmp = em.alloc(f"{prefix}tmp", count, dtype_of=send)

    pof2, rem = _pof2_split(size)
    newrank = _fold_in(em, ranks, me, rem, acc, tmp, tag)
    if newrank != -1:
        counts, displs = block_partition(count, pof2)

        def block_range(lo: int, hi: int):
            """(element offset, element count) covering blocks [lo, hi)."""
            off = displs[lo]
            end = displs[hi - 1] + counts[hi - 1]
            return off, end - off

        # --- reduce-scatter by recursive halving ---------------------------
        lo, hi = 0, pof2
        mask = pof2 >> 1
        while mask > 0:
            half = (hi - lo) // 2
            mid = lo + half
            partner = ranks[_core_to_group(newrank ^ half, rem)]
            if newrank < mid:
                send_lo, send_hi = mid, hi
                keep_lo, keep_hi = lo, mid
            else:
                send_lo, send_hi = lo, mid
                keep_lo, keep_hi = mid, hi
            s_off, s_cnt = block_range(send_lo, send_hi)
            k_off, k_cnt = block_range(keep_lo, keep_hi)
            _exchange(em, partner, tmp.view(k_off, k_cnt),
                      acc.view(s_off, s_cnt), tag)
            em.reduce(acc.view(k_off, k_cnt), tmp.view(k_off, k_cnt))
            lo, hi = keep_lo, keep_hi
            mask >>= 1

        # --- allgather by recursive doubling --------------------------------
        length = 1
        while length < pof2:
            partner_new = newrank ^ length
            partner = ranks[_core_to_group(partner_new, rem)]
            plo = (partner_new // length) * length
            phi = plo + length
            s_off, s_cnt = block_range(lo, hi)
            p_off, p_cnt = block_range(plo, phi)
            _exchange(em, partner, acc.view(p_off, p_cnt),
                      acc.view(s_off, s_cnt), tag)
            lo, hi = min(lo, plo), max(hi, phi)
            length *= 2

    _fold_out(em, ranks, me, rem, acc, tag)


# ---------------------------------------------------------------------------
# allgather: Bruck, recursive doubling, ring
# ---------------------------------------------------------------------------

def emit_allgather_bruck(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any, *,
    send: str = "send", recv: str = "recv", prefix: str = "bruck_",
) -> None:
    """Bruck allgather: ``ceil(log2 size)`` rounds, any group size.

    Blocks accumulate in *relative* order (my own block first), doubling
    per round, with a final rotation into absolute order.
    """
    size = len(ranks)
    em.phase("bruck")
    if size == 1:
        em.copy(BufRef(recv), BufRef(send))
        return

    staging = em.alloc(f"{prefix}stg", size * count, dtype_of=send)
    em.copy(staging.view(0, count), BufRef(send))

    pof = 1
    while pof < size:
        blocks = min(pof, size - pof)
        dst = ranks[(me - pof) % size]
        src = ranks[(me + pof) % size]
        rreq = em.irecv(src, staging.view(pof * count, blocks * count), tag)
        sreq = em.isend(dst, staging.view(0, blocks * count), tag)
        em.wait(rreq)
        em.wait(sreq)
        pof <<= 1

    # staging block j holds member (me + j) % size's data; rotate so that
    # recv block i holds group index i's data
    head = size - me
    em.copy(BufRef(recv, me * count, head * count),
            staging.view(0, head * count))
    if me:
        em.copy(BufRef(recv, 0, me * count),
                staging.view(head * count, me * count))


def emit_allgather_recursive_doubling(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any, *,
    send: str = "send", recv: str = "recv", prefix: str = "",
) -> None:
    """Recursive-doubling allgather (power-of-two group sizes only;
    allocates nothing, so ``prefix`` is unused)."""
    size = len(ranks)
    em.phase("recursive-doubling")
    em.copy(BufRef(recv, me * count, count), BufRef(send))

    mask = 1
    while mask < size:
        partner = me ^ mask
        base = (me // mask) * mask
        pbase = (partner // mask) * mask
        _exchange(em, ranks[partner],
                  BufRef(recv, pbase * count, mask * count),
                  BufRef(recv, base * count, mask * count), tag)
        mask <<= 1


def emit_allgather_ring(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any, *,
    send: str = "send", recv: str = "recv", prefix: str = "",
) -> None:
    """Ring allgather: ``size - 1`` rounds of neighbour exchange
    (allocates nothing, so ``prefix`` is unused)."""
    size = len(ranks)
    em.phase("ring")
    em.copy(BufRef(recv, me * count, count), BufRef(send))
    if size == 1:
        return

    right = ranks[(me + 1) % size]
    left = ranks[(me - 1) % size]
    for step in range(size - 1):
        send_block = (me - step) % size
        recv_block = (me - step - 1) % size
        rreq = em.irecv(left, BufRef(recv, recv_block * count, count), tag)
        sreq = em.isend(right, BufRef(recv, send_block * count, count), tag)
        em.wait(rreq)
        em.wait(sreq)


# ---------------------------------------------------------------------------
# alltoall: Bruck and pairwise exchange
# ---------------------------------------------------------------------------

def emit_alltoall_bruck(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any, *,
    send: str = "send", recv: str = "recv", prefix: str = "a2a_bruck_",
) -> None:
    """Bruck alltoall: ``ceil(log2 size)`` rounds of packed exchanges of
    ``count``-element blocks.

    Invariant: after processing bit ``k``, the block in slot ``j`` still
    has to travel ``j``'s remaining (un-processed) hop distance; at the
    end slot ``j`` holds the data that arrived from ``(me - j) % size``.
    Latency-optimal for small blocks at the price of ``log2``-fold extra
    volume and pack/unpack copies.
    """
    size = len(ranks)
    em.phase("alltoall-bruck")
    if size == 1:
        em.copy(BufRef(recv), BufRef(send))
        return

    # phase 1: local rotation — slot j carries data for (me + j) % size
    tmp = em.alloc(f"{prefix}tmp", size * count, dtype_of=send)
    head = size - me
    em.copy(tmp.view(0, head * count),
            BufRef(send, me * count, head * count))
    if me:
        em.copy(tmp.view(head * count, me * count),
                BufRef(send, 0, me * count))

    # phase 2: bit rounds — blocks whose slot index has bit k set jump 2^k
    pack = em.alloc(f"{prefix}pack", ((size + 1) // 2) * count,
                    dtype_of=send)
    pof = 1
    while pof < size:
        slots = [j for j in range(size) if j & pof]
        nblk = len(slots)
        for i, j in enumerate(slots):
            em.copy(pack.view(i * count, count), tmp.view(j * count, count))
        rbuf = em.alloc(f"{prefix}r{pof}", nblk * count, dtype_of=send)
        _sendrecv(em, ranks[(me + pof) % size], pack.view(0, nblk * count),
                  ranks[(me - pof) % size], rbuf, tag)
        for i, j in enumerate(slots):
            em.copy(tmp.view(j * count, count), rbuf.view(i * count, count))
        pof <<= 1

    # phase 3: slot j arrived from (me - j) % size
    for j in range(size):
        em.copy(BufRef(recv, ((me - j) % size) * count, count),
                tmp.view(j * count, count))


def emit_alltoall_pairwise(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any, *,
    send: str = "send", recv: str = "recv", prefix: str = "",
) -> None:
    """Pairwise-exchange alltoall: ``size - 1`` direct rounds, no packing
    (allocates nothing, so ``prefix`` is unused).

    Bandwidth-optimal (each block crosses the wire once, straight into its
    final position) — the classical large-message choice.
    """
    size = len(ranks)
    em.phase("alltoall-pairwise")
    em.copy(BufRef(recv, me * count, count), BufRef(send, me * count, count))
    for step in range(1, size):
        dst_index = (me + step) % size
        src_index = (me - step) % size
        _sendrecv(em, ranks[dst_index], BufRef(send, dst_index * count, count),
                  ranks[src_index], BufRef(recv, src_index * count, count),
                  tag)


# ---------------------------------------------------------------------------
# barrier
# ---------------------------------------------------------------------------

def emit_barrier_dissemination(
    em: Emitter, ranks: Tuple[int, ...], me: int, count, tag: Any, *,
    token: str = "token", prefix: str = "",
) -> None:
    """Dissemination barrier: ``ceil(log2 size)`` rounds of exchanges of
    the zero-byte buffer ``token`` with the members ``2^k`` ahead and
    behind (``count`` and ``prefix`` are unused)."""
    size = len(ranks)
    em.phase("barrier-dissemination")
    mask = 1
    while mask < size:
        _sendrecv(em, ranks[(me + mask) % size], BufRef(token),
                  ranks[(me - mask) % size], BufRef(token), tag)
        mask <<= 1


# ---------------------------------------------------------------------------
# standalone group schedules and MPICH's selection
# ---------------------------------------------------------------------------

GroupEmitter = Callable[..., None]


@lru_cache(maxsize=None)
def plan_group(emit: GroupEmitter, ranks: Tuple[int, ...], count,
               *root: int) -> Schedule:
    """One group algorithm as a schedule indexed by group index.

    ``root`` is the rooted algorithms' ``root_index`` (omitted for the
    unrooted ones); the message tag is the symbol ``"tag"``.
    """
    programs = []
    for me in range(len(ranks)):
        em = Emitter()
        emit(em, ranks, me, count, _TAG, *root)
        programs.append(em.build())
    name = emit.__name__.removeprefix("emit_").replace("_", "-")
    return Schedule(
        tuple(programs),
        num_namespaces=0,
        label=f"{name} g{len(ranks)} c{count}",
    )


def mpich_scatter(size: int, nbytes) -> GroupEmitter:
    """MPICH's scatter: the binomial tree at every size."""
    return emit_scatter_binomial


def mpich_allgather(size: int, total_bytes) -> GroupEmitter:
    """MPICH's default allgather selection, on the *total* receive size
    and whether the group size is a power of two."""
    if total_bytes < MPICH_ALLGATHER_RING_BYTES:
        if is_power_of(2, size):
            return emit_allgather_recursive_doubling
        return emit_allgather_bruck
    return emit_allgather_ring


def mpich_allreduce(size: int, nbytes) -> GroupEmitter:
    """MPICH's default allreduce selection (the 2 kB switch)."""
    if nbytes <= MPICH_ALLREDUCE_RD_BYTES:
        return emit_allreduce_recursive_doubling
    return emit_allreduce_rabenseifner


def mpich_alltoall(size: int, block_bytes) -> GroupEmitter:
    """MPICH's default alltoall selection: Bruck for short blocks on
    groups of eight or more, pairwise exchange otherwise.  The group size
    is tested first, so a size column on a small group never splits."""
    if size >= 8 and block_bytes <= 256:
        return emit_alltoall_bruck
    return emit_alltoall_pairwise


#: the rooted and unrooted collectives MPICH runs one algorithm for
_MPICH_FIXED = {
    "bcast": emit_bcast_binomial,
    "gather": emit_gather_binomial,
    "reduce": emit_reduce_binomial,
    "barrier": emit_barrier_dissemination,
}


def mpich_select(collective: str, size: int, nbytes) -> GroupEmitter:
    """MPICH's algorithm for ``collective`` over a group of ``size``
    members, each contributing ``nbytes`` (an alltoall's per-member
    block)."""
    if collective == "scatter":
        return mpich_scatter(size, nbytes)
    if collective == "allgather":
        return mpich_allgather(size, size * nbytes)
    if collective == "allreduce":
        return mpich_allreduce(size, nbytes)
    if collective == "alltoall":
        return mpich_alltoall(size, nbytes)
    return _MPICH_FIXED[collective]
