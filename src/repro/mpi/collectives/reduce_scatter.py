"""Reduce-scatter algorithms (block variant: equal counts per rank).

Recursive halving is the classical small/medium-message choice for
commutative operations (power-of-two group sizes; general sizes fold to it
inside
:func:`~repro.sched.plans.baseline.emit_allreduce_rabenseifner`);
pairwise exchange handles any size with bandwidth-optimal traffic and is
MPICH's large-message commutative default.
"""

from __future__ import annotations

from repro.mpi.buffer import Buffer
from repro.mpi.collectives.group import Group
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx
from repro.sim.engine import ProcGen
from repro.util.intmath import is_power_of

__all__ = ["reduce_scatter_halving", "reduce_scatter_pairwise"]


def reduce_scatter_halving(
    ctx: RankCtx,
    group: Group,
    sendbuf: Buffer,
    recvbuf: Buffer,
    op: ReduceOp,
) -> ProcGen:
    """Recursive-halving reduce-scatter (power-of-two group sizes).

    ``sendbuf`` holds ``size * count`` elements; rank ``i`` ends with
    block ``i`` reduced across all ranks in its ``count``-element
    ``recvbuf``.  ``log2(size)`` rounds, halving the active range each
    time — latency-efficient with exact per-block alignment.
    """
    size = group.size
    if not is_power_of(2, size):
        raise ValueError(
            f"recursive halving needs a power-of-two group size, got {size}"
            " (use reduce_scatter_pairwise for general sizes)"
        )
    me = group.index_of(ctx.rank)
    tag = ctx.collective_tag(group)
    count = recvbuf.count
    _validate(sendbuf, size, count)

    if size == 1:
        yield from ctx.copy(recvbuf, sendbuf)
        return

    acc = ctx.alloc(sendbuf.dtype, size * count)
    yield from ctx.copy(acc, sendbuf)
    tmp = ctx.alloc(sendbuf.dtype, size * count)

    lo, hi = 0, size
    while hi - lo > 1:
        half = (hi - lo) // 2
        mid = lo + half
        partner = group.rank_at(me ^ half)
        if me < mid:
            send_lo, send_hi, keep_lo, keep_hi = mid, hi, lo, mid
        else:
            send_lo, send_hi, keep_lo, keep_hi = lo, mid, mid, hi
        s_off, s_cnt = send_lo * count, (send_hi - send_lo) * count
        k_off, k_cnt = keep_lo * count, (keep_hi - keep_lo) * count
        rreq = ctx.irecv(partner, tmp.view(k_off, k_cnt), tag=tag)
        sreq = yield from ctx.isend(partner, acc.view(s_off, s_cnt), tag=tag)
        yield from ctx.wait(rreq)
        yield from ctx.wait(sreq)
        yield from ctx.reduce_into(
            acc.view(k_off, k_cnt), tmp.view(k_off, k_cnt), op
        )
        lo, hi = keep_lo, keep_hi

    assert (lo, hi) == (me, me + 1)
    yield from ctx.copy(recvbuf, acc.view(me * count, count))


def reduce_scatter_pairwise(
    ctx: RankCtx,
    group: Group,
    sendbuf: Buffer,
    recvbuf: Buffer,
    op: ReduceOp,
) -> ProcGen:
    """Pairwise reduce-scatter: ``size - 1`` rounds, any group size.

    Each round sends block ``(me+step)`` directly to its final owner and
    folds the arriving contribution into my own block — every element
    crosses the wire exactly once.
    """
    size = group.size
    me = group.index_of(ctx.rank)
    tag = ctx.collective_tag(group)
    count = recvbuf.count
    _validate(sendbuf, size, count)

    yield from ctx.copy(recvbuf, sendbuf.view(me * count, count))
    if size == 1:
        return
    tmp = ctx.alloc(sendbuf.dtype, count)
    for step in range(1, size):
        dst_index = (me + step) % size
        src_index = (me - step) % size
        dst = group.rank_at(dst_index)
        src = group.rank_at(src_index)
        rreq = ctx.irecv(src, tmp, tag=tag)
        sreq = yield from ctx.isend(
            dst, sendbuf.view(dst_index * count, count), tag=tag
        )
        yield from ctx.wait(rreq)
        yield from ctx.wait(sreq)
        yield from ctx.reduce_into(recvbuf, tmp, op)


def _validate(sendbuf: Buffer, size: int, count: int) -> None:
    if sendbuf.count != size * count:
        raise ValueError(
            f"sendbuf has {sendbuf.count} elements, need {size * count}"
        )
