"""Correctness of the PiP-MColl auxiliary intranode collectives (§III-C)."""

import numpy as np
import pytest

from repro.core import (
    intra_bcast,
    intra_gather,
    intra_reduce_binomial,
    intra_reduce_chunked,
)
from repro.mpi import DOUBLE, MAX, SUM, Buffer
from repro.sched import Emitter, Schedule, ScheduleExecutor
from repro.shmem import PipShmem

from tests.helpers import make_world, rank_inputs

PPNS = [1, 2, 3, 4, 7, 8]


def node_world(ppn):
    return make_world(1, ppn, mechanism=PipShmem())


class TestIntraBarrier:
    """The counter barrier planners inline (``Emitter.barrier``)."""

    @pytest.mark.parametrize("ppn", PPNS)
    def test_no_early_exit(self, ppn):
        world = node_world(ppn)
        enter, exit_ = {}, {}
        em = Emitter()
        em.barrier("bar", ppn)
        barrier = ScheduleExecutor(Schedule((em.build(),) * ppn))

        def body(ctx):
            yield from ctx.compute((ctx.rank + 1) * 1e-5)
            enter[ctx.rank] = world.engine.now
            yield from barrier.run(ctx, {})
            exit_[ctx.rank] = world.engine.now

        world.run(body)
        assert min(exit_.values()) >= max(enter.values())


class TestIntraBcast:
    @pytest.mark.parametrize("ppn", PPNS)
    @pytest.mark.parametrize("large", [False, True])
    @pytest.mark.parametrize("root_local", [0, "last"])
    def test_everyone_gets_root_data(self, ppn, large, root_local):
        world = node_world(ppn)
        rl = ppn - 1 if root_local == "last" else 0
        payload = np.arange(9, dtype=np.float64)
        bufs = [
            Buffer.real(payload.copy()) if r == rl else Buffer.alloc(DOUBLE, 9)
            for r in range(ppn)
        ]

        def body(ctx):
            yield from intra_bcast(ctx, bufs[ctx.rank], rl, large=large)

        world.run(body)
        for b in bufs:
            assert np.array_equal(b.array(), payload)

    def test_small_bcast_root_does_not_wait_for_readers(self):
        """Small path: staging copy frees the root immediately."""
        world = node_world(4)
        buf_root = Buffer.alloc(DOUBLE, 4)
        bufs = [buf_root] + [Buffer.alloc(DOUBLE, 4) for _ in range(3)]
        root_done = [0.0]
        slow = 1e-2

        def body(ctx):
            if ctx.rank != 0:
                yield from ctx.compute(slow)  # readers are late
            yield from intra_bcast(ctx, bufs[ctx.rank], 0, large=False)
            if ctx.rank == 0:
                root_done[0] = world.engine.now

        world.run(body)
        assert root_done[0] < slow

    def test_large_bcast_root_waits_for_readers(self):
        world = node_world(4)
        bufs = [Buffer.alloc(DOUBLE, 4) for _ in range(4)]
        root_done = [0.0]
        slow = 1e-2

        def body(ctx):
            if ctx.rank != 0:
                yield from ctx.compute(slow)
            yield from intra_bcast(ctx, bufs[ctx.rank], 0, large=True)
            if ctx.rank == 0:
                root_done[0] = world.engine.now

        world.run(body)
        assert root_done[0] >= slow


class TestIntraGather:
    @pytest.mark.parametrize("ppn", PPNS)
    @pytest.mark.parametrize("root_local", [0, "last"])
    def test_blocks_land_in_local_rank_order(self, ppn, root_local):
        world = node_world(ppn)
        rl = ppn - 1 if root_local == "last" else 0
        count = 3
        inputs = rank_inputs(world, count)
        recvbuf = Buffer.alloc(DOUBLE, ppn * count)

        def body(ctx):
            rb = recvbuf if ctx.local_rank == rl else None
            yield from intra_gather(ctx, inputs[ctx.rank], rb, rl)

        world.run(body)
        expected = np.concatenate([b.array() for b in inputs])
        assert np.array_equal(recvbuf.array(), expected)


class TestIntraReduce:
    @pytest.mark.parametrize("ppn", PPNS)
    @pytest.mark.parametrize(
        "fn", [intra_reduce_binomial, intra_reduce_chunked],
        ids=["binomial", "chunked"],
    )
    @pytest.mark.parametrize("op,npop", [(SUM, np.sum), (MAX, np.max)])
    def test_root_gets_reduction(self, ppn, fn, op, npop):
        world = node_world(ppn)
        count = 5
        inputs = rank_inputs(world, count)
        recvbuf = Buffer.alloc(DOUBLE, count)

        def body(ctx):
            rb = recvbuf if ctx.local_rank == 0 else None
            yield from fn(ctx, inputs[ctx.rank], rb, op)

        world.run(body)
        expected = npop([b.array() for b in inputs], axis=0)
        np.testing.assert_allclose(recvbuf.array(), expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "fn", [intra_reduce_binomial, intra_reduce_chunked],
        ids=["binomial", "chunked"],
    )
    def test_nonzero_root(self, fn):
        world = node_world(5)
        inputs = rank_inputs(world, 4)
        recvbuf = Buffer.alloc(DOUBLE, 4)

        def body(ctx):
            rb = recvbuf if ctx.local_rank == 3 else None
            yield from fn(ctx, inputs[ctx.rank], rb, SUM, 3)

        world.run(body)
        expected = np.sum([b.array() for b in inputs], axis=0)
        np.testing.assert_allclose(recvbuf.array(), expected, rtol=1e-12)

    def test_chunked_fewer_elements_than_processes(self):
        world = node_world(8)
        inputs = rank_inputs(world, 3)  # 3 elements, 8 chunk slots
        recvbuf = Buffer.alloc(DOUBLE, 3)

        def body(ctx):
            rb = recvbuf if ctx.local_rank == 0 else None
            yield from intra_reduce_chunked(ctx, inputs[ctx.rank], rb, SUM)

        world.run(body)
        expected = np.sum([b.array() for b in inputs], axis=0)
        np.testing.assert_allclose(recvbuf.array(), expected, rtol=1e-12)

    def test_chunked_parallelism_beats_binomial_for_large(self):
        """Fig. 5's point: chunk-parallel reduce uses all P cores."""
        count = 1 << 18

        def run(fn):
            world = node_world(8)
            inputs = rank_inputs(world, count)
            recvbuf = Buffer.alloc(DOUBLE, count)

            def body(ctx):
                rb = recvbuf if ctx.local_rank == 0 else None
                yield from fn(ctx, inputs[ctx.rank], rb, SUM)

            return world.run(body).elapsed

        assert run(intra_reduce_chunked) < run(intra_reduce_binomial)
