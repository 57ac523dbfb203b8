"""Tests for the extension collectives (multi-object bcast and barrier)
and for the overlap ablation knobs."""

import numpy as np
import pytest

from repro.baselines.base import replay
from repro.core import PiPMColl
from repro.mpi import DOUBLE, Buffer
from repro.sched.plans.mcoll import (
    plan_allgather_large,
    plan_barrier,
    plan_bcast,
    plan_scatter,
)
from repro.shmem import PipShmem

from tests.helpers import make_world, replay_group

SHAPES = [(1, 1), (1, 4), (2, 1), (4, 3), (9, 2), (5, 3), (13, 3), (16, 2)]


def shape_id(s):
    return f"{s[0]}x{s[1]}"


def pip_world(shape):
    return make_world(*shape, mechanism=PipShmem())


def bcast(ctx, buf, root):
    """PiP-MColl's multi-object broadcast of ``root``'s ``buf``."""
    return replay(ctx, plan_bcast(ctx.nodes, ctx.ppn, buf.count, root), (),
                  {"buf": buf})


def barrier(ctx):
    """PiP-MColl's radix-(P+1) dissemination barrier."""
    return replay(ctx, plan_barrier(ctx.nodes, ctx.ppn), (),
                  {"token": ctx.alloc_bytes(0)})


class TestMcollBcast:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_everyone_gets_root_data(self, shape):
        world = pip_world(shape)
        payload = np.arange(13, dtype=np.float64)
        bufs = [
            Buffer.real(payload.copy()) if r == 0 else Buffer.alloc(DOUBLE, 13)
            for r in range(world.world_size)
        ]

        def body(ctx):
            yield from bcast(ctx, bufs[ctx.rank], 0)

        world.run(body)
        for b in bufs:
            assert np.array_equal(b.array(), payload)

    @pytest.mark.parametrize("root", [1, 5, 7])
    def test_arbitrary_roots(self, root):
        world = pip_world((4, 2))
        payload = np.arange(6, dtype=np.float64) * 3
        bufs = [
            Buffer.real(payload.copy()) if r == root else Buffer.alloc(DOUBLE, 6)
            for r in range(world.world_size)
        ]

        def body(ctx):
            yield from bcast(ctx, bufs[ctx.rank], root)

        world.run(body)
        for b in bufs:
            assert np.array_equal(b.array(), payload)

    def test_beats_binomial_at_scale(self):
        """The (P+1)-ary multi-object tree needs fewer internode rounds
        than the flat binomial broadcast for small payloads."""
        from repro.hw import Topology, bebop_broadwell
        from repro.mpi import World
        from repro.mpi.collectives import Group
        from repro.sched.plans.baseline import emit_bcast_binomial

        def run(use_mcoll):
            world = World(
                Topology(16, 6), bebop_broadwell(), mechanism=PipShmem(),
                phantom=True,
            )
            bufs = [Buffer.phantom(64) for _ in range(world.world_size)]
            group = Group(range(world.world_size))

            def body(ctx):
                if use_mcoll:
                    yield from bcast(ctx, bufs[ctx.rank], 0)
                else:
                    yield from replay_group(ctx, group, emit_bcast_binomial,
                                            64, {"buf": bufs[ctx.rank]}, 0)

            world.run(body)
            return world.run(body).elapsed

        assert run(True) < run(False)


class TestMcollBarrier:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_no_rank_exits_before_last_enters(self, shape):
        world = pip_world(shape)
        enter, exit_ = {}, {}

        def body(ctx):
            yield from ctx.compute(((ctx.rank * 13) % 7) * 1e-5)
            enter[ctx.rank] = world.engine.now
            yield from barrier(ctx)
            exit_[ctx.rank] = world.engine.now

        world.run(body)
        assert min(exit_.values()) >= max(enter.values())

    def test_repeated_barriers_do_not_interfere(self):
        world = pip_world((3, 2))
        history = []

        def body(ctx):
            for i in range(3):
                yield from ctx.compute(ctx.rank * 1e-6 * (i + 1))
                yield from barrier(ctx)
                if ctx.rank == 0:
                    history.append(world.engine.now)

        world.run(body)
        assert history == sorted(history)
        assert len(history) == 3


class TestFacadeExtensions:
    def test_library_exposes_bcast_and_barrier(self):
        from repro.hw import Topology, tiny_test_machine

        lib = PiPMColl()
        world = lib.make_world(Topology(2, 2), tiny_test_machine())
        payload = np.array([1.0, 2.0, 3.0])
        bufs = [
            Buffer.real(payload.copy()) if r == 0 else Buffer.alloc(DOUBLE, 3)
            for r in range(4)
        ]

        def body(ctx):
            yield from lib.bcast(ctx, bufs[ctx.rank], root=0)
            yield from lib.barrier(ctx)

        world.run(body)
        for b in bufs:
            assert np.array_equal(b.array(), payload)


class TestOverlapKnobs:
    def test_scatter_overlap_off_still_correct(self):
        world = pip_world((4, 3))
        size = world.world_size
        full = np.arange(size * 2, dtype=np.float64)
        sendbuf = Buffer.real(full.copy())
        recvs = [Buffer.alloc(DOUBLE, 2) for _ in range(size)]

        scatter = plan_scatter(4, 3, 2, 0, False)

        def body(ctx):
            sb = sendbuf if ctx.rank == 0 else None
            yield from replay(ctx, scatter, (),
                              {"send": sb, "recv": recvs[ctx.rank]})

        world.run(body)
        for i, r in enumerate(recvs):
            assert np.array_equal(r.array(), full[i * 2:(i + 1) * 2])

    def test_allgather_overlap_off_still_correct(self):
        world = pip_world((3, 2))
        size = world.world_size
        rng = np.random.default_rng(5)
        inputs = [Buffer.real(rng.random(4)) for _ in range(size)]
        outputs = [Buffer.alloc(DOUBLE, size * 4) for _ in range(size)]
        expected = np.concatenate([b.array() for b in inputs])

        allgather = plan_allgather_large(3, 2, 4, False)

        def body(ctx):
            yield from replay(ctx, allgather, (),
                              {"send": inputs[ctx.rank],
                               "recv": outputs[ctx.rank]})

        world.run(body)
        for out in outputs:
            assert np.array_equal(out.array(), expected)

    def test_overlap_helps_large_allgather(self):
        from repro.hw import Topology, bebop_broadwell
        from repro.mpi import World

        def run(overlap):
            world = World(
                Topology(6, 4), bebop_broadwell(), mechanism=PipShmem(),
                phantom=True,
            )
            size = world.world_size
            sends = [Buffer.phantom(128 * 1024) for _ in range(size)]
            recvs = [Buffer.phantom(128 * 1024 * size) for _ in range(size)]

            allgather = plan_allgather_large(6, 4, 128 * 1024, overlap)

            def body(ctx):
                yield from replay(ctx, allgather, (),
                                  {"send": sends[ctx.rank],
                                   "recv": recvs[ctx.rank]})

            world.run(body)
            return world.run(body).elapsed

        assert run(True) < run(False)
