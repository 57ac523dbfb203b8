"""Correctness of the multi-object gather/reduce extensions and the
classical reduce-scatter algorithms."""

import numpy as np
import pytest

from repro.baselines.base import replay
from repro.core import PiPMColl
from repro.mpi import DOUBLE, MAX, SUM, Buffer
from repro.mpi.collectives import (
    reduce_scatter_halving,
    reduce_scatter_pairwise,
)
from repro.sched.plans.mcoll import plan_gather, plan_reduce_large
from repro.shmem import PipShmem

from tests.helpers import make_world, rank_inputs, world_group

SHAPES = [(1, 1), (1, 4), (2, 1), (4, 3), (9, 2), (5, 3), (16, 2)]


def shape_id(s):
    return f"{s[0]}x{s[1]}"


def run_gather(world, inputs, recvbuf, root=0):
    """PiP-MColl's multi-object gather into ``root``'s ``recvbuf``."""
    gather = plan_gather(world.topology.nodes, world.topology.ppn,
                         inputs[0].count, root)

    def body(ctx):
        rb = recvbuf if ctx.rank == root else None
        yield from replay(ctx, gather, (), {"send": inputs[ctx.rank],
                                            "recv": rb})

    world.run(body)


def run_reduce(world, inputs, recvbuf, op, root=0):
    """PiP-MColl's multi-object (reduce-scatter, then collect) reduce."""
    reduce = plan_reduce_large(world.topology.nodes, world.topology.ppn,
                               inputs[0].count, root)

    def body(ctx):
        rb = recvbuf if ctx.rank == root else None
        yield from replay(ctx, reduce, (), {"send": inputs[ctx.rank],
                                            "recv": rb}, op)

    world.run(body)


class TestMcollGather:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    def test_root_collects_in_rank_order(self, shape):
        world = make_world(*shape, mechanism=PipShmem())
        size = world.world_size
        count = 3
        inputs = rank_inputs(world, count)
        recvbuf = Buffer.alloc(DOUBLE, size * count)

        run_gather(world, inputs, recvbuf)
        expected = np.concatenate([b.array() for b in inputs])
        assert np.array_equal(recvbuf.array(), expected)

    @pytest.mark.parametrize("root", [1, 5, 7])
    def test_arbitrary_roots(self, root):
        world = make_world(4, 2, mechanism=PipShmem())
        size = world.world_size
        inputs = rank_inputs(world, 2)
        recvbuf = Buffer.alloc(DOUBLE, size * 2)

        run_gather(world, inputs, recvbuf, root)
        expected = np.concatenate([b.array() for b in inputs])
        assert np.array_equal(recvbuf.array(), expected)

    def test_recvbuf_size_validated(self):
        lib = PiPMColl()
        world = make_world(2, 2, mechanism=PipShmem())
        inputs = rank_inputs(world, 4)
        bad = Buffer.alloc(DOUBLE, 4)

        def body(ctx):
            rb = bad if ctx.rank == 0 else None
            yield from lib.gather(ctx, inputs[ctx.rank], rb)

        with pytest.raises(ValueError, match="elements"):
            world.run(body)

    def test_incast_spread_over_root_lanes(self):
        """The root node's P processes each receive from remote nodes."""
        from repro.hw import Topology, tiny_test_machine
        from repro.mpi import World

        world = World(
            Topology(4, 3), tiny_test_machine(), mechanism=PipShmem(),
            phantom=True,
        )
        size = world.world_size
        sends = [Buffer.phantom(64) for _ in range(size)]
        recvbuf = Buffer.phantom(64 * size)

        run_gather(world, sends, recvbuf)
        # each non-root node sends P messages (one per lane)
        for nic in world.hw.nics[1:]:
            assert nic.messages_sent == 3


class TestMcollReduce:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("op,npop", [(SUM, np.sum), (MAX, np.max)])
    def test_root_gets_reduction(self, shape, op, npop):
        world = make_world(*shape, mechanism=PipShmem())
        count = 7
        inputs = rank_inputs(world, count)
        recvbuf = Buffer.alloc(DOUBLE, count)

        run_reduce(world, inputs, recvbuf, op)
        expected = npop([b.array() for b in inputs], axis=0)
        np.testing.assert_allclose(recvbuf.array(), expected, rtol=1e-12)

    @pytest.mark.parametrize("root", [2, 5])
    def test_arbitrary_roots(self, root):
        world = make_world(3, 2, mechanism=PipShmem())
        inputs = rank_inputs(world, 5)
        recvbuf = Buffer.alloc(DOUBLE, 5)

        run_reduce(world, inputs, recvbuf, SUM, root)
        expected = np.sum([b.array() for b in inputs], axis=0)
        np.testing.assert_allclose(recvbuf.array(), expected, rtol=1e-12)

    def test_fewer_elements_than_nodes(self):
        world = make_world(8, 2, mechanism=PipShmem())
        inputs = rank_inputs(world, 3)
        recvbuf = Buffer.alloc(DOUBLE, 3)

        run_reduce(world, inputs, recvbuf, SUM)
        expected = np.sum([b.array() for b in inputs], axis=0)
        np.testing.assert_allclose(recvbuf.array(), expected, rtol=1e-12)

    def test_bandwidth_beats_binomial_for_large(self):
        """Reduce-scatter + collect moves ~2C/node vs binomial's C*log."""
        from repro.baselines import make_library
        from repro.hw import Topology, bebop_broadwell

        count = 1 << 16  # 512 kB

        def run(libname):
            lib = make_library(libname)
            world = lib.make_world(Topology(8, 4), bebop_broadwell(), phantom=True)
            size = world.world_size
            sends = [Buffer.phantom(count * 8, DOUBLE) for _ in range(size)]
            recvbuf = Buffer.phantom(count * 8, DOUBLE)

            def body(ctx):
                rb = recvbuf if ctx.rank == 0 else None
                yield from lib.reduce(ctx, sends[ctx.rank], rb, SUM)

            world.run(body)
            return world.run(body).elapsed

        assert run("PiP-MColl") < run("PiP-MPICH")


RS_ALGOS = [reduce_scatter_halving, reduce_scatter_pairwise]


class TestReduceScatter:
    @pytest.mark.parametrize(
        "shape", [(1, 1), (2, 2), (4, 2), (2, 4)], ids=shape_id
    )
    @pytest.mark.parametrize("algo", RS_ALGOS, ids=lambda a: a.__name__)
    def test_each_rank_gets_its_reduced_block(self, shape, algo):
        world = make_world(*shape)
        group = world_group(world)
        size = group.size
        count = 3
        rng = np.random.default_rng(8)
        full = [rng.random(size * count) for _ in range(size)]
        inputs = [Buffer.real(f.copy()) for f in full]
        outputs = [Buffer.alloc(DOUBLE, count) for _ in range(size)]
        total = np.sum(full, axis=0)

        def body(ctx):
            yield from algo(ctx, group, inputs[ctx.rank], outputs[ctx.rank], SUM)

        world.run(body)
        for i, out in enumerate(outputs):
            np.testing.assert_allclose(
                out.array(), total[i * count:(i + 1) * count], rtol=1e-12
            )

    def test_pairwise_handles_non_pow2(self):
        world = make_world(3, 2)
        group = world_group(world)
        size = group.size
        rng = np.random.default_rng(3)
        full = [rng.random(size * 2) for _ in range(size)]
        inputs = [Buffer.real(f.copy()) for f in full]
        outputs = [Buffer.alloc(DOUBLE, 2) for _ in range(size)]
        total = np.sum(full, axis=0)

        def body(ctx):
            yield from reduce_scatter_pairwise(
                ctx, group, inputs[ctx.rank], outputs[ctx.rank], SUM
            )

        world.run(body)
        for i, out in enumerate(outputs):
            np.testing.assert_allclose(out.array(), total[i * 2:(i + 1) * 2])

    def test_halving_rejects_non_pow2(self):
        world = make_world(3, 1)
        group = world_group(world)
        inputs = [Buffer.alloc(DOUBLE, 3) for _ in range(3)]
        outputs = [Buffer.alloc(DOUBLE, 1) for _ in range(3)]

        def body(ctx):
            yield from reduce_scatter_halving(
                ctx, group, inputs[ctx.rank], outputs[ctx.rank], SUM
            )

        with pytest.raises(ValueError, match="power-of-two"):
            world.run(body)

    @pytest.mark.parametrize("algo", RS_ALGOS, ids=lambda a: a.__name__)
    def test_sendbuf_size_validated(self, algo):
        world = make_world(2, 1)
        group = world_group(world)
        bad = Buffer.alloc(DOUBLE, 3)
        out = Buffer.alloc(DOUBLE, 2)

        def body(ctx):
            yield from algo(ctx, group, bad, out, SUM)

        with pytest.raises(ValueError, match="elements"):
            world.run(body)
