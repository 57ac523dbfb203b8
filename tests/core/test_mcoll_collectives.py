"""Correctness of the primary PiP-MColl collectives vs numpy ground truth.

Shapes deliberately include powers of (P+1), non-powers, primes, single
nodes, and single-process nodes — the generalised algorithms must be exact
everywhere.
"""

import numpy as np
import pytest

from repro.baselines.base import replay
from repro.core import PiPMColl, Thresholds
from repro.mpi import DOUBLE, MAX, SUM, Buffer
from repro.sched.plans.mcoll import (
    plan_allgather_large,
    plan_allgather_small,
    plan_allreduce_large,
    plan_allreduce_small,
    plan_scatter,
)
from repro.shmem import PipShmem

from tests.helpers import alloc_outputs, gathered_matrix, make_world, rank_inputs

# (nodes, ppn): powers of P+1 (4 nodes @ ppn 3 -> B=4; 9 @ 2 -> B=3),
# non-powers, primes, degenerate shapes
SHAPES = [
    (1, 1), (1, 4), (2, 1), (4, 3), (9, 2), (3, 2), (5, 3), (7, 2),
    (6, 1), (8, 4), (13, 3), (16, 2),
]


def shape_id(s):
    return f"{s[0]}x{s[1]}"


def pip_world(shape):
    return make_world(*shape, mechanism=PipShmem())


class TestMcollScatter:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("count", [1, 4])
    def test_each_rank_gets_its_block(self, shape, count):
        world = pip_world(shape)
        size = world.world_size
        full = np.arange(size * count, dtype=np.float64)
        sendbuf = Buffer.real(full.copy())
        recvs = alloc_outputs(world, count)

        scatter = plan_scatter(*shape, count, 0, True)

        def body(ctx):
            sb = sendbuf if ctx.rank == 0 else None
            yield from replay(ctx, scatter, (),
                              {"send": sb, "recv": recvs[ctx.rank]})

        world.run(body)
        for i, r in enumerate(recvs):
            assert np.array_equal(
                r.array(), full[i * count : (i + 1) * count]
            ), f"rank {i}"

    @pytest.mark.parametrize("shape", [(4, 3), (5, 2), (3, 3)], ids=shape_id)
    @pytest.mark.parametrize("root_kind", ["mid-node", "non-local-root"])
    def test_arbitrary_roots(self, shape, root_kind):
        world = pip_world(shape)
        size = world.world_size
        ppn = shape[1]
        root = ppn if root_kind == "mid-node" else ppn + 1  # node 1
        count = 2
        full = np.arange(size * count, dtype=np.float64)
        sendbuf = Buffer.real(full.copy())
        recvs = alloc_outputs(world, count)

        scatter = plan_scatter(*shape, count, root, True)

        def body(ctx):
            sb = sendbuf if ctx.rank == root else None
            yield from replay(ctx, scatter, (),
                              {"send": sb, "recv": recvs[ctx.rank]})

        world.run(body)
        for i, r in enumerate(recvs):
            assert np.array_equal(
                r.array(), full[i * count : (i + 1) * count]
            ), f"rank {i}"


ALLGATHERS = [plan_allgather_small, plan_allgather_large]
ALLGATHER_IDS = ["mcoll_allgather_small", "mcoll_allgather_large"]
#: the library forced onto each allgather algorithm, same ids
FORCED = [Thresholds.always_small(), Thresholds.always_large()]


class TestMcollAllgather:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("algo", ALLGATHERS, ids=ALLGATHER_IDS)
    def test_everyone_gets_everything(self, shape, algo):
        world = pip_world(shape)
        count = 3
        inputs = rank_inputs(world, count)
        outputs = [
            Buffer.alloc(DOUBLE, world.world_size * count)
            for _ in range(world.world_size)
        ]
        expected = gathered_matrix(inputs)
        allgather = algo(*shape, count)

        def body(ctx):
            yield from replay(ctx, allgather, (),
                              {"send": inputs[ctx.rank],
                               "recv": outputs[ctx.rank]})

        world.run(body)
        for rank, out in enumerate(outputs):
            assert np.array_equal(out.array(), expected), f"rank {rank}"

    @pytest.mark.parametrize("thresholds", FORCED, ids=ALLGATHER_IDS)
    def test_recvbuf_size_validated(self, thresholds):
        lib = PiPMColl(thresholds)
        world = pip_world((2, 2))
        inputs = rank_inputs(world, 4)
        bad = [Buffer.alloc(DOUBLE, 4) for _ in range(4)]

        def body(ctx):
            yield from lib.allgather(ctx, inputs[ctx.rank], bad[ctx.rank])

        with pytest.raises(ValueError, match="elements"):
            world.run(body)

    def test_large_sizes_cross_rendezvous_threshold(self):
        """Ring lanes above the eager threshold still deliver correctly."""
        world = pip_world((3, 2))
        count = 20_000  # 160 kB per rank > 64 kB eager threshold
        inputs = rank_inputs(world, count)
        outputs = [
            Buffer.alloc(DOUBLE, world.world_size * count)
            for _ in range(world.world_size)
        ]
        expected = gathered_matrix(inputs)

        allgather = plan_allgather_large(3, 2, count)

        def body(ctx):
            yield from replay(ctx, allgather, (),
                              {"send": inputs[ctx.rank],
                               "recv": outputs[ctx.rank]})

        world.run(body)
        for out in outputs:
            assert np.array_equal(out.array(), expected)


ALLREDUCES = [plan_allreduce_small, plan_allreduce_large]
ALLREDUCE_IDS = ["mcoll_allreduce_small", "mcoll_allreduce_large"]


def run_allreduce(world, schedule, inputs, outputs, op):
    """Replay an allreduce schedule on every rank of ``world``."""
    def body(ctx):
        yield from replay(ctx, schedule, (),
                          {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]},
                          op)

    world.run(body)


class TestMcollAllreduce:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("algo", ALLREDUCES, ids=ALLREDUCE_IDS)
    @pytest.mark.parametrize("count", [1, 5, 16])
    def test_everyone_gets_global_sum(self, shape, algo, count):
        world = pip_world(shape)
        inputs = rank_inputs(world, count)
        outputs = alloc_outputs(world, count)
        expected = np.sum([b.array() for b in inputs], axis=0)

        run_allreduce(world, algo(*shape, count), inputs, outputs, SUM)
        for rank, out in enumerate(outputs):
            np.testing.assert_allclose(
                out.array(), expected, rtol=1e-12, err_msg=f"rank {rank}"
            )

    @pytest.mark.parametrize("algo", ALLREDUCES, ids=ALLREDUCE_IDS)
    def test_max_reduction(self, algo):
        world = pip_world((5, 3))
        inputs = rank_inputs(world, 9)
        outputs = alloc_outputs(world, 9)
        expected = np.max([b.array() for b in inputs], axis=0)

        run_allreduce(world, algo(5, 3, 9), inputs, outputs, MAX)
        for out in outputs:
            np.testing.assert_allclose(out.array(), expected, rtol=1e-12)

    def test_large_algo_fewer_elements_than_nodes(self):
        """C < N: some reduce-scatter chunks are empty."""
        world = pip_world((8, 2))
        inputs = rank_inputs(world, 3)
        outputs = alloc_outputs(world, 3)
        expected = np.sum([b.array() for b in inputs], axis=0)

        run_allreduce(world, plan_allreduce_large(8, 2, 3), inputs, outputs,
                      SUM)
        for out in outputs:
            np.testing.assert_allclose(out.array(), expected, rtol=1e-12)

    def test_small_algo_exact_power_shape(self):
        """N = (P+1)^2 exercises two full rounds and no remainder."""
        world = pip_world((9, 2))
        inputs = rank_inputs(world, 4)
        outputs = alloc_outputs(world, 4)
        expected = np.sum([b.array() for b in inputs], axis=0)

        run_allreduce(world, plan_allreduce_small(9, 2, 4), inputs, outputs,
                      SUM)
        for out in outputs:
            np.testing.assert_allclose(out.array(), expected, rtol=1e-12)

    def test_recvbuf_size_validated(self):
        lib = PiPMColl(Thresholds.always_small())
        world = pip_world((2, 2))
        inputs = rank_inputs(world, 4)
        bad = [Buffer.alloc(DOUBLE, 3) for _ in range(4)]

        def body(ctx):
            yield from lib.allreduce(ctx, inputs[ctx.rank], bad[ctx.rank], SUM)

        with pytest.raises(ValueError, match="elements"):
            world.run(body)
