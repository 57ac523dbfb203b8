"""Correctness of the classical collective algorithms vs numpy ground truth.

Each group algorithm is replayed from its group schedule
(:func:`~repro.sched.plans.baseline.plan_group`) over the world group.
"""

import numpy as np
import pytest

from repro.baselines import make_library
from repro.mpi import DOUBLE, MAX, SUM, Buffer
from repro.mpi.collectives import block_partition
from repro.sched.plans.baseline import (
    emit_allgather_bruck,
    emit_allgather_recursive_doubling,
    emit_allgather_ring,
    emit_allreduce_rabenseifner,
    emit_allreduce_recursive_doubling,
    emit_barrier_dissemination,
    emit_bcast_binomial,
    emit_gather_binomial,
    emit_reduce_binomial,
    emit_scatter_binomial,
    plan_group,
)
from repro.sched.plans.hierarchical import plan_hier_allgather

from tests.helpers import (
    alloc_outputs,
    gathered_matrix,
    make_world,
    rank_inputs,
    replay_group,
    world_group,
)

# group sizes exercising powers of two, odd sizes, and primes
SHAPES = [(1, 1), (1, 3), (2, 2), (3, 1), (2, 3), (5, 1), (3, 3), (4, 4), (7, 2)]


def shape_id(shape):
    return f"{shape[0]}x{shape[1]}"


class TestBcast:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("root", [0, "last"])
    def test_all_ranks_get_root_data(self, shape, root):
        world = make_world(*shape)
        group = world_group(world)
        root_index = group.size - 1 if root == "last" else 0
        payload = np.arange(17, dtype=np.float64)
        bufs = [
            Buffer.real(payload.copy()) if r == root_index else Buffer.alloc(DOUBLE, 17)
            for r in range(world.world_size)
        ]

        def body(ctx):
            yield from replay_group(ctx, group, emit_bcast_binomial, 17,
                                    {"buf": bufs[ctx.rank]}, root_index)

        world.run(body)
        for buf in bufs:
            assert np.array_equal(buf.array(), payload)


class TestScatter:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("root", [0, "mid"])
    @pytest.mark.parametrize("count", [1, 4])
    def test_each_rank_gets_its_block(self, shape, root, count):
        world = make_world(*shape)
        group = world_group(world)
        size = group.size
        root_index = size // 2 if root == "mid" else 0
        full = np.arange(size * count, dtype=np.float64)
        sendbuf = Buffer.real(full.copy())
        recvs = alloc_outputs(world, count)

        def body(ctx):
            sb = sendbuf if ctx.rank == group.rank_at(root_index) else None
            yield from replay_group(ctx, group, emit_scatter_binomial, count,
                                    {"send": sb, "recv": recvs[ctx.rank]},
                                    root_index)

        world.run(body)
        for i, r in enumerate(recvs):
            assert np.array_equal(r.array(), full[i * count : (i + 1) * count]), i


class TestGather:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("root", [0, "last"])
    def test_root_collects_in_rank_order(self, shape, root):
        world = make_world(*shape)
        group = world_group(world)
        root_index = group.size - 1 if root == "last" else 0
        count = 3
        inputs = rank_inputs(world, count)
        recvbuf = Buffer.alloc(DOUBLE, group.size * count)

        def body(ctx):
            rb = recvbuf if ctx.rank == group.rank_at(root_index) else None
            yield from replay_group(ctx, group, emit_gather_binomial, count,
                                    {"send": inputs[ctx.rank], "recv": rb},
                                    root_index)

        world.run(body)
        assert np.array_equal(recvbuf.array(), gathered_matrix(inputs))


class TestReduce:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("op,npop", [(SUM, np.sum), (MAX, np.max)])
    def test_root_gets_elementwise_reduction(self, shape, op, npop):
        world = make_world(*shape)
        group = world_group(world)
        count = 5
        inputs = rank_inputs(world, count)
        recvbuf = Buffer.alloc(DOUBLE, count)

        def body(ctx):
            rb = recvbuf if ctx.rank == 0 else None
            yield from replay_group(ctx, group, emit_reduce_binomial, count,
                                    {"send": inputs[ctx.rank], "recv": rb},
                                    0, op=op)

        world.run(body)
        expected = npop([b.array() for b in inputs], axis=0)
        np.testing.assert_allclose(recvbuf.array(), expected, rtol=1e-12)

    def test_nonzero_root(self):
        world = make_world(3, 2)
        group = world_group(world)
        inputs = rank_inputs(world, 4)
        recvbuf = Buffer.alloc(DOUBLE, 4)
        root_index = 4

        def body(ctx):
            rb = recvbuf if ctx.rank == group.rank_at(root_index) else None
            yield from replay_group(ctx, group, emit_reduce_binomial, 4,
                                    {"send": inputs[ctx.rank], "recv": rb},
                                    root_index, op=SUM)

        world.run(body)
        expected = np.sum([b.array() for b in inputs], axis=0)
        np.testing.assert_allclose(recvbuf.array(), expected, rtol=1e-12)


ALLGATHERS = [
    emit_allgather_bruck,
    emit_allgather_ring,
    emit_allgather_recursive_doubling,
]
ALLGATHER_IDS = [
    "allgather_bruck", "allgather_ring", "allgather_recursive_doubling",
]


class TestAllgather:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("algo", ALLGATHERS, ids=ALLGATHER_IDS)
    def test_everyone_gets_everything(self, shape, algo):
        world = make_world(*shape)
        group = world_group(world)
        if (algo is emit_allgather_recursive_doubling
                and group.size & (group.size - 1)):
            pytest.skip("recursive doubling needs power-of-two sizes")
        count = 2
        inputs = rank_inputs(world, count)
        outputs = [Buffer.alloc(DOUBLE, group.size * count) for _ in group.ranks]
        expected = gathered_matrix(inputs)

        def body(ctx):
            yield from replay_group(
                ctx, group, algo, count,
                {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]},
            )

        world.run(body)
        for rank, out in enumerate(outputs):
            assert np.array_equal(out.array(), expected), f"rank {rank}"

    def test_recursive_doubling_rejects_non_pow2(self):
        with pytest.raises(ValueError, match="power-of-two"):
            plan_group(emit_allgather_recursive_doubling, (0, 1, 2), 4)

    def test_recursive_doubling_rejects_non_pow2_leader_group(self):
        """Three nodes' leaders: the leader composition refuses too."""
        with pytest.raises(ValueError, match="power-of-two"):
            plan_hier_allgather(3, 2, 4, emit_allgather_recursive_doubling)

    def test_recvbuf_size_validated(self):
        """A flat library on a non-power-of-two world refuses a receive
        buffer of the wrong size before the run starts."""
        lib = make_library("PiP-MPICH")
        world = make_world(3, 1, mechanism=lib.make_mechanism())
        inputs = rank_inputs(world, 4)
        bad = [Buffer.alloc(DOUBLE, 4) for _ in range(3)]  # needs 12

        def body(ctx):
            yield from lib.allgather(ctx, inputs[ctx.rank], bad[ctx.rank])

        with pytest.raises(ValueError, match="elements"):
            world.run(body)
        assert world.engine.now == 0.0


ALLREDUCES = [emit_allreduce_recursive_doubling, emit_allreduce_rabenseifner]
ALLREDUCE_IDS = ["allreduce_recursive_doubling", "allreduce_rabenseifner"]


class TestAllreduce:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("algo", ALLREDUCES, ids=ALLREDUCE_IDS)
    @pytest.mark.parametrize("count", [1, 4, 16])
    def test_everyone_gets_global_sum(self, shape, algo, count):
        world = make_world(*shape)
        group = world_group(world)
        inputs = rank_inputs(world, count)
        outputs = alloc_outputs(world, count)
        expected = np.sum([b.array() for b in inputs], axis=0)

        def body(ctx):
            yield from replay_group(
                ctx, group, algo, count,
                {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]}, op=SUM,
            )

        world.run(body)
        for rank, out in enumerate(outputs):
            np.testing.assert_allclose(
                out.array(), expected, rtol=1e-12, err_msg=f"rank {rank}"
            )

    @pytest.mark.parametrize("algo", ALLREDUCES, ids=ALLREDUCE_IDS)
    def test_max_reduction(self, algo):
        world = make_world(3, 2)
        group = world_group(world)
        inputs = rank_inputs(world, 7)
        outputs = alloc_outputs(world, 7)
        expected = np.max([b.array() for b in inputs], axis=0)

        def body(ctx):
            yield from replay_group(
                ctx, group, algo, 7,
                {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]}, op=MAX,
            )

        world.run(body)
        for out in outputs:
            np.testing.assert_allclose(out.array(), expected, rtol=1e-12)

    def test_rabenseifner_more_blocks_than_elements(self):
        """pof2 > count: some blocks are empty; still correct."""
        world = make_world(8, 1)
        group = world_group(world)
        inputs = rank_inputs(world, 3)  # 3 elements, 8 blocks
        outputs = alloc_outputs(world, 3)
        expected = np.sum([b.array() for b in inputs], axis=0)

        def body(ctx):
            yield from replay_group(
                ctx, group, emit_allreduce_rabenseifner, 3,
                {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]}, op=SUM,
            )

        world.run(body)
        for out in outputs:
            np.testing.assert_allclose(out.array(), expected, rtol=1e-12)


class TestBarrier:
    @pytest.mark.parametrize("shape", [(1, 1), (2, 3), (5, 1), (4, 4)], ids=shape_id)
    def test_no_rank_exits_before_last_enters(self, shape):
        world = make_world(*shape)
        group = world_group(world)
        enter = {}
        exit_ = {}

        def body(ctx):
            # stagger arrivals
            yield from ctx.compute(ctx.rank * 1e-4)
            enter[ctx.rank] = world.engine.now
            yield from replay_group(ctx, group, emit_barrier_dissemination,
                                    0, {"token": ctx.alloc_bytes(0)})
            exit_[ctx.rank] = world.engine.now

        world.run(body)
        assert min(exit_.values()) >= max(enter.values())


class TestBlockPartition:
    def test_even_split(self):
        assert block_partition(8, 4) == ((2, 2, 2, 2), (0, 2, 4, 6))

    def test_uneven_split_puts_extra_first(self):
        counts, displs = block_partition(10, 4)
        assert counts == (3, 3, 2, 2)
        assert displs == (0, 3, 6, 8)

    def test_more_parts_than_elements(self):
        counts, displs = block_partition(2, 5)
        assert counts == (1, 1, 0, 0, 0)
        assert sum(counts) == 2

    def test_zero_count(self):
        counts, _ = block_partition(0, 3)
        assert counts == (0, 0, 0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            block_partition(5, 0)
        with pytest.raises(ValueError):
            block_partition(-1, 2)
