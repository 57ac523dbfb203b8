"""Tests for the two-level (leader-based) collective composition.

Each composition's schedule runs through ``replay`` with a leader
algorithm chosen here: MPICH's binomial scatter, the ring allgather and
the recursive-doubling allreduce.
"""

import numpy as np
import pytest

from repro.baselines.base import leader_group, node_group, replay
from repro.mpi import DOUBLE, SUM, Buffer
from repro.sched.plans.baseline import (
    emit_allgather_ring,
    emit_allreduce_recursive_doubling,
    emit_scatter_binomial,
)
from repro.sched.plans.hierarchical import (
    COMPOSE_TAGS,
    FAN_OUT_TAGS,
    plan_hier_allgather,
    plan_hier_allreduce,
    plan_hier_scatter,
)
from repro.shmem import PosixShmem

from tests.helpers import make_world


class TestGroupHelpers:
    def test_node_group_contains_my_node(self):
        world = make_world(3, 4)
        ctx = world.ctx(6)
        g = node_group(ctx)
        assert list(g.ranks) == [4, 5, 6, 7]

    def test_leader_group_is_local_roots(self):
        world = make_world(3, 4)
        g = leader_group(world.ctx(0))
        assert list(g.ranks) == [0, 4, 8]


class TestHierScatter:
    @pytest.mark.parametrize("shape", [(2, 3), (4, 2), (3, 4)])
    def test_leader_root(self, shape):
        world = make_world(*shape, mechanism=PosixShmem())
        size = world.world_size
        count = 2
        full = np.arange(size * count, dtype=np.float64)
        sendbuf = Buffer.real(full.copy())
        recvs = [Buffer.alloc(DOUBLE, count) for _ in range(size)]

        scatter = plan_hier_scatter(*shape, count, 0, emit_scatter_binomial)

        def body(ctx):
            sb = sendbuf if ctx.rank == 0 else None
            yield from replay(ctx, scatter, FAN_OUT_TAGS,
                              {"send": sb, "recv": recvs[ctx.rank]})

        world.run(body)
        for i, r in enumerate(recvs):
            assert np.array_equal(r.array(), full[i * count:(i + 1) * count])

    def test_non_leader_root_relocates(self):
        world = make_world(2, 3, mechanism=PosixShmem())
        size = world.world_size
        root = 4  # node 1, local rank 1 — not a leader
        full = np.arange(size, dtype=np.float64)
        sendbuf = Buffer.real(full.copy())
        recvs = [Buffer.alloc(DOUBLE, 1) for _ in range(size)]

        scatter = plan_hier_scatter(2, 3, 1, root, emit_scatter_binomial)

        def body(ctx):
            sb = sendbuf if ctx.rank == root else None
            yield from replay(ctx, scatter, FAN_OUT_TAGS,
                              {"send": sb, "recv": recvs[ctx.rank]})

        world.run(body)
        for i, r in enumerate(recvs):
            assert r.array()[0] == full[i]


class TestHierAllgatherAllreduce:
    def test_allgather_matches_ground_truth(self):
        world = make_world(3, 2, mechanism=PosixShmem())
        size = world.world_size
        rng = np.random.default_rng(9)
        inputs = [Buffer.real(rng.random(3)) for _ in range(size)]
        outputs = [Buffer.alloc(DOUBLE, size * 3) for _ in range(size)]
        expected = np.concatenate([b.array() for b in inputs])

        allgather = plan_hier_allgather(3, 2, 3, emit_allgather_ring)

        def body(ctx):
            yield from replay(ctx, allgather, COMPOSE_TAGS,
                              {"send": inputs[ctx.rank],
                               "recv": outputs[ctx.rank]})

        world.run(body)
        for out in outputs:
            assert np.array_equal(out.array(), expected)

    def test_allreduce_matches_ground_truth(self):
        world = make_world(4, 3, mechanism=PosixShmem())
        size = world.world_size
        rng = np.random.default_rng(10)
        inputs = [Buffer.real(rng.random(5)) for _ in range(size)]
        outputs = [Buffer.alloc(DOUBLE, 5) for _ in range(size)]
        expected = np.sum([b.array() for b in inputs], axis=0)

        allreduce = plan_hier_allreduce(4, 3, 5,
                                        emit_allreduce_recursive_doubling)

        def body(ctx):
            yield from replay(ctx, allreduce, COMPOSE_TAGS,
                              {"send": inputs[ctx.rank],
                               "recv": outputs[ctx.rank]}, SUM)

        world.run(body)
        for out in outputs:
            np.testing.assert_allclose(out.array(), expected, rtol=1e-12)

    def test_single_node_degenerates(self):
        world = make_world(1, 4, mechanism=PosixShmem())
        inputs = [Buffer.real(np.full(2, float(r))) for r in range(4)]
        outputs = [Buffer.alloc(DOUBLE, 2) for _ in range(4)]

        allreduce = plan_hier_allreduce(1, 4, 2,
                                        emit_allreduce_recursive_doubling)

        def body(ctx):
            yield from replay(ctx, allreduce, COMPOSE_TAGS,
                              {"send": inputs[ctx.rank],
                               "recv": outputs[ctx.rank]}, SUM)

        world.run(body)
        for out in outputs:
            assert np.array_equal(out.array(), np.array([6.0, 6.0]))
