"""Correctness of alltoall: classical baselines and the multi-object
extension, vs the numpy transpose ground truth."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import make_library
from repro.baselines.base import replay
from repro.mpi import DOUBLE, Buffer
from repro.mpi.collectives import Group
from repro.sched.plans.baseline import (
    emit_alltoall_bruck,
    emit_alltoall_pairwise,
)
from repro.sched.plans.mcoll import plan_alltoall
from repro.shmem import PipShmem

from tests.helpers import make_world, replay_group, world_group

SHAPES = [(1, 1), (1, 4), (2, 2), (3, 2), (4, 3), (5, 1), (9, 2)]


def shape_id(s):
    return f"{s[0]}x{s[1]}"


def build_inputs(size, count, seed=0):
    """inputs[r] = rank r's sendbuf; expected[r] = rank r's recvbuf."""
    rng = np.random.default_rng(seed)
    matrix = rng.random((size, size, count))  # [src, dst, elements]
    inputs = [Buffer.real(matrix[r].reshape(-1).copy()) for r in range(size)]
    expected = [
        np.concatenate([matrix[src, dst] for src in range(size)])
        for dst in range(size)
    ]
    return inputs, expected


CLASSICAL = [emit_alltoall_bruck, emit_alltoall_pairwise]


class TestClassicalAlltoall:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("algo", CLASSICAL,
                             ids=["alltoall_bruck", "alltoall_pairwise"])
    @pytest.mark.parametrize("count", [1, 3])
    def test_transpose_semantics(self, shape, algo, count):
        world = make_world(*shape)
        group = world_group(world)
        size = group.size
        inputs, expected = build_inputs(size, count)
        outputs = [Buffer.alloc(DOUBLE, size * count) for _ in range(size)]

        def body(ctx):
            yield from replay_group(
                ctx, group, algo, count,
                {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]},
            )

        world.run(body)
        for r, out in enumerate(outputs):
            assert np.array_equal(out.array(), expected[r]), f"rank {r}"

    def test_uneven_sendbuf_rejected(self):
        """A flat library refuses a send buffer that is not one equal
        block per rank (7 elements on 3 ranks: 2 per block, 6 in all)."""
        lib = make_library("PiP-MPICH")
        world = make_world(3, 1, mechanism=lib.make_mechanism())
        bad = Buffer.alloc(DOUBLE, 7)  # not divisible by 3
        out = Buffer.alloc(DOUBLE, 7)

        def body(ctx):
            yield from lib.alltoall(ctx, bad, out)

        with pytest.raises(ValueError,
                           match="send buffer has 7 elements, need 6"):
            world.run(body)

    def test_bruck_cheaper_in_rounds_pairwise_in_volume(self):
        """Bruck: fewer messages; pairwise: fewer total bytes."""
        from repro.hw import Topology, tiny_test_machine
        from repro.mpi import World
        from repro.shmem import PosixShmem

        def run(algo):
            world = World(
                Topology(8, 1), tiny_test_machine(), mechanism=PosixShmem(),
                phantom=True,
            )
            group = Group(range(8))
            sends = [Buffer.phantom(8 * 16) for _ in range(8)]
            recvs = [Buffer.phantom(8 * 16) for _ in range(8)]

            def body(ctx):
                yield from replay_group(
                    ctx, group, algo, 16,
                    {"send": sends[ctx.rank], "recv": recvs[ctx.rank]},
                )

            world.run(body)
            return (
                world.hw.total_internode_messages(),
                world.hw.total_internode_bytes(),
            )

        bruck_msgs, bruck_bytes = run(emit_alltoall_bruck)
        pw_msgs, pw_bytes = run(emit_alltoall_pairwise)
        assert bruck_msgs < pw_msgs
        assert pw_bytes < bruck_bytes


class TestMcollAlltoall:
    @pytest.mark.parametrize("shape", SHAPES, ids=shape_id)
    @pytest.mark.parametrize("count", [1, 4])
    def test_transpose_semantics(self, shape, count):
        world = make_world(*shape, mechanism=PipShmem())
        size = world.world_size
        inputs, expected = build_inputs(size, count)
        outputs = [Buffer.alloc(DOUBLE, size * count) for _ in range(size)]

        def body(ctx):
            yield from replay(
                ctx, plan_alltoall(*shape, count), (),
                {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]},
            )

        world.run(body)
        for r, out in enumerate(outputs):
            assert np.array_equal(out.array(), expected[r]), f"rank {r}"

    def test_volume_is_pairwise_optimal(self):
        """Each internode block crosses the wire exactly once."""
        from repro.hw import Topology, tiny_test_machine
        from repro.mpi import World

        nodes, ppn, C = 4, 3, 16
        world = World(
            Topology(nodes, ppn), tiny_test_machine(), mechanism=PipShmem(),
            phantom=True,
        )
        size = world.world_size
        sends = [Buffer.phantom(size * C) for _ in range(size)]
        recvs = [Buffer.phantom(size * C) for _ in range(size)]

        def body(ctx):
            yield from replay(
                ctx, plan_alltoall(nodes, ppn, C), (),
                {"send": sends[ctx.rank], "recv": recvs[ctx.rank]},
            )

        world.run(body)
        per_node_expected = (nodes - 1) * ppn * ppn * C
        for nic in world.hw.nics:
            assert nic.bytes_sent == per_node_expected

    def test_beats_flat_pairwise_at_medium_sizes(self):
        """Node-aggregated lanes send P-fold fewer, P-fold bigger messages
        than the flat pairwise exchange — fewer per-message overheads."""
        from repro.hw import Topology, bebop_broadwell

        def run(libname):
            lib = make_library(libname)
            world = lib.make_world(Topology(8, 6), bebop_broadwell(), phantom=True)
            size = world.world_size
            sends = [Buffer.phantom(size * 512) for _ in range(size)]
            recvs = [Buffer.phantom(size * 512) for _ in range(size)]

            def body(ctx):
                yield from lib.alltoall(ctx, sends[ctx.rank], recvs[ctx.rank])

            world.run(body)
            return world.run(body).elapsed

        assert run("PiP-MColl") < run("PiP-MPICH")

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        shape=st.tuples(st.integers(1, 6), st.integers(1, 4)),
        count=st.integers(1, 8),
        seed=st.integers(0, 10**6),
    )
    def test_property_random_shapes(self, shape, count, seed):
        world = make_world(*shape, mechanism=PipShmem())
        size = world.world_size
        inputs, expected = build_inputs(size, count, seed)
        outputs = [Buffer.alloc(DOUBLE, size * count) for _ in range(size)]

        def body(ctx):
            yield from replay(
                ctx, plan_alltoall(*shape, count), (),
                {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]},
            )

        world.run(body)
        for r, out in enumerate(outputs):
            assert np.array_equal(out.array(), expected[r])
