"""Property-based tests (hypothesis): the PiP-MColl collectives are exact
for arbitrary cluster shapes, counts, dtypes, and reduction operators."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines.base import replay
from repro.mpi import DOUBLE, MAX, MIN, PROD, SUM, Buffer
from repro.sched.plans.mcoll import (
    plan_allgather_large,
    plan_allgather_small,
    plan_allreduce_large,
    plan_allreduce_small,
    plan_scatter,
)
from repro.shmem import PipShmem

from tests.helpers import make_world

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

shapes = st.tuples(st.integers(1, 10), st.integers(1, 5))
counts = st.integers(1, 24)
ops = st.sampled_from([SUM, MAX, MIN, PROD])


def pip_world(shape):
    return make_world(*shape, mechanism=PipShmem())


def make_inputs(world, count, seed):
    rng = np.random.default_rng(seed)
    # values in [0.5, 1.5] keep PROD numerically tame
    return [
        Buffer.real(rng.random(count) * 0.5 + 0.75)
        for _ in range(world.world_size)
    ]


@SETTINGS
@given(shape=shapes, count=counts, seed=st.integers(0, 10**6))
def test_scatter_property(shape, count, seed):
    world = pip_world(shape)
    size = world.world_size
    rng = np.random.default_rng(seed)
    full = rng.random(size * count)
    sendbuf = Buffer.real(full.copy())
    recvs = [Buffer.alloc(DOUBLE, count) for _ in range(size)]

    scatter = plan_scatter(*shape, count, 0, True)

    def body(ctx):
        sb = sendbuf if ctx.rank == 0 else None
        yield from replay(ctx, scatter, (), {"send": sb, "recv": recvs[ctx.rank]})

    world.run(body)
    for i, r in enumerate(recvs):
        assert np.array_equal(r.array(), full[i * count:(i + 1) * count])


@SETTINGS
@given(
    shape=shapes,
    count=counts,
    seed=st.integers(0, 10**6),
    algo=st.sampled_from([plan_allgather_small, plan_allgather_large]),
)
def test_allgather_property(shape, count, seed, algo):
    world = pip_world(shape)
    size = world.world_size
    inputs = make_inputs(world, count, seed)
    outputs = [Buffer.alloc(DOUBLE, size * count) for _ in range(size)]
    expected = np.concatenate([b.array() for b in inputs])
    allgather = algo(*shape, count)

    def body(ctx):
        yield from replay(ctx, allgather, (),
                          {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]})

    world.run(body)
    for out in outputs:
        assert np.array_equal(out.array(), expected)


@SETTINGS
@given(
    shape=shapes,
    count=counts,
    seed=st.integers(0, 10**6),
    op=ops,
    algo=st.sampled_from([plan_allreduce_small, plan_allreduce_large]),
)
def test_allreduce_property(shape, count, seed, op, algo):
    world = pip_world(shape)
    inputs = make_inputs(world, count, seed)
    outputs = [Buffer.alloc(DOUBLE, count) for _ in range(world.world_size)]
    stacked = np.array([b.array() for b in inputs])
    expected = {
        "sum": stacked.sum(axis=0),
        "prod": stacked.prod(axis=0),
        "max": stacked.max(axis=0),
        "min": stacked.min(axis=0),
    }[op.name]

    allreduce = algo(*shape, count)

    def body(ctx):
        yield from replay(ctx, allreduce, (),
                          {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]},
                          op)

    world.run(body)
    for out in outputs:
        np.testing.assert_allclose(out.array(), expected, rtol=1e-9)


@SETTINGS
@given(shape=shapes, count=counts, seed=st.integers(0, 10**6))
def test_mcoll_matches_baseline_allreduce(shape, count, seed):
    """PiP-MColl and the MPICH baseline compute identical reductions
    (within floating-point reassociation tolerance)."""
    from repro.baselines import make_library
    from repro.hw import Topology, tiny_test_machine

    rng = np.random.default_rng(seed)
    size = shape[0] * shape[1]
    data = [rng.random(count) for _ in range(size)]

    results = []
    for libname in ("PiP-MColl", "PiP-MPICH"):
        lib = make_library(libname)
        world = lib.make_world(Topology(*shape), tiny_test_machine())
        sends = [Buffer.real(d.copy()) for d in data]
        recvs = [Buffer.alloc(DOUBLE, count) for _ in range(size)]

        def body(ctx):
            yield from lib.allreduce(ctx, sends[ctx.rank], recvs[ctx.rank], SUM)

        world.run(body)
        results.append(recvs[0].array().copy())

    np.testing.assert_allclose(results[0], results[1], rtol=1e-9)


@SETTINGS
@given(shape=shapes, seed=st.integers(0, 10**6))
def test_timing_is_positive_and_deterministic(shape, seed):
    """Simulated time is strictly positive and identical across reruns of
    the same program (full determinism)."""
    del seed  # shape is the interesting axis; keep signature for shrinking

    def once():
        from repro.hw import Topology, tiny_test_machine
        from repro.mpi import World

        world = World(
            Topology(*shape), tiny_test_machine(), mechanism=PipShmem(),
            phantom=True,
        )
        size = world.world_size
        sends = [Buffer.phantom(64) for _ in range(size)]
        recvs = [Buffer.phantom(64 * size) for _ in range(size)]

        allgather = plan_allgather_small(*shape, 64)

        def body(ctx):
            yield from replay(ctx, allgather, (),
                              {"send": sends[ctx.rank], "recv": recvs[ctx.rank]})

        return world.run(body).elapsed

    t1, t2 = once(), once()
    assert t1 > 0
    assert t1 == t2
