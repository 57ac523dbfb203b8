"""Shared helpers for collective-algorithm correctness tests and for
checks that must hold on every engine."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import replay
from repro.bench.microbench import ENGINES, run_point
from repro.hw import Topology, tiny_test_machine
from repro.mpi import DOUBLE, Buffer, World
from repro.mpi.collectives import Group
from repro.sched.plans.baseline import plan_group
from repro.shmem import PosixShmem


def make_world(nodes: int, ppn: int, mechanism=None, params=None) -> World:
    """A small real-data world for correctness tests."""
    return World(
        Topology(nodes, ppn),
        params or tiny_test_machine(),
        mechanism=mechanism or PosixShmem(),
    )


def world_group(world: World) -> Group:
    return Group(range(world.world_size))


def replay_group(ctx, group: Group, emit, count: int, bindings, *root,
                 op=None):
    """Replay group algorithm ``emit`` (a ``plan_group`` emitter) over
    ``group`` on this rank; ``root`` is a rooted algorithm's root index."""
    schedule = plan_group(emit, group.ranks, count, *root)
    return replay(ctx, schedule, ("tag",), bindings, op, group)


def rank_inputs(world: World, count: int, seed: int = 0) -> list[Buffer]:
    """Deterministic distinct per-rank input buffers (doubles)."""
    rng = np.random.default_rng(seed)
    return [
        Buffer.real(np.round(rng.random(count) * 100, 3))
        for _ in range(world.world_size)
    ]


def alloc_outputs(world: World, count: int) -> list[Buffer]:
    return [Buffer.alloc(DOUBLE, count) for _ in range(world.world_size)]


def gathered_matrix(inputs: list[Buffer]) -> np.ndarray:
    """Concatenation of all rank inputs (allgather ground truth)."""
    return np.concatenate([b.array() for b in inputs])


#: every engine a point can reach: the names ``run_point`` takes, and the
#: two exact replays ``auto`` chooses between, called directly
EVERY_ENGINE = ENGINES + ("dag", "batch")


def evaluate_on(engine: str, library: str, collective: str, nodes: int,
                ppn: int, msg_bytes, **kw):
    """One point's ``(samples, internode_messages)`` on ``engine`` of
    :data:`EVERY_ENGINE`; keywords as :func:`run_point` takes them."""
    if engine == "dag":
        from repro.sched.fastpath import evaluate_point

        r = evaluate_point(library, collective, nodes, ppn, msg_bytes, **kw)
    elif engine == "batch":
        from repro.sched.batch import evaluate_column

        (r,) = evaluate_column(library, collective, nodes, ppn, [msg_bytes],
                               **kw).results.values()
    else:
        r = run_point(library, collective, nodes, ppn, msg_bytes,
                      engine=engine, **kw)
    return tuple(r.samples), r.internode_messages
