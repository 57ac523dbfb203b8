"""Property tests: planner schedules check out on randomized shapes.

Two properties, over a deterministic pseudo-random sample of
``(nodes, procs_per_node, nbytes)`` shapes plus hand-picked edge cases:

1. every planner-backed (library, collective) combination produces a
   schedule that passes the static checker — sends matched, no cyclic
   waits, every buffer access in bounds;
2. the checker's abstract internode accounting equals the live
   simulator's hardware NIC accounting *exactly* (the same invariant
   :mod:`tests.core.test_comm_volume` checks by formula, here checked
   planner-vs-simulator).  Messages are compared below the tiny
   machine's eager threshold, where the wire protocol adds no control
   messages; bytes are compared everywhere.
"""

import random

import pytest

from repro.baselines.registry import make_library
from repro.bench.microbench import _make_body
from repro.core.tuning import Thresholds
from repro.hw import Topology, tiny_test_machine
from repro.sched.check import check_planned
from repro.sched.registry import (
    PLANNER_BACKED,
    plan_for,
    registry_combinations,
)


def _random_shapes(n, seed=0x51C4ED):
    rng = random.Random(seed)
    shapes = []
    for _ in range(n):
        nodes = rng.randint(1, 9)
        ppn = rng.randint(1, 6)
        nbytes = rng.choice((1, 3, 16, 64, 257, 1024, 4096))
        shapes.append((nodes, ppn, nbytes))
    return shapes


#: randomized sample + degenerate edges (single node, single process per
#: node, single process total, and one wide shape)
SHAPES = _random_shapes(6) + [
    (1, 1, 64),
    (1, 5, 128),
    (2, 1, 32),
    (8, 16, 1024),
]

COMBOS = registry_combinations()


def _shape_id(shape):
    return f"{shape[0]}x{shape[1]}-{shape[2]}B"


# -- property 1: everything the planners emit passes the checker -----------


@pytest.mark.parametrize("shape", SHAPES, ids=_shape_id)
@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_planned_schedule_passes_checker(combo, shape):
    library, collective = combo
    nodes, ppn, nbytes = shape
    piece = plan_for(library, collective, nodes, ppn, nbytes)
    report = check_planned(piece, ppn)  # raises CheckError on any violation
    assert report.nranks == nodes * ppn


@pytest.mark.parametrize("shape", SHAPES[:4], ids=_shape_id)
@pytest.mark.parametrize("collective", ["allgather", "allreduce"])
@pytest.mark.parametrize(
    "thresholds",
    [Thresholds.always_small(), Thresholds.always_large()],
    ids=["forced-small", "forced-large"],
)
def test_both_algorithm_variants_pass_checker(collective, shape, thresholds):
    """Threshold ablations force each algorithm at sizes it would not
    normally see; both variants must still verify."""
    nodes, ppn, nbytes = shape
    piece = plan_for(
        "pip-mcoll", collective, nodes, ppn, nbytes, thresholds=thresholds
    )
    check_planned(piece, ppn)


# -- property 2: abstract accounting == simulated hardware accounting ------


def _simulate(library, collective, nodes, ppn, nbytes):
    """One live iteration on the tiny test machine; returns the World."""
    lib = make_library(PLANNER_BACKED[library])
    world = lib.make_world(
        Topology(nodes, ppn), tiny_test_machine(), phantom=True
    )
    world.run(_make_body(lib, world, collective, nbytes))
    return world


@pytest.mark.parametrize("shape", SHAPES[:5] + [(1, 1, 64)], ids=_shape_id)
@pytest.mark.parametrize("combo", COMBOS, ids=lambda c: f"{c[0]}-{c[1]}")
def test_checker_volume_matches_simulator(combo, shape):
    library, collective = combo
    nodes, ppn, nbytes = shape
    report = check_planned(plan_for(library, collective, nodes, ppn, nbytes),
                           ppn)
    world = _simulate(library, collective, nodes, ppn, nbytes)
    assert report.internode_bytes == world.hw.total_internode_bytes()
    # below the eager threshold the wire adds no control messages, so
    # message counts must agree exactly as well (all SHAPES sizes qualify)
    assert report.internode_messages == world.hw.total_internode_messages()
