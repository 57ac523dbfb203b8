"""Golden-trace equivalence: compiled schedules vs. the original generators.

``tests/data/golden_sched.json`` was recorded from the hand-written
generator implementations, each point immediately before the schedule-IR
migration of its algorithm.  Each point pins the exact per-iteration
simulated times, their mean, and the internode message count; the
:class:`~repro.sched.executor.ScheduleExecutor` replay must reproduce all
three **bit-for-bit** — pure-Python planning work costs zero simulated
time, so any drift at all means the executor changed the yield sequence,
not just some constant.  Points with a ``root`` field run one rooted
collective at that rank through a small custom body (the microbenchmark
protocol always roots at rank 0).
"""

import json
from pathlib import Path

import pytest

from repro.baselines.registry import make_library
from repro.bench.microbench import run_point
from repro.hw.params import bebop_broadwell
from repro.hw.topology import Topology
from repro.mpi.buffer import Buffer
from repro.mpi.datatypes import SUM
from repro.sched import batch
from repro.sched.fastpath import evaluate_point
from repro.sched.registry import PLANNER_BACKED, planner_backed

_GOLDEN = json.loads(
    (Path(__file__).parent.parent / "data" / "golden_sched.json").read_text()
)


def _label(point):
    label = (
        f"{point['library']}-{point['collective']}-"
        f"{point['nodes']}x{point['ppn']}-{point['msg_bytes']}B"
    )
    if "root" in point:
        label += f"-root{point['root']}"
    return label


def _rooted_body(lib, size, collective, nbytes, root):
    """One rooted collective at ``root`` over phantom buffers."""
    full = Buffer.phantom(nbytes * size)
    out = Buffer.phantom(nbytes)
    bufs = [Buffer.phantom(nbytes) for _ in range(size)]

    def body(ctx):
        mine = bufs[ctx.rank]
        at_root = ctx.rank == root
        if collective == "scatter":
            yield from lib.scatter(ctx, full if at_root else None, mine,
                                   root=root)
        elif collective == "gather":
            yield from lib.gather(ctx, mine, full if at_root else None,
                                  root=root)
        elif collective == "bcast":
            yield from lib.bcast(ctx, mine, root=root)
        else:
            yield from lib.reduce(ctx, mine, out if at_root else None, SUM,
                                  root=root)

    return body


def _run_rooted(point):
    """The microbenchmark protocol (one warm-up, two measured) on a
    rooted body: ``(samples, mean, internode messages)``."""
    lib = make_library(point["library"])
    world = lib.make_world(
        Topology(point["nodes"], point["ppn"]), bebop_broadwell(),
        phantom=True,
    )
    body = _rooted_body(lib, world.world_size, point["collective"],
                        point["msg_bytes"], point["root"])
    world.run(body)
    samples = [world.run(body).elapsed for _ in range(2)]
    return samples, sum(samples) / 2, world.hw.total_internode_messages()


@pytest.mark.parametrize("point", _GOLDEN, ids=_label)
def test_schedule_replay_is_bit_identical_to_generator(point):
    if "root" in point:
        samples, time, messages = _run_rooted(point)
    else:
        result = run_point(
            point["library"],
            point["collective"],
            point["nodes"],
            point["ppn"],
            point["msg_bytes"],
        )
        samples = list(result.samples)
        time, messages = result.time, result.internode_messages
    # exact float equality on purpose: no tolerance, no approx
    assert samples == point["samples"]
    assert time == point["time"]
    assert messages == point["internode_messages"]


_FAST_GOLDEN = [
    p for p in _GOLDEN
    if "root" not in p and planner_backed(p["library"], p["collective"])
]


@pytest.mark.parametrize("point", _FAST_GOLDEN, ids=_label)
def test_dag_reproduces_golden_point(point):
    result = evaluate_point(
        point["library"],
        point["collective"],
        point["nodes"],
        point["ppn"],
        point["msg_bytes"],
    )
    assert list(result.samples) == point["samples"]
    assert result.internode_messages == point["internode_messages"]


def test_batch_reproduces_golden_points(monkeypatch):
    """Each (library, collective, shape) of the planner-backed golden
    points as one batch column, with a vector pass on every partition of
    two or more sizes."""
    monkeypatch.setattr(batch, "_MIN_BATCH_WIDTH", 2)
    columns = {}
    for p in _FAST_GOLDEN:
        key = (p["library"], p["collective"], p["nodes"], p["ppn"])
        columns.setdefault(key, []).append(p)
    for (library, collective, nodes, ppn), points in columns.items():
        col = batch.evaluate_column(
            library, collective, nodes, ppn, [p["msg_bytes"] for p in points]
        )
        for p in points:
            got = col.results[p["msg_bytes"]]
            assert list(got.samples) == p["samples"], _label(p)
            assert got.internode_messages == p["internode_messages"], \
                _label(p)


def test_golden_file_covers_every_planned_library():
    libraries = {p["library"] for p in _GOLDEN}
    assert {library for library, _ in PLANNER_BACKED.values()} <= libraries
    collectives = {p["collective"] for p in _GOLDEN}
    assert {"scatter", "allgather", "allreduce"} <= collectives
