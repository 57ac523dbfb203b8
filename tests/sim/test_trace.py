"""Tests for the execution tracer."""

import json

import numpy as np
import pytest

from repro.hw import Topology, tiny_test_machine
from repro.mpi import BYTE, DOUBLE, SUM, Buffer, World
from repro.shmem import PipShmem
from repro.sim import TraceEvent, Tracer


def traced_world(nodes=2, ppn=2):
    tracer = Tracer()
    world = World(
        Topology(nodes, ppn), tiny_test_machine(), mechanism=PipShmem(),
        tracer=tracer,
    )
    return world, tracer


class TestTracer:
    def test_records_span_kinds(self):
        world, tracer = traced_world()
        a = Buffer.real(np.ones(8))
        b = Buffer.alloc(DOUBLE, 8)

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.compute(1e-6)
                yield from ctx.copy(b, a)
                yield from ctx.reduce_into(b, a, SUM)
                yield from ctx.send(2, a, tag=0)
            elif ctx.rank == 2:
                yield from ctx.recv(0, b, tag=0)

        world.run(body)
        kinds = set(tracer.by_kind())
        assert {"compute", "copy", "reduce", "isend", "wait-send",
                "wait-recv"} <= kinds

    def test_event_fields(self):
        world, tracer = traced_world()

        def body(ctx):
            if ctx.rank == 3:
                yield from ctx.compute(5e-6)

        world.run(body)
        [ev] = [e for e in tracer.events if e.kind == "compute"]
        assert ev.rank == 3
        assert ev.node == 1
        assert ev.duration == pytest.approx(5e-6)

    def test_busy_time_accumulates(self):
        world, tracer = traced_world()

        def body(ctx):
            yield from ctx.compute(1e-6)
            yield from ctx.compute(2e-6)

        world.run(body)
        busy = tracer.busy_time(rank=0)
        assert busy["compute"] == pytest.approx(3e-6)
        total = tracer.busy_time()
        assert total["compute"] == pytest.approx(4 * 3e-6)

    def test_rank_span(self):
        world, tracer = traced_world()

        def body(ctx):
            yield from ctx.compute(1e-6)
            yield from ctx.compute(1e-6)

        world.run(body)
        t0, t1 = tracer.rank_span(1)
        assert t0 == 0.0
        assert t1 == pytest.approx(2e-6)
        with pytest.raises(ValueError):
            tracer.rank_span(99)

    def test_chrome_trace_export(self, tmp_path):
        world, tracer = traced_world()

        def body(ctx):
            yield from ctx.compute(1e-6)

        world.run(body)
        path = tmp_path / "trace.json"
        tracer.dump_chrome_trace(str(path))
        data = json.loads(path.read_text())
        assert data["traceEvents"]
        ev = data["traceEvents"][0]
        assert {"name", "ph", "ts", "dur", "pid", "tid"} <= set(ev)
        assert ev["ph"] == "X"

    def test_event_cap_drops_and_counts(self):
        tracer = Tracer(max_events=2)
        for i in range(5):
            tracer.record(0, 0, "x", 0.0, 1.0)
        assert len(tracer.events) == 2
        assert tracer.dropped == 3

    def test_clear(self):
        tracer = Tracer()
        tracer.record(0, 0, "x", 0.0, 1.0)
        tracer.clear()
        assert tracer.events == []

    def test_summary_mentions_kinds(self):
        tracer = Tracer()
        tracer.record(0, 0, "copy", 0.0, 1e-6)
        tracer.record(0, 0, "copy", 1e-6, 3e-6)
        text = tracer.summary()
        assert "copy" in text
        assert "2 spans" in text

    def test_tracing_off_by_default_has_no_events(self):
        world = World(
            Topology(1, 2), tiny_test_machine(), mechanism=PipShmem()
        )
        assert world.tracer is None

    def test_overlap_visible_in_trace(self):
        """The multi-object scatter's overlapped intranode copy shows up as
        a copy span that starts before the rank's isend wait finishes."""
        from repro.baselines.base import replay
        from repro.sched.plans.mcoll import plan_scatter

        world, tracer = traced_world(nodes=3, ppn=2)
        size = world.world_size
        full = Buffer.real(np.arange(size * 4, dtype=np.float64))
        recvs = [Buffer.alloc(DOUBLE, 4) for _ in range(size)]

        def body(ctx):
            sb = full if ctx.rank == 0 else None
            yield from replay(ctx, plan_scatter(3, 2, 4, 0, True), (),
                              {"send": sb, "recv": recvs[ctx.rank]})

        world.run(body)
        root_copies = [
            e for e in tracer.events if e.rank == 0 and e.kind == "copy"
        ]
        root_waits = [
            e for e in tracer.events if e.rank == 0 and e.kind == "wait-send"
        ]
        assert root_copies and root_waits
        # the own-block copy begins before the internode send wait ends
        assert min(c.t0 for c in root_copies) < max(w.t1 for w in root_waits)
