#!/usr/bin/env python
"""Trace the overlap behaviour of PiP-MColl's large-message allgather.

Attaches an execution tracer, runs the multi-object ring allgather with
and without the overlapped intranode broadcast, prints the per-kind time
breakdown, and writes Chrome-trace JSON files you can open at
``chrome://tracing`` or https://ui.perfetto.dev to *see* the copies slide
under the in-flight ring transfers.

Run:  python examples/trace_overlap_visualizer.py
"""

import numpy as np

import repro
from repro.baselines.base import replay
from repro.hw import Topology, bebop_broadwell
from repro.mpi import DOUBLE, Buffer, World
from repro.sched.plans.mcoll import plan_allgather_large
from repro.shmem import PipShmem
from repro.sim import Tracer

NODES, PPN = 4, 4
COUNT = 32 * 1024  # 256 kB per rank


def run(overlap: bool) -> tuple[float, Tracer]:
    tracer = Tracer()
    world = World(
        Topology(NODES, PPN), bebop_broadwell(), mechanism=PipShmem(),
        tracer=tracer,
    )
    size = world.world_size
    rng = np.random.default_rng(0)
    inputs = [Buffer.real(rng.random(COUNT)) for _ in range(size)]
    outputs = [Buffer.alloc(DOUBLE, size * COUNT) for _ in range(size)]

    allgather = plan_allgather_large(NODES, PPN, COUNT, overlap)

    def body(ctx):
        yield from replay(ctx, allgather, (),
                          {"send": inputs[ctx.rank], "recv": outputs[ctx.rank]})

    elapsed = world.run(body).elapsed
    expected = np.concatenate([b.array() for b in inputs])
    assert np.array_equal(outputs[0].array(), expected)
    return elapsed, tracer


def main() -> None:
    print(f"Multi-object ring allgather, {NODES}x{PPN} ranks, "
          f"{COUNT * 8 // 1024} kB per rank\n")
    for overlap in (True, False):
        elapsed, tracer = run(overlap)
        label = "overlap ON " if overlap else "overlap OFF"
        print(f"== {label}: {elapsed * 1e3:.3f} ms total ==")
        busy = tracer.busy_time()
        for kind in sorted(busy):
            print(f"   {kind:12s} {busy[kind] * 1e3:9.3f} ms summed over ranks")
        path = f"trace_allgather_overlap_{'on' if overlap else 'off'}.json"
        tracer.dump_chrome_trace(path)
        print(f"   chrome trace written to {path}\n")
    print("With overlap ON the copy spans sit inside the wait-recv spans "
          "(open the traces to compare).")


if __name__ == "__main__":
    main()
