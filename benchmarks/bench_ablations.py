"""Ablations of the design choices DESIGN.md calls out.

Four studies, each isolating one ingredient of PiP-MColl's performance:

* **multi-object fan-out** — if a single process could already saturate
  the NIC (per-process limits lifted to line rate), the multi-object
  design would buy little; with realistic per-process limits it buys a
  lot.  This is the causal test of the paper's Fig. 1 motivation.
* **intra/internode overlap** — the overlapped intranode scatter
  (§III-A1) and overlapped intranode broadcast in the ring allgather
  (§III-B1), switched off via the ``overlap`` knobs.
* **PiP size-synchronisation sensitivity** — PiP-MPICH pays the handshake
  per intranode message, PiP-MColl's redesigned collectives mostly avoid
  it; sweeping the handshake cost shows who depends on it.
* **algorithm switch point** — the 64 kB allgather threshold (§IV-D2)
  against earlier/later switches.

The first and third studies compare registry libraries under
``MachineParams`` overrides, so they submit declarative ``Point``s through
:mod:`repro.bench.runner` (pool + cache apply).  The overlap and
switch-point studies need non-registry knobs (the planners' ``overlap``
argument, ``Thresholds``) and stay direct.
"""

import pytest

from repro.bench.config import current_scale
from repro.bench.runner import Point, run_points
from repro.baselines.base import replay
from repro.core import PiPMColl, Thresholds
from repro.hw import Topology, bebop_broadwell
from repro.mpi import SUM, Buffer, World
from repro.sched.plans.mcoll import plan_allgather_large, plan_scatter
from repro.shmem import PipShmem
from repro.util.units import KB


def _world(params=None, nodes=None, ppn=None):
    scale = current_scale()
    return World(
        Topology(nodes or scale.nodes, ppn or scale.ppn),
        params or bebop_broadwell(),
        mechanism=PipShmem(),
        phantom=True,
    )


def _run_scatter(world, nbytes, overlap=True):
    size = world.world_size
    sendbuf = Buffer.phantom(nbytes * size)
    recvs = [Buffer.phantom(nbytes) for _ in range(size)]

    scatter = plan_scatter(world.topology.nodes, world.topology.ppn, nbytes,
                           0, overlap)

    def body(ctx):
        sb = sendbuf if ctx.rank == 0 else None
        yield from replay(ctx, scatter, (),
                          {"send": sb, "recv": recvs[ctx.rank]})

    world.run(body)  # warm-up
    return world.run(body).elapsed


def _run_allgather_large(world, nbytes, overlap=True):
    size = world.world_size
    sends = [Buffer.phantom(nbytes) for _ in range(size)]
    recvs = [Buffer.phantom(nbytes * size) for _ in range(size)]

    allgather = plan_allgather_large(world.topology.nodes,
                                     world.topology.ppn, nbytes, overlap)

    def body(ctx):
        yield from replay(ctx, allgather, (),
                          {"send": sends[ctx.rank], "recv": recvs[ctx.rank]})

    world.run(body)
    return world.run(body).elapsed


def _lib_time(lib, world, collective, nbytes):
    size = world.world_size
    if collective == "scatter":
        sendbuf = Buffer.phantom(nbytes * size)
        recvs = [Buffer.phantom(nbytes) for _ in range(size)]

        def body(ctx):
            sb = sendbuf if ctx.rank == 0 else None
            yield from lib.scatter(ctx, sb, recvs[ctx.rank])

    else:
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvs = [Buffer.phantom(nbytes * size) for _ in range(size)]

        def body(ctx):
            yield from lib.allgather(ctx, sends[ctx.rank], recvs[ctx.rank])

    world.run(body)
    return world.run(body).elapsed


def test_ablation_multiobject_fanout(benchmark):
    """Lifting per-process NIC limits to line rate collapses the
    multi-object advantage — the mechanism behind Fig. 1."""

    def study():
        realistic = bebop_broadwell()
        uncapped = realistic.with_overrides(
            proc_msg_rate=realistic.nic_msg_rate,
            proc_bandwidth=realistic.nic_bandwidth,
            proc_dma_bandwidth=realistic.nic_bandwidth,
        )
        scale = current_scale()
        variants = (("realistic", realistic), ("uncapped", uncapped))
        points = [
            Point(lib, "scatter", scale.nodes, scale.ppn, 256, params=params)
            for _, params in variants
            for lib in ("PiP-MColl", "PiP-MPICH")
        ]
        results = run_points(points)
        out = {}
        for i, (label, _) in enumerate(variants):
            mcoll_t, mpich_t = results[2 * i].time, results[2 * i + 1].time
            out[label] = mpich_t / mcoll_t
        return out

    speedups = benchmark.pedantic(study, rounds=1, iterations=1)
    print(f"\nscatter speedup vs PiP-MPICH: realistic NIC "
          f"{speedups['realistic']:.2f}x, uncapped NIC "
          f"{speedups['uncapped']:.2f}x")
    # the multi-object advantage must come mostly from per-process limits
    assert speedups["realistic"] > speedups["uncapped"]


def test_ablation_overlap(benchmark):
    """Overlap on vs off for the scatter and the large allgather."""

    def study():
        nbytes = 64 * KB
        return {
            "scatter_on": _run_scatter(_world(), nbytes, overlap=True),
            "scatter_off": _run_scatter(_world(), nbytes, overlap=False),
            "allgather_on": _run_allgather_large(_world(), nbytes, overlap=True),
            "allgather_off": _run_allgather_large(_world(), nbytes, overlap=False),
        }

    t = benchmark.pedantic(study, rounds=1, iterations=1)
    print(f"\nscatter:   overlap {t['scatter_on'] * 1e6:.1f}us  "
          f"no-overlap {t['scatter_off'] * 1e6:.1f}us")
    print(f"allgather: overlap {t['allgather_on'] * 1e6:.1f}us  "
          f"no-overlap {t['allgather_off'] * 1e6:.1f}us")
    # overlap never hurts, and helps the allgather measurably
    assert t["scatter_on"] <= t["scatter_off"] * 1.001
    assert t["allgather_on"] < t["allgather_off"]


def test_ablation_pip_sizesync_sensitivity(benchmark):
    """PiP-MPICH degrades with the handshake cost; PiP-MColl barely moves."""

    def study():
        scale = current_scale()
        keys, points = [], []
        for factor in (1.0, 4.0):
            params = bebop_broadwell()
            params = params.with_overrides(
                pip_sizesync_time=params.pip_sizesync_time * factor
            )
            for name in ("PiP-MColl", "PiP-MPICH"):
                keys.append((name, factor))
                points.append(
                    Point(name, "allgather", scale.nodes, scale.ppn, 64,
                          params=params)
                )
        results = run_points(points)
        return {k: r.time for k, r in zip(keys, results)}

    t = benchmark.pedantic(study, rounds=1, iterations=1)
    mcoll_growth = t[("PiP-MColl", 4.0)] / t[("PiP-MColl", 1.0)]
    mpich_growth = t[("PiP-MPICH", 4.0)] / t[("PiP-MPICH", 1.0)]
    print(f"\n4x size-sync cost: PiP-MColl {mcoll_growth:.3f}x slower, "
          f"PiP-MPICH {mpich_growth:.3f}x slower")
    assert mpich_growth > mcoll_growth
    assert mcoll_growth < 1.15  # the redesign removed the dependence


@pytest.mark.parametrize("switch_kb", [8, 64, 512])
def test_ablation_allgather_switchpoint(benchmark, switch_kb):
    """§IV-D2's 64 kB switch: probe alternatives around it."""

    def study():
        lib = PiPMColl(Thresholds(allgather_large_bytes=switch_kb * KB))
        scale = current_scale()
        world = lib.make_world(
            Topology(scale.nodes, scale.ppn), bebop_broadwell(), phantom=True
        )
        times = {}
        for nbytes in (16 * KB, 64 * KB, 256 * KB):
            times[nbytes] = _lib_time(lib, world, "allgather", nbytes)
        return times

    times = benchmark.pedantic(study, rounds=1, iterations=1)
    pretty = {f"{k // KB}kB": f"{v * 1e3:.2f}ms" for k, v in times.items()}
    print(f"\nswitch at {switch_kb}kB -> {pretty}")
    # sanity only: every configuration completes; the recorded tables in
    # results/ show 64 kB is the sweet spot
    assert all(v > 0 for v in times.values())
