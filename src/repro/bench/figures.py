"""One experiment definition per evaluation figure of the paper.

Every function regenerates the rows/series of the corresponding figure in
§IV (times per library per x-axis point) at the active
:class:`~repro.bench.config.BenchScale`.  Figures 2-5 are design diagrams,
not measurements, and have no bench.

Message-size axes follow the paper exactly; at reduced scales only the
cluster shape changes (see ``config``).

Execution goes through :mod:`repro.bench.runner`: every sweep expands into
declarative :class:`~repro.bench.runner.Point` specs and is submitted to a
:class:`~repro.bench.runner.SweepRunner` — parallel across a process pool
and memoized on disk, with results bit-identical to the old serial loops.
The points ask for the ``auto`` engine (a runner's ``engine=`` overrides
it); fig01 builds its own event-loop worlds.
Pass ``runner=`` to control jobs/caching programmatically, or use the
``PIPMCOLL_JOBS`` / ``PIPMCOLL_CACHE`` environment knobs (see the runner
module docs and ``python -m repro.bench.record --help``).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.registry import library_names
from repro.bench.config import BenchScale, current_scale
from repro.bench.report import FigureResult
from repro.bench.runner import Point, SweepRunner, expand_sweep, run_points
from repro.hw.params import MachineParams, bebop_broadwell
from repro.hw.topology import Topology
from repro.mpi.buffer import Buffer
from repro.mpi.runtime import World
from repro.shmem.mechanisms import PipShmem
from repro.util.units import KB, fmt_size

__all__ = [
    "figure_points",
    "fig01_multiobject_p2p",
    "fig06_scatter_scaling",
    "fig07_allgather_scaling",
    "fig08_allreduce_scaling",
    "fig09_scatter_small",
    "fig10_allgather_small",
    "fig11_allreduce_small",
    "fig12_scatter_large",
    "fig13_allgather_large",
    "fig14_allreduce_large",
    "ALL_FIGURES",
]

SMALL_SIZES = [16, 32, 64, 128, 256, 512]
LARGE_SIZES = [KB * (1 << i) for i in range(10)]  # 1 kB .. 512 kB
DOUBLE = 8
SMALL_COUNTS = [2, 4, 8, 16, 32, 64]  # doubles: 16 B .. 512 B
LARGE_COUNTS = [1024 * (1 << i) for i in range(10)]  # 1 k .. 512 k doubles


def _sweep_points(
    collective: str,
    sizes: Sequence[int],
    libs: Sequence[str],
    scale: BenchScale,
    params: Optional[MachineParams],
    nodes: Optional[int] = None,
) -> List[Point]:
    return expand_sweep(
        collective, sizes, libs, nodes or scale.nodes, scale.ppn, params,
        engine="auto",
    )


def _node_sweep_points(
    collective: str,
    nbytes: int,
    libs: Sequence[str],
    scale: BenchScale,
    params: Optional[MachineParams],
) -> List[Point]:
    return [
        Point(lib, collective, nodes, scale.ppn, nbytes, params=params,
              engine="auto")
        for nodes in scale.node_sweep
        for lib in libs
    ]


def _series_from(
    points: Sequence[Point],
    libs: Sequence[str],
    runner: Optional[SweepRunner],
) -> Dict[str, List[float]]:
    results = run_points(points, runner)
    series: Dict[str, List[float]] = {lib: [] for lib in libs}
    for point, r in zip(points, results):
        series[point.library].append(r.time)
    return series


def _sweep(
    collective: str,
    sizes: Sequence[int],
    libs: Sequence[str],
    scale: BenchScale,
    params: Optional[MachineParams],
    nodes: Optional[int] = None,
    runner: Optional[SweepRunner] = None,
) -> Dict[str, List[float]]:
    points = _sweep_points(collective, sizes, libs, scale, params, nodes)
    return _series_from(points, libs, runner)


def _node_sweep(
    collective: str,
    nbytes: int,
    libs: Sequence[str],
    scale: BenchScale,
    params: Optional[MachineParams],
    runner: Optional[SweepRunner] = None,
) -> Dict[str, List[float]]:
    points = _node_sweep_points(collective, nbytes, libs, scale, params)
    return _series_from(points, libs, runner)


def _meta(scale: BenchScale, **extra) -> Dict[str, str]:
    m = {"scale": scale.name, "shape": f"{scale.nodes}x{scale.ppn}"}
    m.update({k: str(v) for k, v in extra.items()})
    return m


# ---------------------------------------------------------------------------
# Fig. 1 — internode p2p message rate / throughput vs #senders+receivers
# ---------------------------------------------------------------------------

def fig01_multiobject_p2p(
    scale: Optional[BenchScale] = None,
    params: Optional[MachineParams] = None,
    messages_per_sender: int = 64,
    runner: Optional[SweepRunner] = None,  # accepted for API uniformity;
    # this figure builds custom p2p worlds, which stay serial in-process
) -> FigureResult:
    """Fig. 1: 2 nodes, 1..ppn concurrent sender/receiver pairs.

    Series (not times): ``msgrate_4kB`` in messages/s and
    ``throughput_128kB`` in bytes/s — the two panels of the figure.
    """
    scale = scale or current_scale()
    params = params or bebop_broadwell()
    ppn = max(scale.ppn, 18)  # the figure sweeps up to 18 pairs
    xs = list(range(1, ppn + 1))
    rate_series: List[float] = []
    bw_series: List[float] = []

    for nbytes, out in ((4 * KB, rate_series), (128 * KB, bw_series)):
        for k in xs:
            world = World(
                Topology(2, ppn), params, mechanism=PipShmem(), phantom=True
            )
            sends = [Buffer.phantom(nbytes) for _ in range(k)]
            recvs = [Buffer.phantom(nbytes) for _ in range(k)]

            def body(ctx, k=k, sends=sends, recvs=recvs):
                if ctx.node == 0 and ctx.local_rank < k:
                    reqs = []
                    for _ in range(messages_per_sender):
                        req = yield from ctx.isend(
                            ctx.rank_of(1, ctx.local_rank),
                            sends[ctx.local_rank],
                            tag=7,
                        )
                        reqs.append(req)
                    yield from ctx.waitall(reqs)
                elif ctx.node == 1 and ctx.local_rank < k:
                    reqs = [
                        ctx.irecv(
                            ctx.rank_of(0, ctx.local_rank),
                            recvs[ctx.local_rank],
                            tag=7,
                        )
                        for _ in range(messages_per_sender)
                    ]
                    yield from ctx.waitall(reqs)

            elapsed = world.run(body).elapsed
            total_msgs = k * messages_per_sender
            if nbytes == 4 * KB:
                out.append(total_msgs / elapsed)
            else:
                out.append(total_msgs * nbytes / elapsed)

    return FigureResult(
        fig_id="fig01",
        title="Internode p2p with multiple senders/receivers (Omni-Path model)",
        xlabel="#sender/receiver pairs",
        xs=xs,
        series={"msgrate_4kB[msg/s]": rate_series,
                "throughput_128kB[B/s]": bw_series},
        notes="series are rates, not times: higher is better",
        meta={"nodes": "2", "ppn": str(ppn)},
    )


# ---------------------------------------------------------------------------
# Figs. 6-8 — scalability vs node count (PiP-MColl vs PiP-MPICH)
# ---------------------------------------------------------------------------

def _scaling_figure(
    fig_id: str, collective: str, small_bytes: int, medium_bytes: int,
    small_label: str, medium_label: str,
    scale: Optional[BenchScale], params: Optional[MachineParams],
    runner: Optional[SweepRunner] = None,
) -> FigureResult:
    scale = scale or current_scale()
    libs = ["PiP-MColl", "PiP-MPICH"]
    small = _node_sweep(collective, small_bytes, libs, scale, params, runner)
    medium = _node_sweep(collective, medium_bytes, libs, scale, params, runner)
    series = {
        f"{lib} @{small_label}": small[lib] for lib in libs
    }
    series.update({f"{lib} @{medium_label}": medium[lib] for lib in libs})
    return FigureResult(
        fig_id=fig_id,
        title=f"MPI_{collective.capitalize()} vs node count",
        xlabel="nodes",
        xs=list(scale.node_sweep),
        series=series,
        meta=_meta(scale, ppn=scale.ppn),
    )


def fig06_scatter_scaling(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 6: MPI_Scatter, 16 B and 1 kB, increasing node counts."""
    return _scaling_figure(
        "fig06", "scatter", 16, 1 * KB, "16B", "1kB", scale, params, runner
    )


def fig07_allgather_scaling(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 7: MPI_Allgather, 16 B and 1 kB, increasing node counts."""
    return _scaling_figure(
        "fig07", "allgather", 16, 1 * KB, "16B", "1kB", scale, params, runner
    )


def fig08_allreduce_scaling(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 8: MPI_Allreduce, 16 and 1 k doubles, increasing node counts."""
    return _scaling_figure(
        "fig08", "allreduce", 16 * DOUBLE, 1024 * DOUBLE, "16dbl", "1kdbl",
        scale, params, runner,
    )


# ---------------------------------------------------------------------------
# Figs. 9-11 — small messages, all five libraries
# ---------------------------------------------------------------------------

def fig09_scatter_small(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 9: MPI_Scatter, 16-512 B per process, five libraries."""
    scale = scale or current_scale()
    libs = library_names()
    series = _sweep("scatter", SMALL_SIZES, libs, scale, params, runner=runner)
    return FigureResult(
        "fig09", "MPI_Scatter, small message sizes", "msgsize",
        [fmt_size(s) for s in SMALL_SIZES], series, meta=_meta(scale),
    )


def fig10_allgather_small(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 10: MPI_Allgather, 16-512 B per process, five libraries."""
    scale = scale or current_scale()
    libs = library_names()
    series = _sweep("allgather", SMALL_SIZES, libs, scale, params, runner=runner)
    return FigureResult(
        "fig10", "MPI_Allgather, small message sizes", "msgsize",
        [fmt_size(s) for s in SMALL_SIZES], series, meta=_meta(scale),
    )


def fig11_allreduce_small(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 11: MPI_Allreduce, small double counts, five libraries."""
    scale = scale or current_scale()
    libs = library_names()
    sizes = [c * DOUBLE for c in SMALL_COUNTS]
    series = _sweep("allreduce", sizes, libs, scale, params, runner=runner)
    return FigureResult(
        "fig11", "MPI_Allreduce, small double counts", "count",
        [str(c) for c in SMALL_COUNTS], series, meta=_meta(scale),
    )


# ---------------------------------------------------------------------------
# Figs. 12-14 — medium/large messages
# ---------------------------------------------------------------------------

def fig12_scatter_large(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 12: MPI_Scatter, 1-512 kB (same algorithm as small sizes)."""
    scale = scale or current_scale()
    libs = library_names()
    series = _sweep("scatter", LARGE_SIZES, libs, scale, params, runner=runner)
    return FigureResult(
        "fig12", "MPI_Scatter, medium and large message sizes", "msgsize",
        [fmt_size(s) for s in LARGE_SIZES], series, meta=_meta(scale),
    )


def fig13_allgather_large(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 13: MPI_Allgather, 1-512 kB, incl. the PiP-MColl-small variant
    (algorithm switch at 64 kB)."""
    scale = scale or current_scale()
    libs = library_names(include_variants=True)
    series = _sweep("allgather", LARGE_SIZES, libs, scale, params, runner=runner)
    return FigureResult(
        "fig13", "MPI_Allgather, medium and large message sizes", "msgsize",
        [fmt_size(s) for s in LARGE_SIZES], series,
        notes="PiP-MColl switches to the ring algorithm at 64kB",
        meta=_meta(scale),
    )


def fig14_allreduce_large(scale=None, params=None, runner=None) -> FigureResult:
    """Fig. 14: MPI_Allreduce, 1 k-512 k double counts, incl. the
    PiP-MColl-small variant (algorithm switch at 8 k counts = 64 kB)."""
    scale = scale or current_scale()
    libs = library_names(include_variants=True)
    sizes = [c * DOUBLE for c in LARGE_COUNTS]
    series = _sweep("allreduce", sizes, libs, scale, params, runner=runner)
    return FigureResult(
        "fig14", "MPI_Allreduce, medium and large double counts", "count",
        [f"{c // 1024}k" for c in LARGE_COUNTS], series,
        notes="PiP-MColl switches to reduce-scatter+ring at 8k counts",
        meta=_meta(scale),
    )


ALL_FIGURES = {
    "fig01": fig01_multiobject_p2p,
    "fig06": fig06_scatter_scaling,
    "fig07": fig07_allgather_scaling,
    "fig08": fig08_allreduce_scaling,
    "fig09": fig09_scatter_small,
    "fig10": fig10_allgather_small,
    "fig11": fig11_allreduce_small,
    "fig12": fig12_scatter_large,
    "fig13": fig13_allgather_large,
    "fig14": fig14_allreduce_large,
}


# ---------------------------------------------------------------------------
# Declarative point lists
# ---------------------------------------------------------------------------

def _scaling_points(collective, small_bytes, medium_bytes, scale, params):
    libs = ["PiP-MColl", "PiP-MPICH"]
    return (
        _node_sweep_points(collective, small_bytes, libs, scale, params)
        + _node_sweep_points(collective, medium_bytes, libs, scale, params)
    )


#: per-figure point providers, built from the same helpers the figure
#: bodies sweep with, so the declarative list cannot drift from the
#: figure's actual cache traffic.  ``None``: not point-backed (fig01
#: builds custom p2p worlds and never touches the result store).
_FIGURE_POINTS = {
    "fig01": None,
    "fig06": lambda scale, params: _scaling_points(
        "scatter", 16, 1 * KB, scale, params),
    "fig07": lambda scale, params: _scaling_points(
        "allgather", 16, 1 * KB, scale, params),
    "fig08": lambda scale, params: _scaling_points(
        "allreduce", 16 * DOUBLE, 1024 * DOUBLE, scale, params),
    "fig09": lambda scale, params: _sweep_points(
        "scatter", SMALL_SIZES, library_names(), scale, params),
    "fig10": lambda scale, params: _sweep_points(
        "allgather", SMALL_SIZES, library_names(), scale, params),
    "fig11": lambda scale, params: _sweep_points(
        "allreduce", [c * DOUBLE for c in SMALL_COUNTS],
        library_names(), scale, params),
    "fig12": lambda scale, params: _sweep_points(
        "scatter", LARGE_SIZES, library_names(), scale, params),
    "fig13": lambda scale, params: _sweep_points(
        "allgather", LARGE_SIZES,
        library_names(include_variants=True), scale, params),
    "fig14": lambda scale, params: _sweep_points(
        "allreduce", [c * DOUBLE for c in LARGE_COUNTS],
        library_names(include_variants=True), scale, params),
}


def figure_points(
    name: str,
    scale: Optional[BenchScale] = None,
    params: Optional[MachineParams] = None,
) -> Optional[List[Point]]:
    """The declarative :class:`Point` list backing a figure at ``scale``.

    ``None`` for figures that are not point-backed (fig01).
    ``repro.bench.record`` checks its engine's coverage of these points
    before any figure runs; the speed benchmarks sweep them.
    """
    if name not in ALL_FIGURES:
        raise KeyError(f"unknown figure {name!r}")
    provider = _FIGURE_POINTS[name]
    if provider is None:
        return None
    return provider(scale or current_scale(), params)
