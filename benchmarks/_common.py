"""Shared plumbing for the figure benchmarks.

Each ``bench_figXX_*.py`` regenerates one evaluation figure of the paper:
it runs the figure's sweep once inside pytest-benchmark (so
``pytest benchmarks/ --benchmark-only`` times the full regeneration),
prints the absolute and normalised tables, writes them under
``results/``, and asserts the figure's headline *shape* (who wins where).

Sweep points execute through :mod:`repro.bench.runner`, so the usual env
knobs apply here too: ``PIPMCOLL_JOBS`` fans points out across a process
pool, ``PIPMCOLL_CACHE=0`` disables the ``.bench_cache/`` memoization, and
``PIPMCOLL_PROGRESS=1`` prints per-point progress to stderr.  Results are
bit-identical in every mode.  Note that with the cache warm, the benchmark
times the cache, not the simulator — pass ``PIPMCOLL_CACHE=0`` (or use
``--refresh`` via ``repro.bench.record``) when timing regenerations.

Scale is controlled by ``PIPMCOLL_SCALE`` (default ``medium``; see
``repro.bench.config``).
"""

from __future__ import annotations

from pathlib import Path

from repro.bench.config import current_scale
from repro.bench.report import FigureResult, format_normalized, format_table
from repro.bench.runner import SweepRunner

RESULTS_DIR = Path(__file__).resolve().parent.parent / "results"


def run_figure(benchmark, figure_fn, cap: float | None = None) -> FigureResult:
    """Run one figure sweep under pytest-benchmark and persist its tables."""
    runner = SweepRunner()
    result = benchmark.pedantic(
        lambda: figure_fn(runner=runner), rounds=1, iterations=1
    )
    text = format_table(result)
    if "PiP-MColl" in result.series:
        text += "\n" + format_normalized(result, cap=cap)
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"bench_{result.fig_id}_{current_scale().name}.txt"
    out.write_text(text + "\n")
    print("\n" + text)
    return result


def at_least_medium_scale() -> bool:
    """Some orderings only emerge beyond toy scale (see EXPERIMENTS.md)."""
    return current_scale().name != "small"
