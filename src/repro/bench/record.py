"""Record figure results to disk — ``python -m repro.bench.record``.

Runs the selected figure experiments at the selected scale and writes both
the absolute and the normalised tables to a text file (and stdout).  This
is the tool that produced the measured numbers quoted in EXPERIMENTS.md.

Sweeps execute through :mod:`repro.bench.runner`: points fan out across a
process pool (``--jobs``) and results are memoized in the columnar shard
store under ``.bench_cache/`` (``--no-cache`` to bypass, ``--refresh`` to
recompute and overwrite-by-append).
``--check`` reruns each figure serially with the cache off and asserts the
parallel/cached series are bit-identical — the determinism guarantee CI
leans on.  Figure sweeps run on ``auto``: every point of fig06–fig14
replays its compiled schedule on the DAG fast path, or a sweep's
multi-size column on the batch engine — bit-identical to the event loop
and several times faster; fig01 keeps its own event-loop worlds.
``--engine event`` runs every point on the event loop instead, and
``--engine analytic`` returns closed-form estimates for the pairs that
have them; ``--cache-stats`` reports cache hit/miss/byte counters at the
end.

``--trace out.json --trace-point LIBRARY/COLLECTIVE/NBYTES`` skips the
figure sweeps and instead records one steady-state iteration of a single
point (at the selected scale's shape) into a phase-tagged Chrome/Perfetto
trace — load it at https://ui.perfetto.dev to see the algorithm phases.

Usage::

    python -m repro.bench.record --figures fig09,fig11 --scale paper \
        --jobs 8 --out results/paper_scale.txt
    python -m repro.bench.record --scale small \
        --trace out.json --trace-point PiP-MColl/allreduce/64K
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import List, Optional

from repro.bench.config import SCALES
from repro.bench.figures import ALL_FIGURES, figure_points
from repro.bench.microbench import ENGINES
from repro.bench.report import format_normalized, format_table
from repro.bench.runner import SweepRunner
from repro.bench.runner.pool import _stderr_progress
from repro.sched.analytic import analytic_supported

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.record", description=__doc__
    )
    parser.add_argument(
        "--figures",
        default=",".join(ALL_FIGURES),
        help=f"comma-separated subset of {', '.join(ALL_FIGURES)}",
    )
    parser.add_argument(
        "--scale", default="medium", choices=sorted(SCALES),
        help="cluster scale preset (paper = 128x18, the testbed of §IV-A)",
    )
    parser.add_argument(
        "--out", default=None, help="append results to this file as well"
    )
    parser.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="worker processes for the sweep pool (default: PIPMCOLL_JOBS "
             "or os.cpu_count(); 1 = serial in-process)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="neither read nor write the on-disk result cache",
    )
    parser.add_argument(
        "--refresh", action="store_true",
        help="recompute every point and overwrite its cache entry",
    )
    parser.add_argument(
        "--engine", default=None, choices=ENGINES,
        help="evaluation engine for every point: the coroutine event loop "
             "(authoritative), auto (the DAG or batch replay, "
             "bit-identical to the event loop), or analytic (closed-form "
             "estimates, approximate); default: each point's own "
             "setting, auto for every figure but fig01",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="print one line per completed point to stderr",
    )
    parser.add_argument(
        "--cache-stats", action="store_true",
        help="report result-store hits/misses/bytes (point- and "
             "column-level), shard count, in-memory index size, and "
             "the lowerings made across pool work units after the "
             "figures",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="after each figure, rerun it serially with the cache off and "
             "assert the series are identical (determinism self-test)",
    )
    parser.add_argument(
        "--trace", default=None, metavar="OUT.JSON",
        help="dump a phase-tagged Perfetto trace of one point (requires "
             "--trace-point) instead of running figures",
    )
    parser.add_argument(
        "--trace-point", default=None, metavar="LIB/COLLECTIVE/NBYTES",
        help="the point to trace, e.g. PiP-MColl/allreduce/64K; the shape "
             "comes from --scale",
    )
    args = parser.parse_args(argv)

    scale = SCALES[args.scale]
    if args.trace or args.trace_point:
        if not (args.trace and args.trace_point):
            parser.error("--trace and --trace-point must be used together")
        return _record_trace(args.trace, args.trace_point, scale, parser)
    names = [n.strip() for n in args.figures.split(",") if n.strip()]
    unknown = [n for n in names if n not in ALL_FIGURES]
    if unknown:
        parser.error(f"unknown figures: {unknown}")

    runner = SweepRunner(
        jobs=args.jobs,
        use_cache=False if args.no_cache else None,
        refresh=args.refresh,
        progress=_stderr_progress if args.progress else None,
        engine=args.engine,
    )
    gaps = _uncovered(names, scale, runner.engine)
    if gaps:
        # before any point runs: a gap would otherwise surface as a
        # ValueError traceback from deep inside a worker
        print(f"{parser.prog}: error: engine {runner.engine!r} does not "
              f"cover {', '.join(gaps)}", file=sys.stderr)
        return 2

    out_path = Path(args.out) if args.out else None
    if out_path:
        out_path.parent.mkdir(parents=True, exist_ok=True)

    def emit(text: str) -> None:
        print(text, flush=True)
        if out_path:
            with out_path.open("a") as fh:
                fh.write(text + "\n")

    for name in names:
        t0 = time.time()
        result = ALL_FIGURES[name](scale=scale, runner=runner)
        wall = time.time() - t0
        emit(format_table(result))
        if "PiP-MColl" in result.series:
            emit(format_normalized(result))
            emit(
                f"   best speedup vs fastest other library: "
                f"{result.best_speedup_vs_fastest_other():.2f}x"
            )
        emit(f"   [{name} done in {wall:.1f}s host time]\n")
        if args.check:
            serial = SweepRunner(jobs=1, use_cache=False, engine=args.engine)
            reference = ALL_FIGURES[name](scale=scale, runner=serial)
            if reference.series != result.series:
                emit(f"   [{name} CHECK FAILED: parallel != serial]")
                return 1
            emit(f"   [{name} check ok: parallel/cached == serial]\n")
    if args.cache_stats:
        s = runner.cache.stats()
        emit(
            f"   [cache: {s['hits']} hits, {s['misses']} misses, "
            f"{s['stores']} stores in "
            f"{s['flushes']} flushes, {s['bytes_read']}B read, "
            f"{s['bytes_written']}B written]"
        )
        emit(
            f"   [store: {s['shards']} shards on disk, index "
            f"{s['index_groups']} groups / {s['index_entries']} entries]"
        )
        lo = runner.lowering_totals()
        emit(
            f"   [lowering: {lo['lowerings']} lowerings across "
            f"{lo['units']} work units]"
        )
    return 0


def _uncovered(names, scale, engine: Optional[str]) -> List[str]:
    """``figure:LIBRARY/COLLECTIVE`` for every pair of the figures
    ``names`` that its engine (``engine``, or each point's own) cannot
    evaluate: only ``analytic`` has gaps, since ``auto`` falls back to
    the event loop."""
    gaps = {}
    for name in names:
        for p in figure_points(name, scale) or ():
            if ((engine or p.engine) == "analytic"
                    and not analytic_supported(p.library, p.collective)):
                gaps[f"{name}:{p.library}/{p.collective}"] = None
    return list(gaps)


def _record_trace(out_path: str, spec: str, scale, parser) -> int:
    """Run one point with a tracer attached and dump the Perfetto JSON."""
    from repro.bench.microbench import run_point
    from repro.sim.trace import Tracer

    parts = spec.split("/")
    if len(parts) != 3:
        parser.error(
            f"bad --trace-point {spec!r}; expected LIB/COLLECTIVE/NBYTES"
        )
    library, collective, size_text = parts
    try:
        msg_bytes = _parse_size(size_text)
    except ValueError as exc:
        parser.error(str(exc))

    tracer = Tracer()
    result = run_point(
        library, collective, scale.nodes, scale.ppn, msg_bytes, tracer=tracer
    )
    tracer.dump_chrome_trace(out_path)
    phases = sorted(p or "(untagged)" for p in tracer.by_phase())
    print(
        f"traced {library} {collective} {scale.nodes}x{scale.ppn} "
        f"{msg_bytes}B: {result.time * 1e6:.2f}us simulated, "
        f"{len(tracer.events)} spans -> {out_path}"
    )
    print(f"   phases: {', '.join(phases)}")
    return 0


def _parse_size(text: str) -> int:
    """Parse ``64K``-style sizes (K/M suffix, base 1024)."""
    raw = text.strip().upper()
    factor = 1
    if raw.endswith(("K", "M")):
        factor = 1024 if raw.endswith("K") else 1024**2
        raw = raw[:-1]
    try:
        value = int(raw) * factor
    except ValueError:
        raise ValueError(f"bad message size {text!r}") from None
    if value < 1:
        raise ValueError(f"message size must be positive, got {text!r}")
    return value


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
