"""OSU-microbenchmark-style CLI — ``python -m repro.tools.osu``.

Prints an `osu_allreduce`-like latency table for any collective and any
set of modelled libraries on a simulated cluster:

    python -m repro.tools.osu --collective allreduce \
        --libs PiP-MColl,IntelMPI --nodes 16 --ppn 6 \
        --min-size 16 --max-size 64kB

Sizes sweep in powers of two between ``--min-size`` and ``--max-size``
(inclusive); output is one row per size, one latency column per library —
the format cluster folks already know how to read.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterator, List

from repro.baselines.registry import LIBRARY_FACTORIES
from repro.bench.microbench import COLLECTIVES, run_point
from repro.util.units import fmt_size, parse_size

__all__ = ["main", "sweep_sizes", "latency_rows"]


def sweep_sizes(min_size: int, max_size: int) -> List[int]:
    """Power-of-two sweep from min_size to max_size inclusive."""
    if min_size < 1:
        raise ValueError(f"min size must be >= 1, got {min_size}")
    if max_size < min_size:
        raise ValueError(
            f"max size {max_size} smaller than min size {min_size}"
        )
    sizes = []
    s = min_size
    while s <= max_size:
        sizes.append(s)
        s *= 2
    if sizes[-1] != max_size:
        sizes.append(max_size)
    return sizes


def latency_rows(collective: str, libs: List[str], nodes: int, ppn: int,
                 sizes: List[int]) -> Iterator[List[float]]:
    """One row per size: each library's simulated seconds, replayed from
    its compiled schedule (``engine="auto"``; bit-identical to the event
    loop)."""
    for nbytes in sizes:
        yield [
            run_point(lib, collective, nodes, ppn, nbytes, engine="auto").time
            for lib in libs
        ]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.osu", description=__doc__
    )
    parser.add_argument(
        "--collective", default="allreduce", choices=sorted(COLLECTIVES)
    )
    parser.add_argument(
        "--libs", default="PiP-MColl,PiP-MPICH,IntelMPI",
        help=f"comma-separated; known: {', '.join(sorted(LIBRARY_FACTORIES))}",
    )
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--ppn", type=int, default=6)
    parser.add_argument("--min-size", default="16")
    parser.add_argument("--max-size", default="64kB")
    args = parser.parse_args(argv)

    libs = [name.strip() for name in args.libs.split(",") if name.strip()]
    unknown = [n for n in libs if n not in LIBRARY_FACTORIES]
    if unknown:
        parser.error(
            f"unknown libraries {unknown}; known: {sorted(LIBRARY_FACTORIES)}"
        )
    sizes = sweep_sizes(parse_size(args.min_size), parse_size(args.max_size))

    print(f"# OSU-style {args.collective} latency, "
          f"{args.nodes} nodes x {args.ppn} ppn "
          f"({args.nodes * args.ppn} ranks), simulated Broadwell+Omni-Path")
    header = f"{'# Size':>10}" + "".join(f" {lib:>16}" for lib in libs)
    print(header)
    rows = latency_rows(args.collective, libs, args.nodes, args.ppn, sizes)
    for nbytes, times in zip(sizes, rows):
        cells = [f"{t * 1e6:14.2f}us" for t in times]
        print(f"{fmt_size(nbytes):>10}" + "".join(f" {c:>16}" for c in cells))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
