"""Library comparison matrix — ``python -m repro.tools.compare``.

One table per invocation: every collective × every requested library at a
fixed cluster shape and message size, normalised to the fastest entry per
row.  The quickest way to see where PiP-MColl's multi-object designs win
and where the classical algorithms hold their own:

    python -m repro.tools.compare --nodes 16 --ppn 6 --size 1kB
"""

from __future__ import annotations

import argparse
import sys
from typing import Dict, List

from repro.baselines.registry import LIBRARY_FACTORIES, library_names
from repro.bench.microbench import COLLECTIVES, run_point
from repro.util.units import fmt_time, parse_size

__all__ = ["main", "build_matrix", "format_matrix"]


def build_matrix(
    libs: List[str], nodes: int, ppn: int, nbytes: int
) -> Dict[str, Dict[str, float]]:
    """collective -> {library -> simulated seconds}, each replayed from
    its compiled schedule (``engine="auto"``; bit-identical to the event
    loop)."""
    matrix: Dict[str, Dict[str, float]] = {}
    for coll in COLLECTIVES:
        matrix[coll] = {
            lib: run_point(lib, coll, nodes, ppn, nbytes, engine="auto").time
            for lib in libs
        }
    return matrix


def format_matrix(
    matrix: Dict[str, Dict[str, float]], libs: List[str]
) -> str:
    width = max(len(lib) for lib in libs) + 2
    lines = [
        f"{'collective':>12} |"
        + "".join(f" {lib:>{width}} |" for lib in libs)
    ]
    lines.append("-" * len(lines[0]))
    for coll, row in matrix.items():
        best = min(row.values())
        cells = []
        for lib in libs:
            marker = "*" if row[lib] == best else " "
            cells.append(f"{fmt_time(row[lib])}{marker}")
        lines.append(
            f"{coll:>12} |" + "".join(f" {c:>{width}} |" for c in cells)
        )
    lines.append("(* = fastest in row)")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.tools.compare", description=__doc__
    )
    parser.add_argument(
        "--libs", default=",".join(library_names()),
        help=f"comma-separated; known: {', '.join(sorted(LIBRARY_FACTORIES))}",
    )
    parser.add_argument("--nodes", type=int, default=8)
    parser.add_argument("--ppn", type=int, default=6)
    parser.add_argument("--size", default="1kB", help="per-process bytes")
    args = parser.parse_args(argv)

    libs = [n.strip() for n in args.libs.split(",") if n.strip()]
    unknown = [n for n in libs if n not in LIBRARY_FACTORIES]
    if unknown:
        parser.error(
            f"unknown libraries {unknown}; known: {sorted(LIBRARY_FACTORIES)}"
        )
    nbytes = parse_size(args.size)

    print(
        f"# all collectives, {args.nodes} nodes x {args.ppn} ppn, "
        f"{args.size} per process, simulated Broadwell+Omni-Path"
    )
    matrix = build_matrix(libs, args.nodes, args.ppn, nbytes)
    print(format_matrix(matrix, libs))
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
