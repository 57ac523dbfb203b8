"""Measure the analytic tier's error against the exact engines.

``python -m repro.models.calibrate`` sweeps the calibration grid (every
pair of :data:`repro.sched.analytic.ANALYTIC_PAIRS` over representative
node shapes and message sizes), evaluates each point on both the DAG fast path (exact
— bit-identical to the event loop) and the analytic closed forms, and
writes the relative-error distribution to ``results/analytic_error.json``.

The JSON is the provenance for the analytic tier's accuracy contract: the
documented bound is :data:`repro.sched.analytic.ERROR_BOUND`, and
``tests/sched/test_analytic.py`` asserts the measured maximum stays below
it.  The process exits nonzero if the bound is violated, so CI can run
this module directly as the error-bound suite.

Usage::

    python -m repro.models.calibrate                   # full grid
    python -m repro.models.calibrate --quick           # CI-sized subset
    python -m repro.models.calibrate --out path.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = ["calibration_grid", "measure_errors", "write_error_report", "main"]

#: node shapes of the calibration sweep (nodes, ppn)
SHAPES = ((2, 4), (4, 8), (2, 16))

#: per-process message sizes, spanning eager/rendezvous and every
#: algorithm-switch regime of the registry
SIZES = (512, 4096, 16384, 65536, 262144)

QUICK_SHAPES = ((2, 4), (2, 8))
QUICK_SIZES = (512, 16384, 262144)


def calibration_grid(
    quick: bool = False,
) -> List[Tuple[str, str, int, int, int]]:
    """The (library, collective, nodes, ppn, msg_bytes) calibration grid,
    over the pairs the analytic tier has closed forms for."""
    from repro.sched.analytic import ANALYTIC_PAIRS

    shapes = QUICK_SHAPES if quick else SHAPES
    sizes = QUICK_SIZES if quick else SIZES
    return [
        (lib, coll, nodes, ppn, nbytes)
        for lib, coll in ANALYTIC_PAIRS
        for nodes, ppn in shapes
        for nbytes in sizes
    ]


def measure_errors(
    grid: Optional[Sequence[Tuple[str, str, int, int, int]]] = None,
    quick: bool = False,
) -> Dict:
    """Relative error of the analytic tier vs the DAG engine, per pair.

    Returns the JSON-able report document (see module docstring).
    """
    from repro.sched.analytic import ERROR_BOUND
    from repro.sched.analytic import evaluate_point as analytic_point
    from repro.sched.fastpath import evaluate_point as dag_point

    if grid is None:
        grid = calibration_grid(quick=quick)
    per_pair: Dict[str, List[Dict]] = {}
    for lib, coll, nodes, ppn, nbytes in grid:
        exact = dag_point(lib, coll, nodes, ppn, nbytes)
        t_exact = exact.samples[-1]
        est = analytic_point(lib, coll, nodes, ppn, nbytes)
        rel = abs(est.time / t_exact - 1.0)
        per_pair.setdefault(f"{lib}/{coll}", []).append({
            "nodes": nodes,
            "ppn": ppn,
            "msg_bytes": nbytes,
            "exact_s": t_exact,
            "analytic_s": est.time,
            "rel_err": rel,
        })
    pairs = {}
    all_errs: List[float] = []
    for key, rows in sorted(per_pair.items()):
        errs = [r["rel_err"] for r in rows]
        all_errs.extend(errs)
        pairs[key] = {
            "points": len(rows),
            "max_rel_err": max(errs),
            "median_rel_err": statistics.median(errs),
            "rows": rows,
        }
    return {
        "report": "analytic-tier-error-vs-dag-engine",
        "bound": ERROR_BOUND,
        "grid_points": len(all_errs),
        "overall": {
            "max_rel_err": max(all_errs),
            "median_rel_err": statistics.median(all_errs),
        },
        "within_bound": max(all_errs) < ERROR_BOUND,
        "pairs": pairs,
    }


def write_error_report(
    out: Optional[Path] = None, quick: bool = False
) -> Dict:
    """Measure, persist to ``results/analytic_error.json``, return doc."""
    doc = measure_errors(quick=quick)
    if out is None:
        out = Path("results") / "analytic_error.json"
    out = Path(out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=2) + "\n")
    return doc


def format_summary(doc: Dict) -> str:
    lines = [
        f"analytic-tier error vs dag over {doc['grid_points']} grid points "
        f"(documented bound {doc['bound']:.0%}):"
    ]
    for key, pair in doc["pairs"].items():
        lines.append(
            f"  {key:<28} max {pair['max_rel_err']:6.1%}  "
            f"median {pair['median_rel_err']:6.1%}  "
            f"({pair['points']} pts)"
        )
    o = doc["overall"]
    lines.append(
        f"  overall: max {o['max_rel_err']:.1%}, "
        f"median {o['median_rel_err']:.1%} -> "
        + ("WITHIN BOUND" if doc["within_bound"] else "BOUND VIOLATED")
    )
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.models.calibrate", description=__doc__
    )
    parser.add_argument(
        "--out", default=None,
        help="output JSON path (default: results/analytic_error.json)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="smaller grid for CI (fewer shapes/sizes, same pairs)",
    )
    args = parser.parse_args(argv)
    doc = write_error_report(
        out=Path(args.out) if args.out else None, quick=args.quick
    )
    print(format_summary(doc))
    out = args.out or "results/analytic_error.json"
    print(f"wrote {out}")
    return 0 if doc["within_bound"] else 1


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
