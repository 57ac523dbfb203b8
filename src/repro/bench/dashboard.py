"""Cross-run regression dashboard — ``python -m repro.bench.dashboard``.

``benchmarks/bench_speed.py`` commits one document, ``BENCH_speed.json``:
one row per (column, route) and an ``aggregate`` block with each route's
cold and warm points/sec.  This tool lines those figures up *across
commits*: it walks the file's git history, prints each route's cold and
warm trajectory, and flags a regression when the working tree value
drops below ``--threshold`` (default 0.8) times the best committed value.

Usage::

    python -m repro.bench.dashboard                  # table + trajectories
    python -m repro.bench.dashboard --check          # exit 1 on regression
    python -m repro.bench.dashboard --commits 0      # working tree only

Outside a git checkout (or with ``--commits 0``) the dashboard degrades
to a plain table of current values.  ``bench_speed.py --smoke`` is the
hard CI gate; this tool is the cross-commit view a human reads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["main", "route_metrics", "BENCH_NAME"]

BENCH_NAME = "BENCH_speed.json"


def route_metrics(doc: dict) -> Dict[str, float]:
    """``{"<route> cold" | "<route> warm": points/sec}`` for every route
    in a ``BENCH_speed.json`` document's ``aggregate`` block."""
    agg = doc.get("aggregate")
    if not isinstance(agg, dict) or not agg:
        raise ValueError("no aggregate block")
    try:
        return {
            f"{route} {phase}": float(block[f"{phase}_points_per_sec"])
            for route, block in agg.items()
            for phase in ("cold", "warm")
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed aggregate block: {exc!r}") from None


def _git(args: List[str], cwd: Path) -> Optional[str]:
    try:
        res = subprocess.run(
            ["git", *args], cwd=cwd, capture_output=True, text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout if res.returncode == 0 else None


def file_history(
    directory: Path, name: str, limit: int
) -> List[Tuple[str, str, dict]]:
    """``(short_sha, date, doc)`` per committed revision, newest first."""
    if limit <= 0:
        return []
    log = _git(
        ["log", "--format=%h %cs", "-n", str(limit), "--", name], directory
    )
    if not log:
        return []
    out = []
    for line in log.splitlines():
        parts = line.split(maxsplit=1)
        if len(parts) != 2:
            continue
        sha, date = parts
        # ./ anchors the path at the cwd, not the repository toplevel
        raw = _git(["show", f"{sha}:./{name}"], directory)
        if raw is None:
            continue
        try:
            out.append((sha, date, json.loads(raw)))
        except ValueError:
            continue
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.dashboard", description=__doc__
    )
    parser.add_argument(
        "--dir", default=".", metavar="PATH",
        help=f"directory holding {BENCH_NAME} (default: .)",
    )
    parser.add_argument(
        "--commits", type=int, default=8, metavar="N",
        help="git revisions of the file to include (0 = working tree "
             "only; default 8)",
    )
    parser.add_argument(
        "--threshold", type=float, default=0.8,
        help="flag a regression when the working-tree value is below "
             "THRESHOLD x the best committed value (default 0.8)",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit 1 if any route regressed (CI/cron mode)",
    )
    args = parser.parse_args(argv)

    directory = Path(args.dir)
    path = directory / BENCH_NAME
    if not path.exists():
        print(f"no {BENCH_NAME} under {directory}", file=sys.stderr)
        return 2
    try:
        current = route_metrics(json.loads(path.read_text()))
    except (OSError, ValueError) as exc:
        print(f"{BENCH_NAME}: unreadable ({exc})", file=sys.stderr)
        return 1

    history = []
    for sha, date, old in file_history(directory, BENCH_NAME, args.commits):
        try:
            history.append((sha, date, route_metrics(old)))
        except ValueError:
            continue

    regressions = []
    print(f"{BENCH_NAME}  [aggregate points/sec per route]")
    for metric, value in current.items():
        print(metric)
        print(f"  working tree: {value:12.1f} pts/s")
        trail = [(sha, date, old[metric]) for sha, date, old in history
                 if metric in old]
        for sha, date, old_value in trail:
            print(f"  {sha} {date}: {old_value:12.1f} pts/s")
        if not trail:
            print("  (no committed history)")
            continue
        best_prior = max(old_value for _, _, old_value in trail)
        if value < args.threshold * best_prior:
            print(
                f"  REGRESSION: {value:.1f} < "
                f"{args.threshold:.2f} x best committed ({best_prior:.1f})"
            )
            regressions.append(metric)
        else:
            print(
                f"  ok: within {args.threshold:.2f}x of best committed "
                f"({best_prior:.1f})"
            )

    if regressions:
        print(f"regressed: {', '.join(regressions)}")
        return 1 if args.check else 0
    print("all routes within threshold")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
