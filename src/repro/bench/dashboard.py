"""Cross-run regression dashboard — ``python -m repro.bench.dashboard``.

``benchmarks/bench_speed.py`` commits one document, ``BENCH_speed.json``:
one row per (column, route) and an ``aggregate`` block with each route's
cold and warm points/sec.  This tool lines those figures up *across
commits*: it walks the file's git history and prints each route's cold
and warm trajectory.

The check is host-neutral.  Points/sec scale with the host, so a
document regenerated on a slower machine reads lower on every route.
Against each committed document, each route's speed-up in the working
tree is therefore read over the *median* route's speed-up in the same
phase (:func:`relative_speedups`): host speed scales every route alike
and cancels, and the median moves little when any one route moves,
however far (a route that got four times faster, or the event loop
alone getting faster, leaves the others where they were).  A
route regresses when that relative speed-up falls below ``--threshold``
(default 0.8) against any committed document, that is, when it fell
behind the median route by more than ``1 - threshold`` since then.  A
document is read against another only where they share at least
:data:`MIN_ROUTES` routes in a phase.

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
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Tuple

__all__ = ["main", "route_metrics", "relative_speedups", "BENCH_NAME",
           "MIN_ROUTES"]

BENCH_NAME = "BENCH_speed.json"

#: routes per phase the check needs: the median of fewer moves with the
#: one route it is meant to catch
MIN_ROUTES = 3


def route_metrics(doc: dict) -> Dict[str, float]:
    """``{"<route> cold" | "<route> warm": points/sec}`` for every route
    in a ``BENCH_speed.json`` document's ``aggregate`` block."""
    agg = doc.get("aggregate")
    if not isinstance(agg, dict) or not agg:
        raise ValueError("no aggregate block")
    try:
        metrics = {
            f"{route} {phase}": float(block[f"{phase}_points_per_sec"])
            for route, block in agg.items()
            for phase in ("cold", "warm")
        }
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed aggregate block: {exc!r}") from None
    if not all(value > 0 for value in metrics.values()):
        raise ValueError(f"points/sec must be positive: {metrics}")
    return metrics


def relative_speedups(
    current: Dict[str, float], old: Dict[str, float]
) -> Dict[str, float]:
    """Each metric's speed-up from ``old`` to ``current`` (both
    :func:`route_metrics`) over the median speed-up of the routes in
    the same phase, for the phases in which both documents hold at least
    :data:`MIN_ROUTES` routes.

    1.0 is a route that kept pace with the median route; a uniformly
    faster or slower host leaves every value at 1.0."""
    out = {}
    for phase in ("cold", "warm"):
        speedups = {
            metric: value / old[metric] for metric, value in current.items()
            if metric.endswith(f" {phase}") and metric in old
        }
        if len(speedups) >= MIN_ROUTES:
            host = statistics.median(speedups.values())
            out.update((metric, up / host) for metric, up in speedups.items())
    return out


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
        help="flag a regression when a route's working-tree speed-up "
             "since a committed document is below THRESHOLD x the median "
             "route's in the same phase (default 0.8)",
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
    routes = len(current) // 2
    if routes < MIN_ROUTES:
        print(f"{BENCH_NAME}: {routes} routes; reading host speed needs at "
              f"least {MIN_ROUTES}", file=sys.stderr)
        return 1

    history = []
    for sha, date, old in file_history(directory, BENCH_NAME, args.commits):
        try:
            metrics = route_metrics(old)
        except ValueError:
            continue
        history.append((sha, date, metrics, relative_speedups(current,
                                                              metrics)))

    regressions = []
    print(f"{BENCH_NAME}  [aggregate points/sec per route; since each "
          f"committed document, the route's speed-up over the median "
          f"route's in the same phase]")
    for metric, value in current.items():
        print(metric)
        print(f"  working tree: {value:12.1f} pts/s")
        trail = [(sha, date, old[metric], speedups.get(metric))
                 for sha, date, old, speedups in history if metric in old]
        for sha, date, old_value, relative in trail:
            since = "" if relative is None else f"  {relative:7.3f}x median"
            print(f"  {sha} {date}: {old_value:12.1f} pts/s{since}")
        compared = [(relative, sha) for sha, _, _, relative in trail
                    if relative is not None]
        if not compared:
            print("  (no committed history)")
            continue
        worst, sha = min(compared)
        if worst < args.threshold:
            print(f"  REGRESSION: {worst:.3f}x the median route's speed-up "
                  f"since {sha}, under {args.threshold:.2f}")
            regressions.append(metric)
        else:
            print(f"  ok: within {args.threshold:.2f}x of the median "
                  f"route's speed-up since every committed document "
                  f"(worst {worst:.3f}x, since {sha})")

    if regressions:
        print(f"regressed: {', '.join(regressions)}")
        return 1 if args.check else 0
    print("all routes within threshold")
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
