"""Engine speed benchmark: every evaluation route on every committed column.

One route table, run by one loop, into one document (``BENCH_speed.json``
at the repository root).  A *route* is one way to evaluate a
message-size column:

============  ===========================================================
``event``     ``run_point(engine="event")`` per size — the reference
``dag``       ``run_point(engine="dag")`` per size
``batch``     one ``evaluate_column`` call
``analytic``  one ``evaluate_axis`` call (approximate; dense and smoke
              columns only)
``auto``      ``SweepRunner(jobs=1, use_cache=False)`` on ``auto`` points
``store``     read the column back from the columnar shard store
``json``      read it back from the pre-1.4.0 one-JSON-file-per-point
              layout (the store's baseline)
``serve``     sweep it through a resident ``python -m repro.serve``
              daemon over a unix socket
============  ===========================================================

Protocol.  The paper's microbenchmark protocol (§IV-A) keeps the warm-up
stage apart from the measured stage; so does this one.  Every
(column, route) pair runs in a fresh child process that imports
everything before the clock starts, then records

* ``cold_s``: the first evaluation, every process-wide cache empty — how
  a figure sweep or the daemon meets a column;
* ``warm_s``: the best of the ``REPS`` repeats that follow — the
  protocol the speed floors below were set on;
* ``digest``: a hash of the per-size samples and message counts.

``store``, ``json`` and ``serve`` evaluate and persist the column (or
start the daemon) before the clock; their cold run is the first read
back (for ``serve``, the first sweep, which the daemon evaluates) and
their warm runs are repeats of it.

Columns are derived, not hand-kept: every multi-size column of the
small-scale figures (:func:`repro.bench.figures.figure_points`), the
five 121-size eighth-octave columns, and the smoke column (PiP-MColl
allgather 2x4 on 33 quarter-octave sizes).  ``store``, ``json`` and
``serve`` run on the smoke column and on dense PiP-MColl allgather 4x8.

Every run applies :func:`check` to its rows:

* the exact routes are bit-identical per column (equal digests);
* ``analytic`` stays below ``ERROR_BOUND`` relative to ``dag``;
* on the smoke column (warm): ``dag`` >= 1.2x ``event``, ``batch`` >=
  1.2x ``dag``, ``analytic`` >= 50x ``dag``, ``store`` >= 2x ``json``,
  and ``batch`` points/sec >= 0.8x the committed aggregate of the dense
  columns' ``batch`` rows;
* ``serve`` evaluates once, and its warm sweep beats the ``auto`` route's
  cold evaluation of the same column by 2x (smoke) or 5x (dense).

Usage::

    python benchmarks/bench_speed.py           # every column -> BENCH_speed.json
    python benchmarks/bench_speed.py --smoke   # the smoke column: the CI gate

(The file matches the ``bench_*.py`` pytest glob but defines no tests; it
is a command-line tool.)
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from functools import partial
from pathlib import Path
from typing import Dict, List, NamedTuple, Tuple

from repro.bench.config import SCALES
from repro.bench.figures import ALL_FIGURES, figure_points
from repro.bench.microbench import run_point
from repro.bench.runner import Point, SweepRunner
from repro.bench.runner.cache import (
    CACHE_EPOCH,
    ResultCache,
    cache_key,
    result_from_doc,
    result_to_doc,
)
from repro.sched.analytic import ERROR_BOUND, evaluate_axis
from repro.sched.batch import evaluate_column
from repro.serve import SweepClient, wait_until_ready

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "BENCH_speed.json"

#: warm repeats after the cold evaluation; ``warm_s`` is their best
REPS = 3


class Column(NamedTuple):
    """One message-size column: a (library, collective, shape) and its axis."""

    #: where the column comes from: a figure name, ``dense`` or ``smoke``
    source: str
    library: str
    collective: str
    nodes: int
    ppn: int
    sizes: Tuple[int, ...]

    @property
    def id(self) -> str:
        return (f"{self.source} {self.library} {self.collective} "
                f"{self.nodes}x{self.ppn}")

    def points(self) -> List[Point]:
        return [Point(self.library, self.collective, self.nodes, self.ppn, s,
                      engine="auto") for s in self.sizes]


#: eighth-octave axis, 16 B .. 512 KB (121 sizes): denser than any figure
#: needs, the regime the batch engine exists for
DENSE_AXIS = tuple(sorted({int(16 * 2 ** (k / 8)) for k in range(121)}))
DENSE = tuple(Column("dense", *spec, DENSE_AXIS) for spec in (
    ("PiP-MColl", "scatter", 4, 8),
    ("PiP-MColl", "allgather", 4, 8),
    ("PiP-MColl", "allreduce", 4, 8),
    ("PiP-MPICH", "allgather", 2, 8),
    ("OpenMPI", "allgather", 2, 16),
))
SMOKE = Column("smoke", "PiP-MColl", "allgather", 2, 4,
               tuple(sorted({int(16 * 2 ** (k / 4)) for k in range(33)})))


def figure_columns() -> List[Column]:
    """Every multi-size column of the small-scale figures, per figure."""
    axes: Dict[tuple, set] = {}
    for name in ALL_FIGURES:
        for p in figure_points(name, SCALES["small"]) or ():
            key = (name, p.library, p.collective, p.nodes, p.ppn)
            axes.setdefault(key, set()).add(p.msg_bytes)
    return [Column(*key, tuple(sorted(sizes)))
            for key, sizes in axes.items() if len(sizes) > 1]


# -- the routes ---------------------------------------------------------------
#
# A route is a context manager over (column, row): setup before the yield,
# which hands the child a zero-argument evaluation returning the column's
# per-size results in axis order; teardown after it.  A route may add
# fields to ``row``.


@contextmanager
def _per_size(col: Column, row: dict, engine: str):
    yield lambda: [
        run_point(col.library, col.collective, col.nodes, col.ppn, s,
                  engine=engine)
        for s in col.sizes
    ]


@contextmanager
def _whole_column(col: Column, row: dict, evaluate_sizes):
    def evaluate():
        res = evaluate_sizes(col.library, col.collective, col.nodes, col.ppn,
                             col.sizes).results
        return [res[s] for s in col.sizes]
    yield evaluate


@contextmanager
def _auto(col: Column, row: dict):
    runner = SweepRunner(jobs=1, use_cache=False, engine="auto")
    points = col.points()
    yield lambda: runner.run(points)


@contextmanager
def _store(col: Column, row: dict):
    # a fresh cache object per read: cold in-memory index, warm OS page
    # cache; the (memoized) column hash is paid inside get_many, as in a
    # real sweep
    points = col.points()
    with tempfile.TemporaryDirectory(prefix="bench_store_") as root:
        results = SweepRunner(jobs=1, use_cache=False).run(points)
        ResultCache(root).put_many(points, results)
        yield lambda: ResultCache(root).get_many(points)


def _json_path(root: str, point: Point) -> Path:
    key = cache_key(point)
    return Path(root) / key[:2] / f"{key}.json"


@contextmanager
def _json(col: Column, row: dict):
    # the pre-1.4.0 per-point layout, byte for byte (the production JSON
    # fallback was removed in 1.5.0).  A read is the old ResultCache.get
    # path: hash the point spec into its key, then stat+open+parse that
    # point's file — the layout had no column grouping
    points = col.points()
    with tempfile.TemporaryDirectory(prefix="bench_json_") as root:
        results = SweepRunner(jobs=1, use_cache=False).run(points)
        for p, r in zip(points, results):
            path = _json_path(root, p)
            path.parent.mkdir(parents=True, exist_ok=True)
            doc = {"version": CACHE_EPOCH, **result_to_doc(r)}
            path.write_bytes(json.dumps(doc, separators=(",", ":")).encode())
        yield lambda: [
            result_from_doc(json.loads(_json_path(root, p).read_bytes()))
            for p in points
        ]


@contextmanager
def _serve(col: Column, row: dict):
    points = col.points()
    src = str(ROOT / "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    with tempfile.TemporaryDirectory(prefix="bench_serve_") as root:
        sock = os.path.join(root, "daemon.sock")
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.serve", "--listen", sock,
             "--jobs", "1", "--cache-dir", os.path.join(root, "cache")],
            env=env, cwd=ROOT, stderr=subprocess.DEVNULL,
        )
        try:
            wait_until_ready(sock, deadline=30.0)
            with SweepClient(sock) as client:
                yield lambda: client.sweep(points)
                row["evaluations"] = client.stats()["daemon"]["evaluations"]
                client.shutdown()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


#: route name -> context manager; the first five are microbench.ENGINES
ROUTES = {
    "event": partial(_per_size, engine="event"),
    "dag": partial(_per_size, engine="dag"),
    "batch": partial(_whole_column, evaluate_sizes=evaluate_column),
    "analytic": partial(_whole_column, evaluate_sizes=evaluate_axis),
    "auto": _auto,
    "store": _store,
    "json": _json,
    "serve": _serve,
}
#: the routes bit-identical to the event loop by contract
EXACT = ("event", "dag", "batch", "auto", "store", "json", "serve")
#: cache and daemon I/O routes, and the columns they read back
IO_ROUTES = ("store", "json", "serve")
IO_COLUMNS = (SMOKE.id, DENSE[1].id)


def routes_for(col: Column) -> List[str]:
    """The routes that run on ``col``, in table order (``dag`` before
    ``analytic``, ``auto`` before ``serve``: later rows compare with them).

    ``analytic`` runs on the dense and smoke columns only: its error bound
    is calibrated on 2x4, 4x8 and 2x16 worlds and does not hold on the
    figures' 8x4 allreduce columns (ROADMAP, analytic tier item).
    """
    skip = set() if col.id in IO_COLUMNS else set(IO_ROUTES)
    if col.source not in ("dense", "smoke"):
        skip.add("analytic")
    return [r for r in ROUTES if r not in skip]


# -- the loop -----------------------------------------------------------------


def _digest(results) -> str:
    rows = [(tuple(map(float, r.samples)), int(r.internode_messages))
            for r in results]
    return hashlib.sha256(repr(rows).encode()).hexdigest()[:16]


def _child(route: str, col: Column, conn) -> None:
    """One (column, route) measurement, in a fresh process whose imports
    are already done (this module's, at spawn)."""
    row = {"column": col.id, "route": route, "sizes": len(col.sizes)}
    with ROUTES[route](col, row) as evaluate:
        t0 = time.perf_counter()
        results = evaluate()
        cold = time.perf_counter() - t0
        warm = float("inf")
        for _ in range(REPS):
            t0 = time.perf_counter()
            results = evaluate()
            warm = min(warm, time.perf_counter() - t0)
    row.update(cold_s=cold, warm_s=warm, digest=_digest(results),
               times=[r.samples[-1] for r in results])
    conn.send(row)


def measure(columns: List[Column]) -> List[dict]:
    """Run every route of every column, each in a fresh child process."""
    ctx = multiprocessing.get_context("spawn")
    rows = []
    for col in columns:
        times = {}
        for route in routes_for(col):
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_child, args=(route, col, send))
            proc.start()
            send.close()
            try:
                row = recv.recv()
            except EOFError:
                raise SystemExit(
                    f"FAIL: {route} on {col.id} died (traceback above)"
                ) from None
            finally:
                proc.join()
            times[route] = row.pop("times")
            if route == "analytic":
                row["max_rel_err"] = max(
                    abs(a / d - 1.0) for a, d in zip(times[route], times["dag"])
                )
            rows.append(row)
            extra = "".join(f"  {k} {row[k]:.3g}" for k in
                            ("max_rel_err", "evaluations") if k in row)
            print(f"  {col.id:<38} {route:<8} {len(col.sizes):>3} sizes  "
                  f"cold {row['cold_s'] * 1e3:9.2f}ms  "
                  f"warm {row['warm_s'] * 1e3:9.2f}ms  {row['digest']}{extra}",
                  flush=True)
    return rows


# -- the checks -----------------------------------------------------------------

#: warm speed floors on the smoke column: (route, baseline) -> minimum
#: of baseline warm_s / route warm_s
FLOORS = {
    ("dag", "event"): 1.2,
    ("batch", "dag"): 1.2,
    ("analytic", "dag"): 50.0,
    ("store", "json"): 2.0,
}
#: serve's warm sweep against the ``auto`` route's cold evaluation of the
#: same column (which, unlike a cold CLI run, excludes interpreter start)
SERVE_FLOORS = dict(zip(IO_COLUMNS, (2.0, 5.0)))
#: smoke-column batch points/sec against the committed aggregate of the
#: dense columns' batch rows
REGRESSION = 0.8


def _pts_per_sec(rows: List[dict]) -> float:
    return sum(r["sizes"] for r in rows) / sum(r["warm_s"] for r in rows)


def check(rows: List[dict], committed: List[dict]) -> List[str]:
    """Every failed check over ``rows``; ``committed`` holds the rows of
    the committed document, the base of the batch regression floor."""
    failures = []
    columns: Dict[str, Dict[str, dict]] = {}
    for r in rows:
        columns.setdefault(r["column"], {})[r["route"]] = r
    for col, by in columns.items():
        digests = {r: by[r]["digest"] for r in EXACT if r in by}
        if len(set(digests.values())) > 1:
            failures.append(f"{col}: exact routes disagree {digests}")
        if "analytic" in by and not by["analytic"]["max_rel_err"] < ERROR_BOUND:
            failures.append(
                f"{col}: analytic max relative error "
                f"{by['analytic']['max_rel_err']:.1%} >= {ERROR_BOUND:.0%}"
            )
        if "serve" in by:
            if by["serve"]["evaluations"] != 1:
                failures.append(f"{col}: serve evaluated "
                                f"{by['serve']['evaluations']} times, not 1")
            ratio = by["auto"]["cold_s"] / by["serve"]["warm_s"]
            if ratio < SERVE_FLOORS[col]:
                failures.append(f"{col}: warm serve {ratio:.1f}x auto cold, "
                                f"under {SERVE_FLOORS[col]}x")
    smoke = columns.get(SMOKE.id, {})
    for (route, base), floor in FLOORS.items():
        if route in smoke and base in smoke:
            ratio = smoke[base]["warm_s"] / smoke[route]["warm_s"]
            if ratio < floor:
                failures.append(f"{SMOKE.id}: {route} {ratio:.2f}x {base}, "
                                f"under {floor}x")
    dense = [r for r in committed
             if r["route"] == "batch" and r["column"].startswith("dense ")]
    if "batch" in smoke and dense:
        got = _pts_per_sec([smoke["batch"]])
        floor = REGRESSION * _pts_per_sec(dense)
        if got < floor:
            failures.append(f"{SMOKE.id}: batch {got:.1f} pts/s under "
                            f"{REGRESSION}x the committed dense aggregate "
                            f"({floor:.1f})")
    return failures


def aggregate(rows: List[dict]) -> Dict[str, dict]:
    """Per route: columns, points, and cold and warm points/sec."""
    out = {}
    for route in ROUTES:
        mine = [r for r in rows if r["route"] == route]
        if mine:
            points = sum(r["sizes"] for r in mine)
            out[route] = {
                "columns": len(mine),
                "points": points,
                "cold_points_per_sec": points / sum(r["cold_s"] for r in mine),
                "warm_points_per_sec": _pts_per_sec(mine),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument(
        "--smoke", action="store_true",
        help="measure the smoke column only and write nothing unless --out "
             "is given (the CI gate)",
    )
    parser.add_argument(
        "--out", default=None,
        help=f"output JSON path (default: {BENCH.name} at the repository "
             f"root, after a full run)",
    )
    args = parser.parse_args(argv)

    columns = [SMOKE] if args.smoke else [SMOKE, *DENSE, *figure_columns()]
    print(f"engine speed: {len(columns)} columns; per (column, route) one "
          f"fresh process, one cold evaluation, best of {REPS} warm repeats")
    rows = measure(columns)
    agg = aggregate(rows)
    for route, a in agg.items():
        print(f"{route:<8} {a['columns']:>3} columns {a['points']:>5} points  "
              f"cold {a['cold_points_per_sec']:12.1f} pts/s  "
              f"warm {a['warm_points_per_sec']:12.1f} pts/s")

    committed = json.loads(BENCH.read_text())["rows"] if BENCH.exists() else []
    failures = check(rows, committed)
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("ok: exact routes bit-identical, every floor met")

    out = args.out or (None if args.smoke else BENCH)
    if out is not None:
        doc = {
            "benchmark": "engine-speed",
            "python": sys.version.split()[0],
            "cpus": os.cpu_count(),
            "reps": REPS,
            "protocol": (
                "one fresh process per (column, route), imports done before "
                "the clock; cold_s = the first evaluation with empty caches, "
                "warm_s = the best of the reps repeats that follow; digest = "
                "sha256 of the per-size samples and message counts, equal "
                "across the exact routes"
            ),
            "rows": rows,
            "aggregate": agg,
        }
        Path(out).write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
