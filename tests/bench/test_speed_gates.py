"""The gates of ``benchmarks/bench_speed.py``, fed synthetic rows.

``check`` is every check the speed harness makes; each case below breaks
exactly one of them and expects exactly that one to fail.  The committed
``BENCH_speed.json`` must pass all of them, and must hold a cold ``dag``
and ``auto`` row for every column the harness derives.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from repro.bench.microbench import ENGINES
from repro.sched.analytic import ERROR_BOUND

REPO_ROOT = Path(__file__).resolve().parents[2]
_spec = importlib.util.spec_from_file_location(
    "bench_speed", REPO_ROOT / "benchmarks" / "bench_speed.py"
)
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

SMOKE, DENSE_IO = bench.IO_COLUMNS


def _committed(speedup):
    """Committed smoke rows whose batch runs ``speedup`` times dag."""
    return [{"column": SMOKE, "route": route, "sizes": 33,
             "cold_s": 2 * warm_s, "warm_s": warm_s, "digest": "d"}
            for route, warm_s in (("dag", 0.02), ("batch", 0.02 / speedup))]


#: the base of the batch regression floor: 0.5 x 2 = 1.0x, under the
#: 1.2x batch/dag floor, so each other check can fail alone
COMMITTED = _committed(2.0)


def _row(column, route, warm_s, **extra):
    return {"column": column, "route": route, "sizes": 33,
            "cold_s": 2 * warm_s, "warm_s": warm_s, "digest": "d", **extra}


def _passing_rows():
    """A smoke column and a dense I/O column that clear every floor."""
    rows = []
    for column in (SMOKE, DENSE_IO):
        rows += [
            _row(column, "event", 1.0),
            _row(column, "dag", 0.5),
            _row(column, "batch", 0.1),
            _row(column, "analytic", 0.001, max_rel_err=0.1),
            _row(column, "auto", 0.1),
            _row(column, "store", 0.001),
            _row(column, "json", 0.01),
            _row(column, "serve", 0.001, evaluations=1),
        ]
    return rows


def _find(rows, column, route):
    return next(r for r in rows if r["column"] == column and r["route"] == route)


def test_synthetic_rows_pass():
    assert bench.check(_passing_rows(), COMMITTED) == []


def test_route_table_covers_every_engine():
    assert set(ENGINES) < set(bench.ROUTES)
    assert set(bench.EXACT) == set(bench.ROUTES) - {"analytic"}


@pytest.mark.parametrize("route", bench.EXACT)
def test_digest_mismatch_fails(route):
    rows = _passing_rows()
    _find(rows, DENSE_IO, route)["digest"] = "other"
    failures = bench.check(rows, COMMITTED)
    assert len(failures) == 1 and "disagree" in failures[0]


def test_analytic_error_at_the_bound_fails():
    rows = _passing_rows()
    _find(rows, DENSE_IO, "analytic")["max_rel_err"] = ERROR_BOUND
    failures = bench.check(rows, COMMITTED)
    assert len(failures) == 1 and "analytic max relative error" in failures[0]


@pytest.mark.parametrize("pair", sorted(bench.FLOORS))
def test_each_smoke_ratio_just_under_its_floor_fails(pair):
    route, base = pair
    rows = _passing_rows()
    base_s = _find(rows, SMOKE, base)["warm_s"]
    _find(rows, SMOKE, route)["warm_s"] = (
        base_s / (bench.FLOORS[pair] * (1 - 1e-9))
    )
    failures = bench.check(rows, COMMITTED)
    assert len(failures) == 1 and f"{route} " in failures[0]


@pytest.mark.parametrize("column", [SMOKE, DENSE_IO])
def test_serve_just_under_its_floor_fails(column):
    rows = _passing_rows()
    cold = _find(rows, column, "auto")["cold_s"]
    _find(rows, column, "serve")["warm_s"] = (
        cold / (bench.SERVE_FLOORS[column] * (1 - 1e-9))
    )
    failures = bench.check(rows, COMMITTED)
    assert len(failures) == 1 and "warm serve" in failures[0]


#: committed smoke rows whose batch runs 6x dag: a regression floor of 3x
FAST_BATCH = _committed(6.0)


def _batch_at(factor):
    """Passing rows, but for a smoke batch speed-up over dag of
    ``factor`` times the regression floor over :data:`FAST_BATCH`."""
    rows = _passing_rows()
    _find(rows, SMOKE, "batch")["warm_s"] = (
        _find(rows, SMOKE, "dag")["warm_s"] / (bench.REGRESSION * 6.0 * factor)
    )
    return rows


def test_batch_under_the_regression_floor_fails():
    failures = bench.check(_batch_at(1 - 1e-9), FAST_BATCH)
    assert len(failures) == 1 and "committed smoke speed-up" in failures[0]


def test_batch_just_over_the_regression_floor_passes():
    assert bench.check(_batch_at(1 + 1e-9), FAST_BATCH) == []


def test_serve_evaluating_twice_fails():
    rows = _passing_rows()
    _find(rows, SMOKE, "serve")["evaluations"] = 2
    failures = bench.check(rows, COMMITTED)
    assert len(failures) == 1 and "evaluated 2 times" in failures[0]


def test_committed_bench_passes_every_check():
    rows = json.loads(bench.BENCH.read_text())["rows"]
    assert bench.check(rows, rows) == []


def test_committed_bench_covers_every_derived_column():
    rows = json.loads(bench.BENCH.read_text())["rows"]
    have = {(r["column"], r["route"]) for r in rows}
    for col in [bench.SMOKE, *bench.DENSE, *bench.figure_columns()]:
        for route in bench.routes_for(col):
            assert (col.id, route) in have, (col.id, route)
