"""Tests for ``python -m repro.bench.dashboard``.

Two pins: the dashboard must parse the ``BENCH_speed.json`` the
repository actually commits (so a schema drift in ``bench_speed.py``
fails here, not in a cron job), and it must flag an injected regression
across a real git history, host-neutrally: a document from a uniformly
slower or faster host passes, and so does one where a single route got
faster, however far; one route falling behind the others fails on any
host.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.bench.dashboard import (
    BENCH_NAME,
    main,
    relative_speedups,
    route_metrics,
)

REPO_ROOT = Path(__file__).resolve().parents[2]

needs_git = pytest.mark.skipif(
    shutil.which("git") is None, reason="git not installed"
)


def _doc(**warm_by_route) -> dict:
    return {"rows": [], "aggregate": {
        route: {"cold_points_per_sec": warm / 2, "warm_points_per_sec": warm}
        for route, warm in warm_by_route.items()
    }}


# -- headline metrics: cold and warm points/sec per route --------------------


def test_headline_metric_prefers_most_derived_engine():
    # every route is read under its own name, so the most derived engine's
    # figure is never shadowed by a lower tier's; counts are not metrics
    doc = _doc(dag=100.0, store=8.0)
    doc["aggregate"]["store"].update(columns=56, points=934)
    assert route_metrics(doc) == {
        "dag cold": 50.0, "dag warm": 100.0,
        "store cold": 4.0, "store warm": 8.0,
    }


def test_headline_metric_falls_back_to_any_points_per_sec():
    # a route the dashboard has never heard of is read like any other
    assert route_metrics(_doc(custom=7.5)) == {
        "custom cold": 3.75, "custom warm": 7.5,
    }


def test_speedups_are_read_against_the_median_route_in_the_same_phase():
    old = route_metrics(_doc(event=40.0, dag=120.0, store=100.0))
    # dag kept pace with the median route (store, 1.5x); event fell
    # behind it; cold and warm are read apart
    new = route_metrics(_doc(event=48.0, dag=180.0, store=150.0))
    assert relative_speedups(new, old) == pytest.approx({
        "event cold": 0.8, "event warm": 0.8,
        "dag cold": 1.0, "dag warm": 1.0,
        "store cold": 1.0, "store warm": 1.0,
    })
    # a uniformly slower host leaves every route at 1.0
    slow = route_metrics(_doc(event=24.0, dag=72.0, store=60.0))
    assert list(relative_speedups(slow, old).values()) \
        == pytest.approx([1.0] * 6)
    # one route four times faster does not move the others
    fast = route_metrics(_doc(event=40.0, dag=480.0, store=100.0))
    assert relative_speedups(fast, old)["store warm"] == pytest.approx(1.0)
    # a route the old document lacks is not read, and fewer than three
    # shared routes are not read at all
    extra = route_metrics(_doc(event=40.0, dag=120.0, store=100.0, json=5.0))
    assert "json warm" not in relative_speedups(extra, old)
    two = route_metrics(_doc(dag=120.0, store=100.0))
    assert relative_speedups(new, two) == {}


def test_headline_metric_rejects_metricless_docs():
    with pytest.raises(ValueError):
        route_metrics({"aggregate": {"speedup": 2.0}})
    with pytest.raises(ValueError):
        route_metrics({"aggregate": {}})
    with pytest.raises(ValueError):
        route_metrics({})
    with pytest.raises(ValueError):
        route_metrics({"aggregate": {"dag": {"warm_points_per_sec": 1.0}}})
    with pytest.raises(ValueError):
        route_metrics(_doc(dag=0.0))


# -- the committed benchmark document ----------------------------------------


def test_every_committed_bench_document_parses():
    assert sorted(p.name for p in REPO_ROOT.glob("BENCH_*.json")) == [
        BENCH_NAME
    ]
    metrics = route_metrics(json.loads((REPO_ROOT / BENCH_NAME).read_text()))
    assert metrics
    assert all(value > 0 for value in metrics.values())


def test_dashboard_runs_over_the_repository(capsys):
    rc = main(["--dir", str(REPO_ROOT), "--commits", "0"])
    out = capsys.readouterr().out
    assert rc == 0
    assert BENCH_NAME in out
    assert "auto cold" in out and "dag warm" in out


def test_dashboard_exits_2_without_bench_files(tmp_path, capsys):
    assert main(["--dir", str(tmp_path)]) == 2
    assert f"no {BENCH_NAME}" in capsys.readouterr().err


def test_dashboard_refuses_too_few_routes_to_read_host_speed(
        tmp_path, capsys):
    (tmp_path / BENCH_NAME).write_text(json.dumps(_doc(dag=1.0, store=2.0)))
    assert main(["--dir", str(tmp_path), "--commits", "0"]) == 1
    assert "2 routes; reading host speed needs at least 3" \
        in capsys.readouterr().err


# -- regression detection across a git history -----------------------------


def _git(repo: Path, *args: str) -> None:
    subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True,
        env={
            "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
            "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
            "HOME": str(repo), "PATH": "/usr/bin:/bin:/usr/local/bin",
        },
    )


#: a healthy document's warm points/sec per route
ROUTES = {"event": 40.0, "dag": 120.0, "store": 100_000.0}


def _write_doc(repo: Path, **routes: float) -> None:
    (repo / BENCH_NAME).write_text(json.dumps(_doc(**routes)))


def _commit(repo: Path, message: str, **routes: float) -> None:
    _write_doc(repo, **routes)
    _git(repo, "add", BENCH_NAME)
    _git(repo, "commit", "-qm", message)


def _scaled(host: float, **routes: float) -> dict:
    """``routes`` as read on a host ``host`` times as fast."""
    return {route: value * host for route, value in routes.items()}


@needs_git
def test_dashboard_flags_injected_regression(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    _commit(repo, "good run", **ROUTES)
    _commit(repo, "better run", **{**ROUTES, "store": 120_000.0})

    # working tree regresses far below threshold x best committed
    _write_doc(repo, **{**ROUTES, "store": 10_000.0})
    rc = main(["--dir", str(repo), "--check"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSION: 0.083x the median route's speed-up since" in out
    assert "regressed: store cold, store warm" in out

    # without --check the regression is reported but the exit is clean
    assert main(["--dir", str(repo)]) == 0
    assert "REGRESSION" in capsys.readouterr().out

    # one route 25% slower than its best, on an unchanged host, fails
    for route, best in (("store", 120_000.0), ("dag", 120.0)):
        _write_doc(repo, **{**ROUTES, "store": 120_000.0,
                            route: best * 0.75})
        assert main(["--dir", str(repo), "--check"]) == 1
        assert f"regressed: {route} cold, {route} warm" \
            in capsys.readouterr().out

    # ... and on a host 1.25x faster, where its points/sec still read
    # 0.94x the best committed
    _write_doc(repo, **_scaled(1.25, **{**ROUTES, "store": 90_000.0}))
    assert main(["--dir", str(repo), "--check"]) == 1
    out = capsys.readouterr().out
    assert "regressed: store cold, store warm" in out
    assert "REGRESSION: 0.750x" in out


@needs_git
def test_dashboard_passes_healthy_history(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    _commit(repo, "baseline", **ROUTES)
    # noise-level dip, above 0.8x
    _write_doc(repo, **{**ROUTES, "store": 95_000.0})
    rc = main(["--dir", str(repo), "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok: within" in out
    assert "all routes within threshold" in out
    # every route uniformly 40% slower: a slower host, not a regression
    _write_doc(repo, **_scaled(0.6, **ROUTES))
    assert main(["--dir", str(repo), "--check"]) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" not in out
    assert "all routes within threshold" in out
    # one route four times faster: the others did not fall behind
    _write_doc(repo, **{**ROUTES, "store": ROUTES["store"] * 4})
    assert main(["--dir", str(repo), "--check"]) == 0
    assert "REGRESSION" not in capsys.readouterr().out

    # the event route alone 35% faster is committed; a document of that
    # tree from a host 0.75x as fast changed nothing, although dag's
    # points/sec and its ratio to the event route both read under 0.8x
    # their best, committed before the event route sped up
    sped_up = {**ROUTES, "event": ROUTES["event"] * 1.35}
    _commit(repo, "event route faster", **sped_up)
    _write_doc(repo, **_scaled(0.75, **sped_up))
    assert main(["--dir", str(repo), "--check"]) == 0
    out = capsys.readouterr().out
    assert "REGRESSION" not in out
    assert "all routes within threshold" in out
