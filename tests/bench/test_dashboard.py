"""Tests for ``python -m repro.bench.dashboard``.

Two pins: the dashboard must parse the ``BENCH_speed.json`` the
repository actually commits (so a schema drift in ``bench_speed.py``
fails here, not in a cron job), and it must flag an injected regression
across a real git history.
"""

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.bench.dashboard import BENCH_NAME, main, route_metrics

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


def test_headline_metric_rejects_metricless_docs():
    with pytest.raises(ValueError):
        route_metrics({"aggregate": {"speedup": 2.0}})
    with pytest.raises(ValueError):
        route_metrics({"aggregate": {}})
    with pytest.raises(ValueError):
        route_metrics({})
    with pytest.raises(ValueError):
        route_metrics({"aggregate": {"dag": {"warm_points_per_sec": 1.0}}})


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


def _write_doc(repo: Path, pts_per_sec: float) -> None:
    (repo / BENCH_NAME).write_text(json.dumps(_doc(store=pts_per_sec)))


@needs_git
def test_dashboard_flags_injected_regression(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    _write_doc(repo, 100_000.0)
    _git(repo, "add", BENCH_NAME)
    _git(repo, "commit", "-qm", "good run")
    _write_doc(repo, 120_000.0)
    _git(repo, "add", BENCH_NAME)
    _git(repo, "commit", "-qm", "better run")

    # working tree regresses far below threshold x best committed
    _write_doc(repo, 10_000.0)
    rc = main(["--dir", str(repo), "--check"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "REGRESSION" in out
    assert "120000.0" in out  # compared against the best, not the latest

    # without --check the regression is reported but the exit is clean
    assert main(["--dir", str(repo)]) == 0
    assert "REGRESSION" in capsys.readouterr().out


@needs_git
def test_dashboard_passes_healthy_history(tmp_path, capsys):
    repo = tmp_path / "repo"
    repo.mkdir()
    _git(repo, "init", "-q")
    _write_doc(repo, 100_000.0)
    _git(repo, "add", BENCH_NAME)
    _git(repo, "commit", "-qm", "baseline")
    _write_doc(repo, 95_000.0)  # noise-level dip, above 0.8x
    rc = main(["--dir", str(repo), "--check"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok: within" in out
    assert "all routes within threshold" in out
