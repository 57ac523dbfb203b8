"""Tests for the ``python -m repro.bench.record`` CLI."""

import pytest

from repro.bench.record import main


def test_records_figure_to_file(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("PIPMCOLL_SCALE", "small")
    out = tmp_path / "run.txt"
    rc = main(["--figures", "fig06", "--scale", "small", "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "fig06" in text
    assert "PiP-MColl" in text and "PiP-MPICH" in text
    assert "done in" in text
    # stdout mirrors the file
    assert "fig06" in capsys.readouterr().out


def test_cache_stats_reports_store_shape(capsys):
    rc = main(["--figures", "fig06", "--scale", "small", "--cache-stats"])
    assert rc == 0
    out = capsys.readouterr().out
    # one hit/miss pair: get and get_many count alike, unsplit
    assert "[cache:" in out and " hits, " in out and " misses, " in out
    assert "point /" not in out and "column)" not in out
    assert "stores in" in out and "flushes" in out
    assert "[store:" in out and "shards on disk" in out
    assert "index" in out and "entries]" in out
    assert "[lowering: " in out and " lowerings across " in out


def test_trace_flag_dumps_phase_tagged_perfetto_json(tmp_path, capsys):
    import json

    out = tmp_path / "trace.json"
    rc = main([
        "--scale", "small",
        "--trace", str(out),
        "--trace-point", "PiP-MColl/allreduce/64K",
    ])
    assert rc == 0
    trace = json.loads(out.read_text())
    events = trace["traceEvents"] if isinstance(trace, dict) else trace
    assert events, "trace must contain spans"
    phases = {e["args"].get("phase") for e in events if "args" in e}
    phases.discard(None)
    assert phases, "spans must carry phase tags"
    stdout = capsys.readouterr().out
    assert "traced" in stdout and "phases:" in stdout


def test_trace_without_point_rejected():
    with pytest.raises(SystemExit):
        main(["--scale", "small", "--trace", "out.json"])


def test_trace_point_bad_spec_rejected(tmp_path):
    with pytest.raises(SystemExit):
        main([
            "--scale", "small", "--trace", str(tmp_path / "t.json"),
            "--trace-point", "PiP-MColl/allreduce",
        ])


def test_unknown_figure_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--figures", "fig99", "--scale", "small"])


def test_unknown_scale_rejected(capsys):
    with pytest.raises(SystemExit):
        main(["--figures", "fig06", "--scale", "galactic"])


@pytest.mark.parametrize("engine", ("native", "native-batch", "dag", "batch"))
def test_removed_engine_rejected(engine, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--figures", "fig06", "--scale", "small", "--engine", engine])
    assert exc.value.code == 2
    assert f"invalid choice: {engine!r}" in capsys.readouterr().err


def test_figure_sweeps_replay_without_the_event_loop(monkeypatch, capsys):
    """Figure points ask for ``auto``, and every fig06-fig14 pair is
    planner-backed, so no figure point runs on the event loop unless
    ``--engine event`` asks for it; the tables are the same either way."""
    from repro.bench.config import SCALES
    from repro.bench.figures import ALL_FIGURES, figure_points
    from repro.mpi.runtime import World

    for name in ALL_FIGURES:
        points = figure_points(name, SCALES["small"])
        assert points is None or {p.engine for p in points} == {"auto"}
    runs = []
    run = World.run

    def counting_run(self, *args, **kwargs):
        runs.append(self)
        return run(self, *args, **kwargs)

    monkeypatch.setattr(World, "run", counting_run)
    argv = ["--figures", "fig06,fig09", "--scale", "small", "--jobs", "1",
            "--no-cache"]

    def tables():
        return [line for line in capsys.readouterr().out.splitlines()
                if "done in" not in line]

    assert main(argv) == 0
    assert runs == []
    auto = tables()
    assert main(argv + ["--engine", "event"]) == 0
    assert runs
    assert tables() == auto


def test_engine_coverage_gap_exits_2_before_any_point_runs(capsys):
    """An engine that cannot evaluate some pair of the selected figures
    is refused before any figure runs: status 2 and one line naming the
    uncovered pairs, not a traceback from inside the sweep."""
    rc = main(["--figures", "fig07,fig11", "--scale", "small",
               "--engine", "analytic", "--jobs", "1", "--no-cache"])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == ""  # fig07, which analytic covers, did not run
    lines = captured.err.splitlines()
    assert len(lines) == 1 and "Traceback" not in captured.err
    assert "'analytic' does not cover" in lines[0]
    for library in ("PiP-MPICH", "IntelMPI", "OpenMPI", "MVAPICH2"):
        assert f"fig11:{library}/allreduce" in lines[0]
    assert "fig07" not in lines[0] and "PiP-MColl/" not in lines[0]


def test_closed_form_figure_completes(capsys):
    # the README's closed-form example, at the small scale
    rc = main(["--figures", "fig07", "--scale", "small",
               "--engine", "analytic", "--jobs", "1", "--no-cache"])
    assert rc == 0
    assert "fig07 done in" in capsys.readouterr().out
