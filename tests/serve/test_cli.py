"""The two command lines: a real ``python -m repro.serve`` subprocess
(process-pool evaluation path) and the ``repro.serve.client`` CLI."""

import asyncio
import gc
import os
import subprocess
import sys
import threading
import warnings

import pytest

from repro.bench.runner import Point, ResultCache, SweepRunner
from repro.serve import SweepClient, SweepDaemon, wait_until_ready
from repro.serve.client import main as client_main


@pytest.fixture
def daemon_subprocess(tmp_path):
    """A real daemon process on a unix socket, with forked pool workers."""
    sock = str(tmp_path / "daemon.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else "src"
    )
    with subprocess.Popen(
        [
            sys.executable, "-m", "repro.serve",
            "--listen", sock, "--jobs", "2",
            "--cache-dir", str(tmp_path / "cache"),
        ],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:  # leaving the block closes the pipe and reaps the process
        try:
            wait_until_ready(sock, deadline=30.0)
            yield sock
        finally:
            if proc.poll() is None:
                try:
                    with SweepClient(sock) as client:
                        client.shutdown()
                except Exception:
                    proc.kill()
                proc.wait(timeout=30)


def test_subprocess_daemon_serves_bit_identical_results(
    daemon_subprocess, tmp_path
):
    points = [
        Point("PiP-MColl", "allgather", 2, 4, s, engine="auto")
        for s in (512, 4096)
    ]
    with SweepClient(daemon_subprocess) as client:
        got = client.sweep(points)
        stats = client.stats()["daemon"]
    assert got == SweepRunner(jobs=1, use_cache=False).run(points)
    assert stats["evaluations"] >= 1
    # shutdown (in the fixture finally) flushes the daemon's buffer
    # and the subprocess exits cleanly


def test_client_cli_sweep_stats_ping(daemon_subprocess, capsys):
    rc = client_main([
        "--connect", daemon_subprocess,
        "--library", "PiP-MColl", "--collective", "allgather",
        "--nodes", "2", "--ppn", "4", "--sizes", "512,4096",
        "--engine", "auto",
    ])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.count("PiP-MColl") == 2 and "512B" in out.replace(" ", "")

    assert client_main(["--connect", daemon_subprocess, "--ping"]) == 0
    assert "ok: daemon pid" in capsys.readouterr().out

    assert client_main(["--connect", daemon_subprocess, "--stats"]) == 0
    assert "2 points" in capsys.readouterr().out


def test_client_cli_unreachable_daemon_fails_cleanly(tmp_path, capsys):
    rc = client_main([
        "--connect", str(tmp_path / "nobody-home.sock"), "--ping",
    ])
    assert rc == 1
    assert "cannot reach daemon" in capsys.readouterr().err


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts open descriptors in /proc/self/fd")
def test_failed_connect_leaks_no_socket(tmp_path):
    """Every readiness poll that finds no daemon yet is a failed
    connect; each must close its socket, not leave it to the garbage
    collector."""
    missing = str(tmp_path / "nobody-home.sock")
    fds = len(os.listdir("/proc/self/fd"))
    failures = []
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        for _ in range(5):
            with pytest.raises(OSError) as err:
                SweepClient(missing).connect()
            # hold the traceback, and with it the failed attempt's frame
            failures.append(err.value)
        assert len(os.listdir("/proc/self/fd")) == fds
        del failures, err
        gc.collect()
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] \
        == []


def test_client_cli_shutdown_stops_an_in_process_daemon(tmp_path, capsys):
    sock = str(tmp_path / "daemon.sock")
    daemon = SweepDaemon(sock, cache=ResultCache(tmp_path / "cache"), jobs=0)
    thread = threading.Thread(
        target=lambda: asyncio.run(daemon.serve()), daemon=True
    )
    thread.start()
    wait_until_ready(sock)
    assert client_main(["--connect", sock, "--shutdown"]) == 0
    thread.join(timeout=10)
    assert not thread.is_alive()


def test_daemon_exits_nonzero_naming_rows_it_could_not_publish(tmp_path):
    """A daemon whose store cannot take a shard (here ``shards`` is a
    file, not a directory) answers its sweeps from the buffer, shuts
    down cleanly, and exits 1 naming the rows it could not publish."""
    cache_dir = tmp_path / "cache"
    cache_dir.mkdir()
    (cache_dir / "shards").write_text("not a directory")
    sock = str(tmp_path / "daemon.sock")
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        "src" + os.pathsep + env["PYTHONPATH"]
        if env.get("PYTHONPATH") else "src"
    )
    points = [Point("PiP-MColl", "allgather", 2, 4, s, engine="auto")
              for s in (64, 512, 4096)]
    with subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--listen", sock,
         "--jobs", "0", "--cache-dir", str(cache_dir)],
        env=env,
        cwd=os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__)))),
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        try:
            wait_until_ready(sock, deadline=30.0)
            with SweepClient(sock) as client:
                got = client.sweep(points)
                client.shutdown()
            _, err = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    assert got == SweepRunner(jobs=1, use_cache=False).run(points)
    assert proc.returncode == 1
    assert "3 buffered rows could not be published" in err
    assert not os.path.exists(sock)
