"""The ``serve-mixed`` fixture: one daemon stream, from seeding to shutdown.

A stream is: write the fixed seeded half of the column universe into an
empty store (untimed), start the daemon with ``--jobs 1`` on a unix
socket (``daemon.py``: ``python -m repro.serve`` with a niced worker),
time until it answers a ping (set-up), drive the seeded request
list over :data:`settings.CONNECTIONS` closed-loop connections in
:data:`settings.SEGMENTS` segments (the connections go idle between
segments while the client takes a host-speed reading), read the
daemon's counters and peak RSS, shut it down and check it left neither a
process nor its socket behind.  Every response is checked against the
reference results.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

import calibrate
import reference
import settings


def _points(lib, coll, nodes, ppn, sizes):
    from repro.bench.runner.points import Point

    return [Point(lib, coll, nodes, ppn, size, engine=settings.ENGINE)
            for size in sizes]


def seed_store(store: Path, ref: Dict) -> None:
    """Write the reference rows of the seeded columns through the store's
    own API (the rows a daemon would have written for them)."""
    from repro.bench.microbench import MicrobenchResult
    from repro.bench.runner.cache import ResultCache

    cache = ResultCache(store)
    for lib, coll, nodes, ppn, axis in settings.seeded_columns():
        points = _points(lib, coll, nodes, ppn, settings.SERVE_AXES[axis])
        rows = []
        for p in points:
            samples, internode = ref["points"][reference.point_key(
                lib, coll, nodes, ppn, p.msg_bytes)]
            rows.append(MicrobenchResult(
                lib, coll, nodes, ppn, p.msg_bytes,
                sum(samples) / len(samples), tuple(samples), internode))
        cache.put_many(points, rows)


def _peak_rss_mb(pids: List[int]) -> float:
    """The largest VmHWM among ``pids``, in MB."""
    peak = 0.0
    for p in pids:
        try:
            with open(f"/proc/{p}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        peak = max(peak, int(line.split()[1]) / 1024)
        except OSError:
            pass
    return peak


def _children(pid: int) -> List[int]:
    try:
        with open(f"/proc/{pid}/task/{pid}/children") as fh:
            return [int(p) for p in fh.read().split()]
    except OSError:
        return []


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("State:"):
                    return "Z" not in line.split()[1]
    except OSError:
        return False
    return False


def _wait_ready(proc: subprocess.Popen, sock: str, deadline: float) -> None:
    from repro.serve.client import SweepClient
    from repro.serve.protocol import ServeError

    end = time.monotonic() + deadline
    while time.monotonic() < end:
        if proc.poll() is not None:
            raise RuntimeError(f"daemon exited with {proc.returncode} "
                               f"before answering")
        try:
            with SweepClient(sock, connect_timeout=1.0) as client:
                client.ping()
                return
        except (OSError, ServeError):
            time.sleep(0.002)
    raise RuntimeError(f"daemon did not answer within {deadline}s")


def _segments(n: int) -> List[range]:
    """The request indices of each of the :data:`settings.SEGMENTS`
    segments of an ``n``-request stream."""
    step = -(-n // settings.SEGMENTS)
    return [range(lo, min(lo + step, n)) for lo in range(0, n, step)]


def _drive(sock: str, stream: List[Dict], segment: range,
           outcomes: List, responses: List) -> float:
    """Send ``stream[i]`` for ``i`` in ``segment`` as a closed loop over
    :data:`settings.CONNECTIONS` connections; record each outcome as
    ``(kind, wall latency, error or None)``; return the segment's wall
    time."""
    from repro.serve.client import SweepClient
    from repro.serve.protocol import ServeError

    cursor = iter(segment)
    lock = threading.Lock()

    def connection() -> None:
        with SweepClient(sock) as client:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                req = stream[i]
                points = _points(*req["column"][:4], req["sizes"])
                t = time.perf_counter()
                try:
                    responses[i] = client.sweep(
                        points, timeout=settings.REQUEST_TIMEOUT_S)
                    err = None
                except (ServeError, OSError) as exc:
                    err = f"request {i}: {exc}"
                outcomes[i] = (req["kind"], time.perf_counter() - t, err)

    threads = [threading.Thread(target=connection)
               for _ in range(settings.CONNECTIONS)]
    t0 = time.perf_counter()
    for th in threads:
        th.start()
    for th in threads:
        th.join()
    return time.perf_counter() - t0


def run_stream(stream_dir: Path, seed: int, requests: int, ref: Dict,
               spans_dir: Optional[Path] = None) -> Dict:
    """One stream; returns timings, counters and the reference check.

    ``readings`` are the host-speed readings taken before the daemon
    starts, once it answers, and after each segment; ``latencies`` are
    ``(kind, seconds, segment)`` per answered request.
    """
    from repro.serve.client import SweepClient

    store = stream_dir / "store"
    sock = os.path.relpath(stream_dir / "s.sock")
    seed_store(store, ref)
    stream = settings.request_stream(seed, requests)

    daemon_args = ["--listen", sock, "--jobs", str(settings.JOBS),
                   "--cache-dir", str(store)]
    daemon = Path(__file__).resolve().parent / "daemon.py"
    cmd = [sys.executable, str(daemon)]
    if spans_dir is not None:
        spans_dir.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans_dir)]
    cmd += daemon_args
    #: the fixture's own failures: a daemon or socket left behind
    fixture_errors: List[str] = []
    with open(stream_dir / "daemon.log", "wb") as log:
        readings = [calibrate.reading()]
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, stdout=log, stderr=log)
        workers: List[int] = []
        try:
            _wait_ready(proc, sock, 60.0)
            setup_s = time.monotonic() - t_spawn
            readings.append(calibrate.reading())

            # (kind, latency_s, error or None), by request
            outcomes: List[Optional[tuple]] = [None] * len(stream)
            responses: List[Optional[list]] = [None] * len(stream)
            segment_s = []
            for segment in _segments(len(stream)):
                segment_s.append(
                    _drive(sock, stream, segment, outcomes, responses))
                readings.append(calibrate.reading())

            workers = _children(proc.pid)
            peak_rss_mb = _peak_rss_mb([proc.pid] + workers)
            with SweepClient(sock) as client:
                client.flush()
                stats = client.stats()
                client.shutdown()
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                fixture_errors.append("daemon still running; killed")
                proc.kill()
                proc.wait()
            deadline = time.monotonic() + 5
            while (any(_alive(w) for w in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.01)
            for w in workers:
                if _alive(w):
                    fixture_errors.append(f"pool worker {w} outlived the "
                                          f"daemon; killed")
                    os.kill(w, 9)
    if os.path.exists(sock):
        fixture_errors.append(f"daemon left its socket {sock} behind")

    failed = 0
    errors: List[str] = []
    for i, outcome in enumerate(outcomes):
        if outcome is None or outcome[2] is not None:
            failed += 1
            errors.append(outcome[2] if outcome else f"request {i} not sent")
            continue
        bad = [why for why in (reference.mismatch(ref, r)
                               for r in responses[i]) if why is not None]
        if bad:
            failed += 1
            errors.extend(bad[:2])
    digest = hashlib.sha256(json.dumps(
        [[reference.result_key(r), list(r.samples), r.internode_messages]
         for response in responses if response for r in response]
    ).encode()).hexdigest()
    return {
        "setup_s": setup_s,
        "segment_s": segment_s,
        "readings": readings,
        "latencies": [(o[0], o[1], k)
                      for k, segment in enumerate(_segments(len(stream)))
                      for o in (outcomes[i] for i in segment)
                      if o is not None],
        "peak_rss_mb": peak_rss_mb,
        "stats": stats,
        "digest": digest,
        "attempted": len(stream),
        "failed": failed + len(fixture_errors),
        "errors": (fixture_errors + errors)[:5],
    }
