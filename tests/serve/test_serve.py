"""Daemon behaviour through a real socket: bit-identity, coalescing,
timeouts, backpressure, shutdown flush, failed shard publishes.

Every test runs a real :class:`SweepDaemon` on a unix socket in a
background thread and talks to it with the blocking
:class:`SweepClient` — the full wire path, not method calls.  ``jobs=0``
keeps evaluation in-process (worker threads), so tests can wrap
``daemon._run_in_pool`` to inject latency without touching the engines.
"""

import asyncio
import errno
import json
import os
import socket
import threading
import time

import pytest

from repro.bench.microbench import run_point
from repro.bench.runner import Point, ResultCache, SweepRunner
from repro.bench.runner.points import column_of
from repro.bench.runner.pool import plan_sweep
from repro.bench.runner.store import ShardStore
from repro.core.tuning import Thresholds
from repro.hw.params import bebop_broadwell
from repro.serve import ServeError, SweepClient, SweepDaemon, wait_until_ready
from repro.serve.protocol import (
    MAX_POINTS,
    PROTOCOL_VERSION,
    column_to_doc,
    decode_results,
    encode_message,
)

AXIS = (64, 1024, 16384)


def column(sizes=AXIS, collective="allgather", engine="auto"):
    return [
        Point("PiP-MColl", collective, 2, 4, s, engine=engine)
        for s in sizes
    ]


def reference(points):
    """What the daemon must reproduce bit-identically."""
    return SweepRunner(jobs=1, use_cache=False).run(points)


def stored(root, points):
    """The rows of one column's ``points`` in a fresh cache at ``root``."""
    return ResultCache(root).get_many(column_of(points[0]),
                                      [p.msg_bytes for p in points])


def sweep_doc(*columns, **fields):
    """A v3 sweep request of ``columns``, each a list of points."""
    return {"op": "sweep", "version": PROTOCOL_VERSION, "columns": [
        column_to_doc(points[0], [p.msg_bytes for p in points])
        for points in columns
    ], **fields}


class DaemonThread:
    """A daemon serving on a unix socket from a background thread."""

    def __init__(self, tmp_path, *, delay=0.0, **kwargs):
        self.sock = str(tmp_path / "daemon.sock")
        kwargs.setdefault("cache", ResultCache(tmp_path / "serve_cache"))
        kwargs.setdefault("jobs", 0)
        kwargs.setdefault("grace", 5.0)
        self.daemon = SweepDaemon(self.sock, **kwargs)
        if delay:
            inner = self.daemon._run_in_pool

            async def slow(fn, arg):
                await asyncio.sleep(delay)
                return await inner(fn, arg)

            self.daemon._run_in_pool = slow
        self.thread = threading.Thread(
            target=lambda: asyncio.run(self._serve()), daemon=True
        )
        #: connection handlers still pending when serve() returned
        self.left_handlers = None

    async def _serve(self):
        self.loop = asyncio.get_running_loop()
        await self.daemon.serve()
        self.left_handlers = [t for t in asyncio.all_tasks()
                              if t.get_coro().__name__ == "_handle_conn"]

    def __enter__(self):
        self.thread.start()
        wait_until_ready(self.sock)
        return self

    def __exit__(self, *exc):
        if self.thread.is_alive():
            try:
                with SweepClient(self.sock) as client:
                    client.shutdown()
            except (OSError, ServeError):
                pass
            self.thread.join(timeout=10)
        assert not self.thread.is_alive(), "daemon failed to drain and exit"

    def client(self):
        return SweepClient(self.sock)

    def in_loop(self, fn):
        """``fn()``, called on the daemon's event-loop thread."""
        async def call():
            return fn()
        return asyncio.run_coroutine_threadsafe(call(), self.loop).result(10)


# -- the contract: bit-identical to SweepRunner.run ------------------------


def test_sweep_bit_identical_to_runner_across_engines(tmp_path):
    # auto columns (upgraded to the column route on both fronts) and a
    # scalar event point — the full routing surface
    points = (
        column()
        + [Point("PiP-MColl", "allreduce", 2, 4, s, engine="auto")
           for s in (512, 8192)]
        + [Point("OpenMPI", "allgather", 2, 2, 1024, engine="event")]
    )
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            got = client.sweep(points)
    assert got == reference(points)


def _sizes(library, collective, engine, sizes):
    return [Point(library, collective, 2, 2, s, engine=engine)
            for s in sizes]


#: one sweep's columns, each with the work units (route, width) the
#: shared plan cuts it into when nothing is cached
PLAN_TABLE = [
    # an event column: one unit per size, so jobs=N spreads them
    (_sizes("PiP-MColl", "allgather", "event", (64, 1024, 16384)),
     [("point", 1)] * 3),
    # an analytic column is one evaluate_axis call
    (_sizes("OpenMPI", "allgather", "analytic", (64, 1024, 16384)),
     [("analytic", 3)]),
    # a planner-backed auto column batches its sizes of one byte or more;
    # the planners refuse an empty message, which runs by itself
    (_sizes("PiP-MColl", "allreduce", "auto", (0, 64, 1024)),
     [("batch", 2), ("point", 1)]),
    # alltoall has no planner: auto runs it size by size
    (_sizes("PiP-MColl", "alltoall", "auto", (64, 1024)),
     [("point", 1)] * 2),
    # one auto size gains nothing from a batch pass: the DAG runs it
    (_sizes("IntelMPI", "allgather", "auto", (2048,)), [("point", 1)]),
]


def test_runner_and_daemon_share_one_plan(tmp_path):
    """Both fronts cut a sweep into the same work units and return the
    rows of per-point ``run_point``; the daemon evaluates each unit
    once."""
    points = [p for column_points, _ in PLAN_TABLE for p in column_points]
    planned = plan_sweep([(column_of(ps[0]), [p.msg_bytes for p in ps])
                          for ps, _ in PLAN_TABLE])
    assert [[(unit.route, len(unit.points)) for unit in col.units]
            for col in planned] == [units for _, units in PLAN_TABLE]
    expected = [
        run_point(p.library, p.collective, p.nodes, p.ppn, p.msg_bytes,
                  warmup=p.warmup, measure=p.measure, engine=p.engine)
        for p in points
    ]
    assert SweepRunner(jobs=1, use_cache=False).run(points) == expected
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            got = client.sweep(points)
            stats = client.stats()["daemon"]
    assert got == expected
    assert stats["evaluations"] == sum(len(u) for _, u in PLAN_TABLE)


def test_warm_repeat_is_pure_cache_hits(tmp_path):
    points = column()
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            first = client.sweep(points)
            again = client.sweep(points)
            stats = client.stats()["daemon"]
    assert first == again == reference(points)
    assert stats["evaluations"] == 1
    assert stats["hits"] == len(points)
    assert stats["misses"] == len(points)


def test_results_come_back_in_request_order(tmp_path):
    # two columns and a scalar point, interleaved: the client sends one
    # column spec per column and puts each result back in its place
    other = column(collective="allreduce", engine="auto")
    points = list(reversed(column())) + column((4096,))
    points[1:1] = [other[2], other[0]]
    points.insert(4, Point("OpenMPI", "allgather", 2, 2, 1024,
                           engine="event"))
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            got = client.sweep(points)
            again = client.sweep(points)
    assert [(r.msg_bytes) for r in got] == [p.msg_bytes for p in points]
    assert got == again == reference(points)


def _answer(daemon, request):
    """``daemon``'s response to ``request``, which must come on the first
    step of its coroutine: no suspension, hence no event loop needed."""
    step = daemon._dispatch(request)
    with pytest.raises(StopIteration) as done:
        step.send(None)
    line, stop_after = done.value.value
    assert not stop_after
    return json.loads(line)


def _warm_daemon(tmp_path, points):
    cache = ResultCache(tmp_path / "serve_cache")
    cache.put_many(points, reference(points))
    return SweepDaemon(str(tmp_path / "never-bound.sock"), cache=cache,
                       jobs=0)


def test_all_hit_sweep_is_answered_without_awaiting(tmp_path):
    """A sweep whose rows are all cached is answered without suspending:
    its coroutine finishes on the first step, with no task, no deadline
    timer, not even a running event loop.  It passes the same draining,
    admission, validation and counting steps as a sweep that must
    evaluate."""
    points = column()
    daemon = _warm_daemon(tmp_path, points)
    request = sweep_doc(points, timeout=30, id=9)

    response = _answer(daemon, request)
    assert response["id"] == 9 and daemon._active == 0
    assert decode_results(response, [AXIS]) == [reference(points)]
    # the refusals a sweep that evaluates meets, in the same order
    assert _answer(daemon, {**request, "timeout": "abc"})["error"]["code"] \
        == "bad-request"
    daemon._active = daemon.max_pending
    assert _answer(daemon, request)["error"]["code"] == "overloaded"
    daemon._draining = True
    assert _answer(daemon, request)["error"]["code"] == "shutting-down"
    stats = daemon.stats_doc()["daemon"]
    assert (stats["requests"], stats["sweeps"], stats["points"],
            stats["hits"], stats["misses"], stats["rejected"],
            stats["errors"], stats["evaluations"]) == (4, 1, 3, 3, 0, 1, 3, 0)


def test_all_hit_sweep_builds_no_point(tmp_path, monkeypatch):
    """The daemon plans and looks up a sweep per column: an all-hit sweep
    of one 10-size column constructs no :class:`Point` at all (the
    missing sizes of a sweep that evaluates are the only ones built)."""
    points = column(tuple(1024 * 2 ** k for k in range(10)),
                    engine="auto")
    daemon = _warm_daemon(tmp_path, points)
    request = sweep_doc(points)
    built = []
    init = Point.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Point, "__init__", counting_init)
    response = _answer(daemon, request)
    assert built == []
    monkeypatch.setattr(Point, "__init__", init)
    assert decode_results(response, [[p.msg_bytes for p in points]]) \
        == [reference(points)]
    assert daemon.stats_doc()["daemon"]["hits"] == 10


def test_sweep_response_wire_shape(tmp_path):
    """The raw v3 response of a two-column sweep with a repeated size:
    the columns in request order, each with its identity fields once (the
    library in its registry spelling) and one ``[time, samples,
    internode_messages]`` fragment per requested size, in order; then the
    echoed ``id``."""
    first = column((1024, 64, 1024))
    second = [Point("OpenMPI", "allgather", 2, 2, 512, engine="event")]
    request = sweep_doc(first, second, id="req-7")
    request["columns"][0]["library"] = "pip_mcoll"
    with DaemonThread(tmp_path) as harness:
        response = raw_request(harness.sock, json.dumps(request))
    rows = reference(first) + reference(second)
    assert response == {"ok": True, "columns": [
        {"library": "PiP-MColl", "collective": "allgather", "nodes": 2,
         "ppn": 4, "rows": [[r.time, list(r.samples), r.internode_messages]
                            for r in rows[:3]]},
        {"library": "OpenMPI", "collective": "allgather", "nodes": 2,
         "ppn": 2, "rows": [[rows[3].time, list(rows[3].samples),
                             rows[3].internode_messages]]},
    ], "id": "req-7"}
    assert list(response) == ["ok", "columns", "id"]
    assert [list(c) for c in response["columns"]] == [
        ["library", "collective", "nodes", "ppn", "rows"]] * 2


class _CannedFile:
    """A client connection's file that answers every request with one
    canned line."""

    def __init__(self, line):
        self.line = line

    def write(self, data):
        pass

    def flush(self):
        pass

    def readline(self, limit=-1):
        return self.line


def test_client_refuses_a_v2_response(tmp_path):
    """A client talking to a v2 daemon gets a flat ``results`` list of
    row documents back; it raises ServeError, not KeyError."""
    points = column()
    rows = reference(points)
    v2 = encode_message({"ok": True, "results": [
        {"library": r.library, "collective": r.collective, "nodes": r.nodes,
         "ppn": r.ppn, "msg_bytes": r.msg_bytes, "time": r.time,
         "samples": list(r.samples),
         "internode_messages": r.internode_messages} for r in rows]})
    client = SweepClient(str(tmp_path / "unused.sock"))
    client._file = _CannedFile(v2)
    with pytest.raises(ServeError) as err:
        client.sweep(points)
    assert err.value.code == "internal"
    assert f"v{PROTOCOL_VERSION}" in err.value.message


# -- coalescing ------------------------------------------------------------


def _sweep_in_thread(sock, points, out, idx, delay=0.0):
    def run():
        if delay:
            time.sleep(delay)
        with SweepClient(sock) as client:
            out[idx] = client.sweep(points)

    thread = threading.Thread(target=run)
    thread.start()
    return thread


def test_identical_concurrent_requests_coalesce_to_one_evaluation(tmp_path):
    points = column()
    out = {}
    with DaemonThread(tmp_path, delay=0.6) as harness:
        a = _sweep_in_thread(harness.sock, points, out, "a")
        b = _sweep_in_thread(harness.sock, points, out, "b", delay=0.2)
        a.join(timeout=30)
        b.join(timeout=30)
        with harness.client() as client:
            stats = client.stats()["daemon"]
    assert out["a"] == out["b"] == reference(points)
    assert stats["evaluations"] == 1   # one in-flight unit served both
    assert stats["coalesced"] == 1     # the second request awaited it


def test_overlapping_requests_coalesce_then_fill_the_remainder(tmp_path):
    shared = (1024, 16384)
    a_points = column((64,) + shared)
    b_points = column(shared + (262144,))
    out = {}
    with DaemonThread(tmp_path, delay=0.5) as harness:
        a = _sweep_in_thread(harness.sock, a_points, out, "a")
        b = _sweep_in_thread(harness.sock, b_points, out, "b", delay=0.2)
        a.join(timeout=30)
        b.join(timeout=30)
        with harness.client() as client:
            stats = client.stats()["daemon"]
    assert out["a"] == reference(a_points)
    assert out["b"] == reference(b_points)
    # B awaited A's evaluation for the shared sizes, then evaluated only
    # its own remainder — two evaluations total, not three
    assert stats["evaluations"] == 2
    assert stats["coalesced"] == 1


def test_scalar_point_misses_coalesce_too(tmp_path):
    point = [Point("OpenMPI", "allgather", 2, 2, 512, engine="event")]
    out = {}
    with DaemonThread(tmp_path, delay=0.5) as harness:
        a = _sweep_in_thread(harness.sock, point, out, "a")
        b = _sweep_in_thread(harness.sock, point, out, "b", delay=0.2)
        a.join(timeout=30)
        b.join(timeout=30)
        with harness.client() as client:
            stats = client.stats()["daemon"]
    assert out["a"] == out["b"] == reference(point)
    assert stats["evaluations"] == 1
    assert stats["coalesced"] == 1


# -- timeouts and cancellation ---------------------------------------------


def test_request_timeout_cancels_request_but_evaluation_completes(tmp_path):
    points = column()
    with DaemonThread(tmp_path, delay=0.8) as harness:
        with harness.client() as client:
            with pytest.raises(ServeError) as err:
                client.sweep(points, timeout=0.15)
            assert err.value.code == "timeout"
            assert client.stats()["daemon"]["timeouts"] == 1
            # the shielded evaluation ran to completion and landed in the
            # cache: the retry is a pure hit, no second evaluation
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                try:
                    got = client.sweep(points, timeout=0.15)
                    break
                except ServeError as exc:
                    assert exc.code == "timeout"
                    time.sleep(0.05)
            stats = client.stats()["daemon"]
    assert got == reference(points)
    assert stats["evaluations"] == 1


def test_daemon_default_timeout_applies_when_request_has_none(tmp_path):
    with DaemonThread(tmp_path, delay=0.8,
                      default_timeout=0.15) as harness:
        with harness.client() as client:
            with pytest.raises(ServeError) as err:
                client.sweep(column())
            assert err.value.code == "timeout"


# -- backpressure ----------------------------------------------------------


def test_admission_gate_rejects_with_overloaded(tmp_path):
    first = column()
    second = column(collective="allreduce")
    out = {}
    with DaemonThread(tmp_path, delay=0.6, max_pending=1) as harness:
        a = _sweep_in_thread(harness.sock, first, out, "a")
        time.sleep(0.2)  # a is mid-evaluation and holds the only slot
        with harness.client() as client:
            with pytest.raises(ServeError) as err:
                client.sweep(second)
            assert err.value.code == "overloaded"
            a.join(timeout=30)
            # the slot freed: the retry is admitted and succeeds
            got = client.sweep(second)
            stats = client.stats()["daemon"]
    assert out["a"] == reference(first)
    assert got == reference(second)
    assert stats["rejected"] == 1


# -- shutdown --------------------------------------------------------------


def test_shutdown_flushes_buffered_shards(tmp_path):
    # a huge threshold and interval: nothing flushes until shutdown does
    cache = ResultCache(tmp_path / "serve_cache", flush_threshold=10**6)
    points = column()
    with DaemonThread(tmp_path, cache=cache,
                      flush_interval=3600.0) as harness:
        with harness.client() as client:
            got = client.sweep(points)
        # rows are buffered in daemon memory only — nothing on disk yet
        probe = ResultCache(tmp_path / "serve_cache")
        assert probe.store.shard_count() == 0
    # __exit__ sent shutdown and joined: the drain flushed the buffer
    assert stored(tmp_path / "serve_cache", points) == got \
        == reference(points)
    assert ResultCache(tmp_path / "serve_cache").store.shard_count() > 0


def test_shutdown_hangs_up_on_idle_clients(tmp_path):
    """Clients still connected at shutdown are hung up on once sweeps
    have drained, and the daemon waits for their handlers: none is left
    for the event loop's teardown to cancel mid-close (which asyncio
    logs as an exception in a callback)."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as idle:
        with DaemonThread(tmp_path) as harness:
            idle.connect(harness.sock)
            with harness.client() as client:
                assert client.stats()["daemon"]["connections"] == 2
        # __exit__ sent shutdown and joined the daemon
        assert idle.recv(1) == b""
    assert harness.left_handlers == []


def test_shutdown_aborts_a_client_that_stopped_reading(tmp_path):
    """A client that sends requests and never reads the answers leaves
    its handler blocked on a full send buffer, which closing the
    connection waits to deliver.  Shutdown still flushes the buffered
    rows, aborts that connection after the grace period, and leaves no
    handler behind."""
    cache = ResultCache(tmp_path / "serve_cache", flush_threshold=10**6)
    points = column()
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as stalled:
        with DaemonThread(tmp_path, cache=cache, flush_interval=3600.0,
                          grace=0.5) as harness:
            with harness.client() as client:
                got = client.sweep(points)
            stalled.connect(harness.sock)
            # ~1 MB of stats answers: more than the socket and the
            # transport's 64 KiB high-water mark hold together
            stalled.sendall(b'{"op":"stats"}\n' * 2000)
            def blocked():
                return any(w.transport.get_write_buffer_size() > 65536
                           for w in harness.daemon._conns.values())

            deadline = time.monotonic() + 10
            while not harness.in_loop(blocked):
                assert time.monotonic() < deadline, "handler never blocked"
                time.sleep(0.01)
            started = time.monotonic()
        # __exit__ sent shutdown and joined the daemon
        assert time.monotonic() - started < 5
    assert got == reference(points)
    assert harness.left_handlers == []
    assert stored(tmp_path / "serve_cache", points) == got


def test_flush_op_publishes_pending_rows_on_demand(tmp_path):
    cache = ResultCache(tmp_path / "serve_cache", flush_threshold=10**6)
    points = column()
    with DaemonThread(tmp_path, cache=cache,
                      flush_interval=3600.0) as harness:
        with harness.client() as client:
            got = client.sweep(points)
            assert client.flush() == len(points)
        assert stored(tmp_path / "serve_cache", points) == got


# -- failed shard publishes -------------------------------------------------


def failing_publishes(monkeypatch, code):
    """Make every shard publish raise ``OSError(code)`` until the returned
    ``recover()`` is called; ``attempts`` lists each try's row count."""
    attempts = []
    failing = [True]
    append = ShardStore.append

    def flaky(self, key, rows):
        attempts.append(len(rows))
        if failing[0]:
            raise OSError(code, os.strerror(code))
        return append(self, key, rows)

    monkeypatch.setattr(ShardStore, "append", flaky)
    return attempts, lambda: failing.__setitem__(0, False)


def test_failed_publish_fails_no_sweep(tmp_path, monkeypatch, capsys):
    """A full disk at the flush threshold: the sweep still answers its
    rows, which stay pending and serve the repeat; the failure is logged
    and counted.  Only the ``flush`` op, which asks for the publish,
    answers it as an error; once the disk recovers the rows land."""
    attempts, recover = failing_publishes(monkeypatch, errno.ENOSPC)
    cache = ResultCache(tmp_path / "serve_cache", flush_threshold=2)
    # per-size units: three evaluations, three puts
    points = column(engine="event")
    with DaemonThread(tmp_path, cache=cache,
                      flush_interval=3600.0) as harness:
        with harness.client() as client:
            got = client.sweep(points)
            again = client.sweep(points)
            stats = client.stats()
            with pytest.raises(ServeError) as err:
                client.flush()
            assert err.value.code == "internal"
            assert "No space left on device" in err.value.message
            recover()
            assert client.flush() == len(points)
            after = client.stats()
    assert got == again == reference(points)
    assert attempts[:2] == [2, 3]
    daemon, buffered = stats["daemon"], stats["cache"]
    assert (daemon["evaluations"], daemon["hits"], daemon["errors"]) \
        == (3, 3, 0)
    assert daemon["publish_failures"] == 2
    assert buffered["pending_rows"] == 3 and buffered["shards"] == 0
    assert after["daemon"]["publish_failures"] == 3
    assert after["cache"]["pending_rows"] == 0
    assert stored(tmp_path / "serve_cache", points) == got
    err = capsys.readouterr().err
    assert "publishing buffered rows failed" in err
    assert "No space left on device" in err


def test_flusher_retries_after_a_failed_publish(tmp_path, monkeypatch):
    """An I/O error in a periodic flush leaves the flusher running: it
    retries every interval, and publishes once the store recovers."""
    attempts, recover = failing_publishes(monkeypatch, errno.EIO)
    cache = ResultCache(tmp_path / "serve_cache", flush_threshold=10**6)
    points = column()
    with DaemonThread(tmp_path, cache=cache, flush_interval=0.05) as harness:
        with harness.client() as client:
            got = client.sweep(points)
            deadline = time.monotonic() + 10
            while len(attempts) < 3:
                assert time.monotonic() < deadline, attempts
                time.sleep(0.02)
            recover()
            while client.stats()["cache"]["pending_rows"]:
                assert time.monotonic() < deadline
                time.sleep(0.02)
            stats = client.stats()["daemon"]
    assert stats["publish_failures"] >= 3
    assert stored(tmp_path / "serve_cache", points) == got \
        == reference(points)


def test_shutdown_completes_when_its_flush_fails(tmp_path, monkeypatch):
    """A publish that fails at shutdown still lets every later step run:
    the socket file goes, connected clients are hung up on and their
    handlers finish, and the pool stops.  The rows it could not publish
    stay counted as pending."""
    failing_publishes(monkeypatch, errno.EIO)
    cache = ResultCache(tmp_path / "serve_cache", flush_threshold=10**6)
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as idle:
        with DaemonThread(tmp_path, cache=cache,
                          flush_interval=3600.0) as harness:
            idle.connect(harness.sock)
            with harness.client() as client:
                client.sweep(column())
        # __exit__ sent shutdown and joined the daemon
        assert idle.recv(1) == b""
    assert not os.path.exists(harness.sock)
    assert harness.left_handlers == []
    assert harness.daemon._executor._shutdown
    assert harness.daemon.stats.publish_failures == 1
    assert cache.pending_rows == len(AXIS)


# -- protocol errors over the wire -----------------------------------------


def test_unknown_op_and_bad_sweeps_answer_with_errors(tmp_path):
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            with pytest.raises(ServeError) as err:
                client.request({"op": "frobnicate"})
            assert err.value.code == "bad-request"
            with pytest.raises(ServeError) as err:
                client.request({"op": "sweep", "version": PROTOCOL_VERSION,
                                "columns": []})
            assert err.value.code == "bad-request"
            with pytest.raises(ServeError) as err:
                client.request({"op": "sweep", "version": PROTOCOL_VERSION,
                                "columns": [{"library": "only"}]})
            assert err.value.code == "bad-request"
            # more sizes than one sweep may ask for: refused undecoded
            with pytest.raises(ServeError) as err:
                client.request(sweep_doc(column((64,) * (MAX_POINTS + 1))))
            assert err.value.code == "bad-request"
            assert f"exceeds {MAX_POINTS}" in err.value.message
            # a protocol v1 sweep of points and a v2 sweep of columns,
            # neither carrying the version, are refused, naming v3
            for old in ({"op": "sweep", "points": [
                            {"library": "PiP-MColl", "collective": "allgather",
                             "nodes": 2, "ppn": 4, "msg_bytes": 512}]},
                        {k: v for k, v in sweep_doc(column()).items()
                         if k != "version"}):
                with pytest.raises(ServeError) as err:
                    client.request(old)
                assert err.value.code == "bad-request"
                assert "'columns'" in err.value.message
                assert f"v{PROTOCOL_VERSION}" in err.value.message
            # a spec the engines would refuse is refused at the door
            with pytest.raises(ServeError) as err:
                client.sweep([Point("PiP-MColl", "allgather", 2, 4, 512,
                                    measure=0, engine="event")])
            assert err.value.code == "bad-request"
            # the connection survives error responses
            assert client.ping()["version"] >= 1


def test_unknown_library_or_collective_answers_bad_request(tmp_path):
    """A library that none of the registry's six names under any
    spelling, or a collective outside the microbenchmark's, is refused at
    the door: no unit is evaluated."""
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            for library, collective in (("NoSuchMPI", "allgather"),
                                        ("PiP-MColl", "allscatter")):
                with pytest.raises(ServeError) as err:
                    client.sweep(_sizes(library, collective, "auto",
                                        (64, 1024, 16384)))
                assert err.value.code == "bad-request"
                assert "unknown" in err.value.message
            stats = client.stats()["daemon"]
    assert stats["evaluations"] == 0
    assert stats["errors"] == 2


def test_library_spelling_is_evaluated_and_cached_as_the_registry_name(
        tmp_path):
    """A column whose library is spelled another way runs on the event
    engine, which takes only the registry name, and shares the registry
    spelling's cache rows: the repeat costs no evaluation."""
    sizes = (64, 1024)
    registry = _sizes("PiP-MColl", "allgather", "event", sizes)
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            first = client.sweep(
                _sizes("pip_mcoll", "allgather", "event", sizes[:1]))
            assert client.stats()["daemon"]["evaluations"] == 1
            swept = client.sweep(registry)
            again = client.sweep(
                _sizes("pip_mcoll", "allgather", "event", sizes))
            stats = client.stats()["daemon"]
    assert first == reference(registry[:1])
    assert swept == again == reference(registry)
    # the registry sweep evaluated 1024 only; the spelled repeat, nothing
    assert stats["evaluations"] == 2
    assert stats["errors"] == 0


def raw_request(sock_path, line):
    """Send one hand-written JSON line (``1e400``, ``NaN`` and the like
    reach the daemon as written); return the decoded response."""
    with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
        sock.connect(sock_path)
        sock.sendall(line.encode() + b"\n")
        with sock.makefile("rb") as reader:
            return json.loads(reader.readline())


def test_client_disconnecting_mid_line_costs_one_error(tmp_path):
    """Fault injection: a client sends half a sweep line and hangs up.
    The daemon counts one error, keeps answering other connections,
    leaves no handler behind, and still drains and flushes at
    shutdown."""
    cache = ResultCache(tmp_path / "serve_cache", flush_threshold=10**6)
    points = column()
    line = json.dumps(sweep_doc(points))
    with DaemonThread(tmp_path, cache=cache,
                      flush_interval=3600.0) as harness:
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as rude:
            rude.connect(harness.sock)
            rude.sendall(line[: len(line) // 2].encode())
        with harness.client() as client:
            got = client.sweep(points)
            deadline = time.monotonic() + 10
            while True:
                stats = client.stats()["daemon"]
                if stats["connections"] == 1 or time.monotonic() > deadline:
                    break
                time.sleep(0.01)
    assert got == reference(points)
    assert (stats["errors"], stats["connections"]) == (1, 1)
    assert harness.left_handlers == []
    assert stored(tmp_path / "serve_cache", points) == got


def test_malformed_timeout_answers_bad_request(tmp_path):
    """Only null or a finite JSON number above zero (not a bool) is a
    deadline; anything else is refused at the door, not evaluated."""
    spec = json.dumps(column_to_doc(column()[0], AXIS))
    with DaemonThread(tmp_path) as harness:

        def sweep(timeout):
            return raw_request(
                harness.sock,
                f'{{"op":"sweep","version":{PROTOCOL_VERSION},'
                f'"columns":[{spec}],"timeout":{timeout}}}',
            )

        for timeout in ('"abc"', "NaN", "true", "1e400", "-Infinity", "0",
                        "-1", "[1]"):
            response = sweep(timeout)
            assert not response["ok"], timeout
            assert response["error"]["code"] == "bad-request", timeout
            assert "timeout" in response["error"]["message"]
        with harness.client() as client:
            assert client.stats()["daemon"]["evaluations"] == 0
        for timeout in ("null", "30", "2.5"):
            assert sweep(timeout)["ok"], timeout


def test_invalid_machine_params_answer_bad_request(tmp_path):
    """A point whose machine parameters fail validation is refused at
    the door, so no engine answers it and nothing is cached."""
    params = bebop_broadwell().with_overrides(send_overhead=float("nan"))
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            for size in (64, 70_000):
                point = Point("PiP-MColl", "allgather", 2, 2, size,
                              params=params, engine="auto")
                with pytest.raises(ServeError) as err:
                    client.sweep([point])
                assert err.value.code == "bad-request"
                assert "send_overhead" in err.value.message
            assert client.stats()["daemon"]["evaluations"] == 0


def test_evaluation_failure_reports_internal_not_a_hang(tmp_path):
    # a well-formed spec no engine can evaluate: OpenMPI has no size
    # thresholds to override, which the worker finds, not the front door
    bad = [Point("OpenMPI", "allgather", 2, 4, 512, engine="event",
                 thresholds=Thresholds(allgather_large_bytes=32))]
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            with pytest.raises(ServeError) as err:
                client.sweep(bad)
            assert err.value.code == "internal"
            assert "no size thresholds" in err.value.message
            assert client.ping()["pid"] > 0  # daemon is still healthy


def test_uncovered_analytic_column_answers_bad_request(tmp_path):
    """``analytic`` is the one engine with coverage gaps: a column
    outside its closed forms is refused at the door, as ``record.py``
    refuses it, instead of failing inside a worker."""
    bad = [Point("OpenMPI", "allreduce", 2, 4, s, engine="analytic")
           for s in (64, 1024)]
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            with pytest.raises(ServeError) as err:
                client.sweep(bad)
            assert err.value.code == "bad-request"
            assert "'analytic' does not cover OpenMPI/allreduce" \
                in err.value.message
            assert client.stats()["daemon"]["evaluations"] == 0


def test_request_id_is_echoed(tmp_path):
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            response = client.request({"op": "ping", "id": "req-42"})
    assert response["id"] == "req-42"


def test_stats_document_shape(tmp_path):
    with DaemonThread(tmp_path) as harness:
        with harness.client() as client:
            client.sweep(column((64,), engine="event"))
            doc = client.stats()
    for section in ("daemon", "cache", "lowering"):
        assert section in doc
    # one per-point event unit: it lowers nothing
    assert doc["lowering"] == {"lowerings": 0, "units": 1}
    daemon = doc["daemon"]
    for key in ("requests", "sweeps", "points", "hits", "misses",
                "coalesced", "evaluations", "timeouts", "rejected",
                "inflight", "active", "uptime_s", "jobs", "pid"):
        assert key in daemon
    assert daemon["inflight"] == 0 and daemon["active"] == 0
