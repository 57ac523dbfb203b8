"""The persistent sweep daemon: one warm process, many clients.

Architecture (one asyncio event loop, one resident worker pool)::

    client conns ──> per-connection handler (sequential per conn)
                        │  admission gate (max_pending, else "overloaded")
                        │  column specs validated, one spec per column
                        ▼
                  plan_sweep ──all hits──> response joined from the
                        │                  rows' encoded fragments, with
                        │                  no Point, suspension, task or
                        │                  timer
                        │ misses, cut into work units
                        │ per-request deadline (wait_for + cancellation)
                        ▼
                  per-unit-key future table  ── coalesce: await the
                        │ (single flight)        in-flight task
                        ▼
                  resident executor (forked workers, warm planner
                  caches) running the *same* worker function the
                  SweepRunner pool uses
                        ▼
                  buffered ResultCache puts ── periodic + shutdown flush
                                               to columnar shards

**Coalescing.**  The cache reads and work units are the sweep runner's:
:func:`~repro.bench.runner.pool.plan_sweep` takes the columns as decoded
from the wire, reads each with one ``get_many`` and cuts its misses into
units, one per column for the whole-column routes and one per size for
the rest; only the missing sizes become
:class:`~repro.bench.runner.points.Point` values.  Each unit in flight
is an ``asyncio.Task`` registered in a table keyed by the unit's column
group hash (:func:`~repro.bench.runner.cache.column_key`), plus the size
for a per-size unit.  A request whose misses land on a key
already in flight **awaits that task instead of evaluating** (the
``coalesced`` counter), then re-reads the cache: full overlaps cost zero
extra work, partial overlaps re-enter single-flight for just the
remainder.  Waiters hold the task through ``asyncio.shield``, so a
request timeout cancels only the *request*; the evaluation runs to
completion and lands in the cache — late work is never wasted, the next
client hits.

**Backpressure.**  Admission is a plain bounded counter: more than
``max_pending`` sweeps in flight and the daemon answers ``overloaded``
immediately rather than queueing unboundedly and timing everyone out.
Clients retry with backoff; the ``stats`` op exposes ``active``/
``rejected`` so operators can see the gate working.

**Publishing.**  Evaluated rows buffer in the cache and publish as
shards once ``flush_threshold`` rows are pending, every
``flush_interval`` seconds, on the ``flush`` op and at shutdown.  A
failed publish (a full disk, an I/O error) fails no sweep: the rows stay
pending and are served from the buffer, the failure is logged to stderr
and counted (``publish_failures`` in the ``stats`` op), and the next
flush retries them.  Only the ``flush`` op, which asks for the publish,
answers the failure as an error.

**Shutdown.**  ``shutdown`` op or SIGINT/SIGTERM: stop accepting, give
in-flight requests and evaluations a grace period to drain, cancel the
stragglers, flush buffered rows to shards, hang up on the clients still
connected, stop the pool.  The flush is the part that matters — buffered
puts are the write-batching half of the columnar store, and the daemon
owns the buffer — so it comes before anything that waits on a client.
A flush that fails there still lets every later step run; ``python -m
repro.serve`` then exits 1, naming the rows it could not publish.

Results are **bit-identical** to
:meth:`~repro.bench.runner.pool.SweepRunner.run` on the same point list:
one plan, one worker function, identical cache; the engines' own
bit-identity contracts do the rest (``tests/serve/`` pins
it end to end through a real socket).
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from repro.bench.microbench import MicrobenchResult
from repro.bench.runner.cache import ResultCache, column_key
from repro.bench.runner.pool import (
    SweepUnit,
    _default_jobs,
    plan_sweep,
    run_sweep_column_stats,
)
from repro.serve.protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    ServeError,
    encode_message,
    encode_results,
    parse_address,
    read_message,
    sweep_columns,
    wire_timeout,
    write_message,
)

__all__ = ["SweepDaemon", "DaemonStats"]


@dataclass
class DaemonStats:
    """Monotone counters since daemon start (the ``stats`` op payload)."""

    requests: int = 0        #: messages dispatched (any op)
    sweeps: int = 0          #: sweep requests admitted
    points: int = 0          #: points across admitted sweeps
    hits: int = 0            #: points answered from the cache
    misses: int = 0          #: points that needed evaluation
    coalesced: int = 0       #: misses that awaited an in-flight unit
    evaluations: int = 0     #: work units actually dispatched to the pool
    timeouts: int = 0        #: requests cancelled at their deadline
    rejected: int = 0        #: sweeps refused at the admission gate
    errors: int = 0          #: error responses (any code)
    publish_failures: int = 0  #: flushes of buffered rows that failed
    started: float = field(default_factory=time.monotonic)

    def to_doc(self) -> dict:
        return {
            "requests": self.requests,
            "sweeps": self.sweeps,
            "points": self.points,
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evaluations": self.evaluations,
            "timeouts": self.timeouts,
            "rejected": self.rejected,
            "errors": self.errors,
            "publish_failures": self.publish_failures,
            "uptime_s": time.monotonic() - self.started,
        }


class SweepDaemon:
    """A newline-delimited-JSON sweep server (see the module docstring).

    Parameters
    ----------
    address:
        ``"host:port"`` for TCP or a filesystem path for a unix socket
        (``"127.0.0.1:0"`` binds an ephemeral port; read it back from
        :attr:`bound_address` once serving).
    cache:
        The daemon's (single, shared) :class:`ResultCache`; defaults to
        the standard directory.  All writes buffer here and flush as
        whole shards periodically and at shutdown.
    jobs:
        Resident pool width.  ``>= 1`` forks that many worker processes
        (warm across requests); ``0`` evaluates in daemon-process worker
        threads — same results, no fork, handy for tests and debugging.
        ``None`` reads ``PIPMCOLL_JOBS`` / CPU count.
    max_pending:
        Admission-gate width: sweeps in flight beyond this are refused
        with an ``overloaded`` error instead of queued.
    default_timeout:
        Per-request deadline in seconds applied when a sweep request
        carries none; ``None`` means no deadline.
    flush_interval:
        Seconds between periodic flushes of buffered cache rows.
    grace:
        Seconds shutdown waits for in-flight requests and evaluations
        before cancelling what remains.
    """

    def __init__(
        self,
        address: str,
        cache: Optional[ResultCache] = None,
        jobs: Optional[int] = None,
        max_pending: int = 32,
        default_timeout: Optional[float] = None,
        flush_interval: float = 5.0,
        grace: float = 10.0,
    ):
        self.address = parse_address(address)
        self.cache = cache if cache is not None else ResultCache()
        self.jobs = _default_jobs() if jobs is None else max(0, int(jobs))
        self.max_pending = max(1, int(max_pending))
        self.default_timeout = default_timeout
        self.flush_interval = flush_interval
        self.grace = grace
        self.stats = DaemonStats()
        #: work-unit key -> in-flight evaluation task (the coalescing
        #: table; see module docstring)
        self._inflight: Dict[str, asyncio.Task] = {}
        #: lowerings shipped home by work units (see
        #: run_sweep_column_stats)
        self._lowering = {"lowerings": 0, "units": 0}
        self._active = 0
        #: live connection handler -> its writer (see _close_conns)
        self._conns: Dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._draining = False
        self._hung_up = False
        self._server: Optional[asyncio.AbstractServer] = None
        self._executor: Optional[Executor] = None
        self._shutdown_requested: Optional[asyncio.Event] = None
        self.bound_address: Optional[str] = None

    # -- lifecycle -------------------------------------------------------

    async def serve(
        self, ready: Optional[Callable[["SweepDaemon"], None]] = None
    ) -> None:
        """Listen and serve until :meth:`request_shutdown`.

        ``ready(self)`` fires once the socket is bound (tests and
        embedders use it instead of polling)."""
        self._shutdown_requested = asyncio.Event()
        self._executor = self._make_executor()
        kind = self.address[0]
        if kind == "unix":
            path = self.address[1]
            self._server = await asyncio.start_unix_server(
                self._handle_conn, path=path, limit=MAX_LINE
            )
            self.bound_address = path
        else:
            _, host, port = self.address
            self._server = await asyncio.start_server(
                self._handle_conn, host=host, port=port, limit=MAX_LINE
            )
            sock = self._server.sockets[0].getsockname()
            self.bound_address = f"{sock[0]}:{sock[1]}"
        flusher = asyncio.create_task(self._flusher())
        if ready is not None:
            ready(self)
        try:
            await self._shutdown_requested.wait()
        finally:
            self._draining = True
            self._server.close()
            await self._drain()
            flusher.cancel()
            self._publish()
            if kind == "unix":
                try:
                    os.unlink(self.address[1])
                except OSError:
                    pass
            await self._close_conns()
            # last: from Python 3.12.1 this waits for every connection
            # to drop, which only the hang-up above guarantees
            await self._server.wait_closed()
            self._executor.shutdown(wait=False, cancel_futures=True)

    def request_shutdown(self) -> None:
        """Begin graceful shutdown (idempotent; loop-thread only — from
        signal handlers use ``loop.call_soon_threadsafe``)."""
        if self._shutdown_requested is not None:
            self._shutdown_requested.set()

    def _make_executor(self) -> Executor:
        if self.jobs == 0:
            return ThreadPoolExecutor(
                max_workers=1, thread_name_prefix="serve-eval"
            )
        import multiprocessing as mp

        # fork (where available) inherits the warm interpreter — the
        # same rationale as SweepRunner._map_pool, but the pool persists
        # across requests, so workers also keep their planner caches warm
        method = "fork" if "fork" in mp.get_all_start_methods() else None
        return ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=mp.get_context(method)
        )

    async def _flusher(self) -> None:
        while True:
            await asyncio.sleep(self.flush_interval)
            self._publish()

    def _publish(self) -> int:
        """Publish the buffered rows; returns rows written.  A failure
        leaves the rest pending (lookups still serve them), is logged
        and counted, and returns 0: the next flush retries."""
        try:
            return self.cache.flush()
        except OSError as exc:
            self._publish_failed(exc)
            return 0

    def _publish_failed(self, exc: OSError) -> None:
        self.stats.publish_failures += 1
        print(f"repro.serve: publishing buffered rows failed ({exc}); "
              f"{self.cache.pending_rows} rows stay pending and are "
              f"retried at the next flush", file=sys.stderr, flush=True)

    async def _drain(self) -> None:
        """Give in-flight requests and evaluations ``grace`` seconds,
        then cancel what remains."""
        deadline = time.monotonic() + self.grace
        while (
            (self._active or self._inflight)
            and time.monotonic() < deadline
        ):
            tasks = list(self._inflight.values())
            if tasks:
                await asyncio.wait(
                    tasks, timeout=max(0.05, deadline - time.monotonic())
                )
            else:
                await asyncio.sleep(0.05)
        for task in list(self._inflight.values()):
            task.cancel()

    async def _close_conns(self) -> None:
        """Hang up on the clients still connected once sweeps have
        drained, and wait for their handlers, so none is left pending for
        the loop's teardown to cancel mid-close.

        Each handler reads end-of-stream and returns; one accepted too
        late to be hung up on sees ``_hung_up`` and returns at once.  A
        client that stopped reading keeps its handler blocked on a full
        send buffer, which a close waits to deliver: after ``grace``
        seconds such connections are aborted."""
        self._hung_up = True
        for writer in self._conns.values():
            writer.close()
        if not self._conns:
            return
        _, stuck = await asyncio.wait(list(self._conns), timeout=self.grace)
        for task in stuck:
            self._conns[task].transport.abort()
        if stuck:
            await asyncio.wait(stuck)

    # -- connection handling ---------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: requests handled sequentially, responses
        in request order (concurrency comes from concurrent clients)."""
        task = asyncio.current_task()
        self._conns[task] = writer
        try:
            while not self._hung_up:
                try:
                    request = await read_message(reader)
                except ServeError as exc:
                    # framing is broken — answer once, then hang up
                    self.stats.errors += 1
                    await write_message(
                        writer, {"ok": False, "error": exc.to_doc()}
                    )
                    return
                if request is None:
                    return
                line, stop_after = await self._dispatch(request)
                writer.write(line)
                await writer.drain()
                if stop_after:
                    self.request_shutdown()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            del self._conns[task]
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: dict) -> Tuple[bytes, bool]:
        """The framed response to ``request``, and whether to shut down
        once it is sent."""
        self.stats.requests += 1
        op = request.get("op")
        try:
            if op == "sweep":
                return await self._handle_sweep(request), False
            if op == "ping":
                doc = {"ok": True, "version": PROTOCOL_VERSION,
                       "pid": os.getpid()}
            elif op == "stats":
                doc = {"ok": True, "stats": self.stats_doc()}
            elif op == "flush":
                try:
                    flushed = self.cache.flush()
                except OSError as exc:
                    self._publish_failed(exc)
                    raise
                doc = {"ok": True, "flushed": flushed}
            elif op == "shutdown":
                return self._reply(request, {"ok": True,
                                             "shutting_down": True}), True
            else:
                raise ServeError("bad-request", f"unknown op {op!r}")
            return self._reply(request, doc), False
        except Exception as exc:
            return self._failure(request, exc), False

    @staticmethod
    def _reply(request: dict, doc: dict) -> bytes:
        if "id" in request:
            doc["id"] = request["id"]
        return encode_message(doc)

    def _failure(self, request: dict, exc: Exception) -> bytes:
        """The error response for ``exc``: its own code if it is a
        :class:`ServeError`, ``internal`` for an evaluation that raised."""
        self.stats.errors += 1
        if not isinstance(exc, ServeError):
            exc = ServeError("internal", f"{type(exc).__name__}: {exc}")
        return self._reply(request, {"ok": False, "error": exc.to_doc()})

    async def _handle_sweep(self, request: dict) -> bytes:
        """Admit, validate and look up a sweep, fill its misses under the
        request's deadline, and respond.  A sweep whose rows are all
        cached returns without suspending: no task, no timer."""
        if self._draining:
            raise ServeError("shutting-down", "daemon is draining")
        if self._active >= self.max_pending:
            self.stats.rejected += 1
            raise ServeError(
                "overloaded",
                f"{self._active} sweeps in flight (max_pending="
                f"{self.max_pending}); retry later",
            )
        columns = sweep_columns(request)
        timeout = wire_timeout(request.get("timeout", self.default_timeout))
        points = sum(len(sizes) for _, sizes in columns)
        self.stats.sweeps += 1
        self.stats.points += points
        planned = plan_sweep(columns, self.cache)
        misses = sum(len(col.misses) for col in planned)
        self.stats.hits += points - misses
        self.stats.misses += misses
        if misses:
            self._active += 1
            try:
                # a failed unit fails the request; shielded unit tasks
                # keep running and stay coalescable
                work = asyncio.gather(*(
                    self._fetch(unit) for col in planned for unit in col.units
                ))
                if timeout is None:
                    fetched = await work
                else:
                    try:
                        fetched = await asyncio.wait_for(work, timeout)
                    except asyncio.TimeoutError:
                        self.stats.timeouts += 1
                        raise ServeError(
                            "timeout",
                            f"deadline of {timeout}s expired; in-flight "
                            f"evaluation continues and will populate the "
                            f"cache",
                        ) from None
            finally:
                self._active -= 1
            rows = iter(fetched)
            for col in planned:
                by_size: Dict[int, MicrobenchResult] = {}
                for _ in col.units:
                    by_size.update(next(rows))
                for i in col.misses:
                    col.rows[i] = by_size[col.sizes[i]]
        tail = {"id": request["id"]} if "id" in request else {}
        return encode_results([(col.spec, col.rows) for col in planned], tail)

    # -- evaluation ------------------------------------------------------

    async def _fetch(self, unit: SweepUnit) -> Dict[int, MicrobenchResult]:
        """Single-flight evaluation of one work unit's sizes.

        If the unit's key is already being evaluated, await that task and
        re-check the cache: an identical or superset request costs zero
        extra work; a partial overlap loops and evaluates only what is
        still missing.  The loop terminates because each pass either
        drains ``pending`` from the cache or owns a task that evaluates
        exactly ``pending``.
        """
        key = column_key(unit.points[0])
        if unit.route == "point":
            key += f":{unit.points[0].msg_bytes}"
        out: Dict[int, MicrobenchResult] = {}
        pending = unit.points
        while pending:
            task = self._inflight.get(key)
            if task is None:
                task = asyncio.create_task(
                    self._evaluate(unit._replace(points=pending))
                )
                self._inflight[key] = task
                task.add_done_callback(self._inflight_done(key))
            else:
                self.stats.coalesced += 1
            await asyncio.shield(task)
            still = []
            for point in pending:
                row = self.cache.peek(point)
                if row is None:
                    still.append(point)
                else:
                    out[point.msg_bytes] = row
            pending = tuple(still)
        return out

    def _inflight_done(self, key: str) -> Callable[[asyncio.Task], None]:
        def _cb(task: asyncio.Task) -> None:
            if self._inflight.get(key) is task:
                del self._inflight[key]
            if not task.cancelled():
                # retrieve the exception even if every waiter timed out
                # first, so the loop never logs "never retrieved"
                task.exception()
        return _cb

    async def _evaluate(self, unit: SweepUnit) -> None:
        self.stats.evaluations += 1
        rows, delta = await self._run_in_pool(run_sweep_column_stats, unit)
        self._lowering["lowerings"] += delta["lowerings"]
        self._lowering["units"] += 1
        for point, row in zip(unit.points, rows):
            try:
                # buffered first: a threshold flush that fails leaves the
                # row pending, served and retried
                self.cache.put(point, row)
            except OSError as exc:
                self._publish_failed(exc)

    async def _run_in_pool(self, fn, arg):
        """One work unit on the resident executor (tests wrap this to
        inject latency/failures without touching the engines)."""
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(self._executor, fn, arg)

    # -- introspection ---------------------------------------------------

    def stats_doc(self) -> dict:
        doc = self.stats.to_doc()
        doc.update({
            "inflight": len(self._inflight),
            "active": self._active,
            "connections": len(self._conns),
            "jobs": self.jobs,
            "max_pending": self.max_pending,
            "pid": os.getpid(),
        })
        return {
            "daemon": doc,
            "cache": self.cache.stats(),
            "lowering": dict(self._lowering),
        }


def main(argv=None) -> int:
    """``python -m repro.serve`` — run the daemon in the foreground."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Persistent sweep daemon: newline-delimited JSON over "
                    "TCP (host:port) or a unix socket (path).",
    )
    parser.add_argument(
        "--listen", default="127.0.0.1:8641", metavar="ADDR",
        help="host:port, bare port, or unix-socket path "
             "(default 127.0.0.1:8641; port 0 binds ephemerally)",
    )
    parser.add_argument(
        "--jobs", type=int, default=None,
        help="resident worker processes (0 = in-process threads; "
             "default $PIPMCOLL_JOBS or CPU count)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="result-cache directory (default $PIPMCOLL_CACHE_DIR or "
             ".bench_cache)",
    )
    parser.add_argument(
        "--max-pending", type=int, default=32,
        help="sweeps in flight before new ones are refused as "
             "'overloaded' (default 32)",
    )
    parser.add_argument(
        "--timeout", type=float, default=None,
        help="default per-request deadline in seconds (requests may "
             "override; default none)",
    )
    parser.add_argument(
        "--flush-interval", type=float, default=5.0,
        help="seconds between periodic shard flushes (default 5)",
    )
    parser.add_argument(
        "--grace", type=float, default=10.0,
        help="shutdown drain window in seconds (default 10)",
    )
    args = parser.parse_args(argv)

    cache = (
        ResultCache(args.cache_dir) if args.cache_dir is not None
        else ResultCache()
    )
    daemon = SweepDaemon(
        args.listen,
        cache=cache,
        jobs=args.jobs,
        max_pending=args.max_pending,
        default_timeout=args.timeout,
        flush_interval=args.flush_interval,
        grace=args.grace,
    )

    async def _run() -> None:
        import signal

        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(sig, daemon.request_shutdown)
            except NotImplementedError:  # pragma: no cover - non-unix
                pass

        def announce(d: SweepDaemon) -> None:
            print(
                f"repro.serve: listening on {d.bound_address} "
                f"(jobs={d.jobs}, cache={d.cache.root})",
                file=sys.stderr, flush=True,
            )

        await daemon.serve(ready=announce)

    asyncio.run(_run())
    unpublished = daemon.cache.pending_rows
    if unpublished:
        print(f"repro.serve: drained, but {unpublished} buffered rows could "
              f"not be published", file=sys.stderr)
        return 1
    print("repro.serve: drained and flushed, bye", file=sys.stderr)
    return 0
