"""The persistent sweep daemon: one warm process, many clients.

Architecture (one asyncio event loop, one resident worker pool)::

    client conns ──> per-connection handler (sequential per conn)
                        │  admission gate (max_pending, else "overloaded")
                        │  per-request deadline (wait_for + cancellation)
                        ▼
                  _run_points: cache pass ──hits──> response
                        │ misses, grouped into work units
                        ▼
                  per-unit-key future table  ── coalesce: await the
                        │ (single flight)        in-flight task
                        ▼
                  resident executor (forked workers, warm planner/
                  lowering caches) running the *same* top-level worker
                  functions the SweepRunner pool uses
                        ▼
                  buffered ResultCache puts ── periodic + shutdown flush
                                               to columnar shards

**Coalescing.**  Work units are the sweep runner's: one *column* (points
identical but for ``msg_bytes``, routed via
:func:`~repro.bench.runner.pool.plan_column_routes`) or one scalar
point.  Each unit in flight is an ``asyncio.Task`` registered in a table
keyed by the unit's cache key — the column-group hash for columns,
``"pt:"+cache_key`` for points.  A request whose misses land on a key
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

**Shutdown.**  ``shutdown`` op or SIGINT/SIGTERM: stop accepting, give
in-flight requests and evaluations a grace period to drain, cancel the
stragglers, flush buffered rows to shards, stop the pool.  The flush is
the part that matters — buffered puts are the write-batching half of the
columnar store, and the daemon owns the buffer.

Results are **bit-identical** to
:meth:`~repro.bench.runner.pool.SweepRunner.run` on the same point list:
identical routing, identical worker functions, identical cache; the
engines' own bit-identity contracts do the rest (``tests/serve/`` pins
it end to end through a real socket).
"""

from __future__ import annotations

import asyncio
import os
import sys
import time
from concurrent.futures import Executor, ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Dict, List, Optional, Sequence

from repro.bench.microbench import MicrobenchResult
from repro.bench.runner.cache import ResultCache, cache_key, column_key
from repro.bench.runner.points import Point
from repro.bench.runner.pool import (
    _default_jobs,
    plan_column_routes,
    run_point_spec,
    run_sweep_column_stats,
)
from repro.serve.protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    ServeError,
    parse_address,
    point_from_doc,
    read_message,
    result_to_doc,
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
        #: lowering-cache deltas shipped home by column work units (see
        #: run_sweep_column_stats)
        self._lowering = {"hits": 0, "misses": 0, "columns": 0}
        self._active = 0
        self._draining = False
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
            await self._server.wait_closed()
            await self._drain()
            flusher.cancel()
            self.cache.flush()
            if kind == "unix":
                try:
                    os.unlink(self.address[1])
                except OSError:
                    pass
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
            self.cache.flush()

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

    # -- connection handling ---------------------------------------------

    async def _handle_conn(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One client connection: requests handled sequentially, responses
        in request order (concurrency comes from concurrent clients)."""
        try:
            while True:
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
                response, stop_after = await self._dispatch(request)
                if "id" in request:
                    response["id"] = request["id"]
                await write_message(writer, response)
                if stop_after:
                    self.request_shutdown()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _dispatch(self, request: dict) -> "tuple[dict, bool]":
        self.stats.requests += 1
        op = request.get("op")
        try:
            if op == "ping":
                return {
                    "ok": True,
                    "version": PROTOCOL_VERSION,
                    "pid": os.getpid(),
                }, False
            if op == "stats":
                return {"ok": True, "stats": self.stats_doc()}, False
            if op == "flush":
                return {"ok": True, "flushed": self.cache.flush()}, False
            if op == "shutdown":
                return {"ok": True, "shutting_down": True}, True
            if op == "sweep":
                return await self._handle_sweep(request), False
            raise ServeError("bad-request", f"unknown op {op!r}")
        except ServeError as exc:
            self.stats.errors += 1
            return {"ok": False, "error": exc.to_doc()}, False
        except Exception as exc:  # evaluation/internal failure
            self.stats.errors += 1
            err = ServeError("internal", f"{type(exc).__name__}: {exc}")
            return {"ok": False, "error": err.to_doc()}, False

    async def _handle_sweep(self, request: dict) -> dict:
        if self._draining:
            raise ServeError("shutting-down", "daemon is draining")
        if self._active >= self.max_pending:
            self.stats.rejected += 1
            raise ServeError(
                "overloaded",
                f"{self._active} sweeps in flight (max_pending="
                f"{self.max_pending}); retry later",
            )
        specs = request.get("points")
        if not isinstance(specs, list) or not specs:
            raise ServeError("bad-request", "sweep needs a non-empty "
                                            "'points' list")
        points = [point_from_doc(doc) for doc in specs]
        timeout = wire_timeout(request.get("timeout", self.default_timeout))
        self.stats.sweeps += 1
        self.stats.points += len(points)
        self._active += 1
        try:
            work = self._run_points(points)
            if timeout is not None:
                try:
                    results = await asyncio.wait_for(work, timeout)
                except asyncio.TimeoutError:
                    self.stats.timeouts += 1
                    raise ServeError(
                        "timeout",
                        f"deadline of {timeout}s expired; in-flight "
                        f"evaluation continues and will populate the cache",
                    ) from None
            else:
                results = await work
        finally:
            self._active -= 1
        return {"ok": True, "results": [result_to_doc(r) for r in results]}

    # -- evaluation ------------------------------------------------------

    async def _run_points(
        self, points: Sequence[Point]
    ) -> List[MicrobenchResult]:
        """Cache pass, then concurrent single-flight unit fills — the
        async twin of :meth:`SweepRunner.run` (same routing, same worker
        functions, bit-identical results)."""
        results: List[Optional[MicrobenchResult]] = [None] * len(points)
        fills: List[Awaitable[None]] = []

        routes = plan_column_routes(points)
        col_member = {i for idxs in routes.values() for i in idxs}
        for idxs in routes.values():
            group = [points[i] for i in idxs]
            hits = self.cache.get_many(group)
            miss_idx = []
            for i, hit in zip(idxs, hits):
                if hit is not None:
                    results[i] = hit
                    self.stats.hits += 1
                else:
                    miss_idx.append(i)
            if miss_idx:
                self.stats.misses += len(miss_idx)
                fills.append(self._fill_column(points, miss_idx, results))
        for i, point in enumerate(points):
            if i in col_member:
                continue
            hit = self.cache.get(point)
            if hit is not None:
                results[i] = hit
                self.stats.hits += 1
            else:
                self.stats.misses += 1
                fills.append(self._fill_point(point, i, results))

        if fills:
            # gather cancels siblings on first failure; shielded unit
            # tasks keep running and stay coalescable
            await asyncio.gather(*fills)
        return results  # type: ignore[return-value]

    async def _fill_column(
        self,
        points: Sequence[Point],
        miss_idx: List[int],
        results: List[Optional[MicrobenchResult]],
    ) -> None:
        misses = [points[i] for i in miss_idx]
        got = await self._fetch_column(column_key(misses[0]), misses)
        for i, point in zip(miss_idx, misses):
            results[i] = got[point.msg_bytes]

    async def _fetch_column(
        self, key: str, misses: List[Point]
    ) -> Dict[int, MicrobenchResult]:
        """Single-flight fill of one column's missing sizes.

        If the column is already being evaluated, await that task and
        re-check the cache: an identical or superset request costs zero
        extra work; a partial overlap loops and evaluates only what is
        still missing.  The loop terminates because each pass either
        drains ``pending`` from the cache or owns a task that evaluates
        exactly ``pending``.
        """
        out: Dict[int, MicrobenchResult] = {}
        pending = list(misses)
        while pending:
            task = self._inflight.get(key)
            if task is None:
                task = asyncio.create_task(
                    self._evaluate_column(list(pending))
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
            pending = still
        return out

    async def _fill_point(
        self,
        point: Point,
        index: int,
        results: List[Optional[MicrobenchResult]],
    ) -> None:
        """Single-flight fill of one scalar point (unit covers exactly
        the point, so waiters can take the task's result directly)."""
        key = "pt:" + cache_key(point)
        task = self._inflight.get(key)
        if task is None:
            task = asyncio.create_task(self._evaluate_point(point))
            self._inflight[key] = task
            task.add_done_callback(self._inflight_done(key))
        else:
            self.stats.coalesced += 1
        results[index] = await asyncio.shield(task)

    def _inflight_done(self, key: str) -> Callable[[asyncio.Task], None]:
        def _cb(task: asyncio.Task) -> None:
            if self._inflight.get(key) is task:
                del self._inflight[key]
            if not task.cancelled():
                # retrieve the exception even if every waiter timed out
                # first, so the loop never logs "never retrieved"
                task.exception()
        return _cb

    async def _evaluate_column(
        self, group: List[Point]
    ) -> List[MicrobenchResult]:
        self.stats.evaluations += 1
        col_results, delta = await self._run_in_pool(
            run_sweep_column_stats, group
        )
        self._lowering["hits"] += delta["hits"]
        self._lowering["misses"] += delta["misses"]
        self._lowering["columns"] += 1
        for point, result in zip(group, col_results):
            self.cache.put(point, result)
        return col_results

    async def _evaluate_point(self, point: Point) -> MicrobenchResult:
        self.stats.evaluations += 1
        result = await self._run_in_pool(run_point_spec, point)
        self.cache.put(point, result)
        return result

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
    print("repro.serve: drained and flushed, bye", file=sys.stderr)
    return 0
