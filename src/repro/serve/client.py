"""Synchronous client for the sweep daemon.

The daemon is async because it multiplexes many clients; a *client* is a
plain blocking socket — figure scripts, notebooks, and shells don't want
an event loop.  One :class:`SweepClient` holds one connection and issues
requests sequentially (responses come back in request order); run several
clients for concurrency, which is exactly what the daemon exists to
coalesce.

Command line::

    python -m repro.serve.client --connect /tmp/repro.sock \\
        --library PiP-MColl --collective allgather --nodes 4 --ppn 8 \\
        --sizes 512,4096,65536 --engine auto
    python -m repro.serve.client --connect 127.0.0.1:8641 --stats
"""

from __future__ import annotations

import argparse
import json
import socket
import sys
import time
from typing import List, Optional, Sequence

from repro.bench.microbench import MicrobenchResult
from repro.bench.runner.points import Point, columns_of
from repro.serve.protocol import (
    MAX_LINE,
    PROTOCOL_VERSION,
    ServeError,
    column_to_doc,
    decode_message,
    decode_results,
    encode_message,
    parse_address,
)

__all__ = ["SweepClient", "wait_until_ready", "main"]


class SweepClient:
    """One blocking connection to a :class:`~repro.serve.daemon.
    SweepDaemon`; usable as a context manager."""

    def __init__(self, address: str, connect_timeout: float = 10.0):
        self.address = parse_address(address)
        self.connect_timeout = connect_timeout
        self._sock: Optional[socket.socket] = None
        self._file = None

    # -- connection ------------------------------------------------------

    def connect(self) -> "SweepClient":
        if self._sock is not None:
            return self
        if self.address[0] == "unix":
            sock = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                sock.settimeout(self.connect_timeout)
                sock.connect(self.address[1])
            except BaseException:
                sock.close()
                raise
        else:
            _, host, port = self.address
            sock = socket.create_connection(
                (host, port), timeout=self.connect_timeout
            )
        # request timeouts are the daemon's job; the client blocks
        sock.settimeout(None)
        self._sock = sock
        self._file = sock.makefile("rwb")
        return self

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
            self._sock = None

    def __enter__(self) -> "SweepClient":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    # -- requests --------------------------------------------------------

    def request(self, doc: dict) -> dict:
        """Send one message, block for its response; raises
        :class:`ServeError` on an error response or a dropped
        connection."""
        if self._file is None:
            self.connect()
        self._file.write(encode_message(doc))
        self._file.flush()
        line = self._file.readline(MAX_LINE + 1)
        if not line:
            raise ServeError("internal", "connection closed by daemon")
        response = decode_message(line)
        if not response.get("ok"):
            raise ServeError.from_doc(response.get("error", {}))
        return response

    def sweep(
        self, points: Sequence[Point], timeout: Optional[float] = None
    ) -> List[MicrobenchResult]:
        """Evaluate ``points`` on the daemon; results in request order,
        bit-identical to a local ``SweepRunner.run``.

        The request carries one column spec per distinct column among
        ``points``, each with its sizes in request order; each row is
        rebuilt from its column's identity fields, its size and its
        fragment of the response.
        """
        groups = columns_of(points)
        sizes = [[points[i].msg_bytes for i in idxs]
                 for idxs in groups.values()]
        doc = {"op": "sweep", "version": PROTOCOL_VERSION, "columns": [
            column_to_doc(spec, column_sizes)
            for spec, column_sizes in zip(groups, sizes)
        ]}
        if timeout is not None:
            doc["timeout"] = timeout
        columns = decode_results(self.request(doc), sizes)
        results: List[Optional[MicrobenchResult]] = [None] * len(points)
        for idxs, rows in zip(groups.values(), columns):
            for i, row in zip(idxs, rows):
                results[i] = row
        return results  # type: ignore[return-value]

    def stats(self) -> dict:
        return self.request({"op": "stats"})["stats"]

    def ping(self) -> dict:
        return self.request({"op": "ping"})

    def flush(self) -> int:
        return self.request({"op": "flush"})["flushed"]

    def shutdown(self) -> None:
        self.request({"op": "shutdown"})


def wait_until_ready(
    address: str, deadline: float = 10.0, poll: float = 0.05
) -> None:
    """Block until a daemon answers a ping at ``address`` (used after
    spawning ``python -m repro.serve`` as a subprocess)."""
    end = time.monotonic() + deadline
    last: Exception = ServeError("internal", "never attempted")
    while time.monotonic() < end:
        try:
            with SweepClient(address, connect_timeout=poll * 4) as client:
                client.ping()
                return
        except (OSError, ServeError) as exc:
            last = exc
            time.sleep(poll)
    raise TimeoutError(
        f"no daemon answering at {address} within {deadline}s: {last}"
    )


# -- command line -----------------------------------------------------------


def _parse_sizes(text: str) -> List[int]:
    sizes = [int(s) for s in text.split(",") if s.strip()]
    if not sizes:
        raise ValueError("--sizes selected no sizes")
    return sizes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve.client",
        description="Talk to a running sweep daemon.",
    )
    parser.add_argument(
        "--connect", required=True, metavar="ADDR",
        help="daemon address: host:port or unix-socket path",
    )
    parser.add_argument("--stats", action="store_true",
                        help="print daemon counters and exit")
    parser.add_argument("--ping", action="store_true",
                        help="health check and exit")
    parser.add_argument("--shutdown", action="store_true",
                        help="ask the daemon to drain, flush and exit")
    parser.add_argument("--json", action="store_true",
                        help="print raw JSON instead of a table")
    parser.add_argument("--library")
    parser.add_argument("--collective")
    parser.add_argument("--nodes", type=int)
    parser.add_argument("--ppn", type=int)
    parser.add_argument("--sizes", metavar="B1,B2,...",
                        help="comma-separated message sizes in bytes")
    parser.add_argument("--engine", default="auto")
    parser.add_argument("--warmup", type=int, default=1)
    parser.add_argument("--measure", type=int, default=2)
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-request deadline in seconds")
    args = parser.parse_args(argv)

    try:
        with SweepClient(args.connect) as client:
            if args.ping:
                doc = client.ping()
                print(json.dumps(doc) if args.json
                      else f"ok: daemon pid {doc['pid']} "
                           f"(protocol v{doc['version']})")
                return 0
            if args.stats:
                doc = client.stats()
                if args.json:
                    print(json.dumps(doc, indent=2))
                else:
                    d = doc["daemon"]
                    print(
                        f"daemon pid {d['pid']}: {d['sweeps']} sweeps / "
                        f"{d['points']} points ({d['hits']} hits, "
                        f"{d['misses']} misses, {d['coalesced']} coalesced, "
                        f"{d['evaluations']} evaluations), "
                        f"{d['active']} active, {d['inflight']} in flight, "
                        f"{d['rejected']} rejected, {d['timeouts']} "
                        f"timeouts, up {d['uptime_s']:.1f}s"
                    )
                return 0
            if args.shutdown:
                client.shutdown()
                print("daemon shutting down")
                return 0

            required = ("library", "collective", "nodes", "ppn", "sizes")
            missing = [k for k in required if getattr(args, k) is None]
            if missing:
                parser.error(
                    f"sweep needs --{' --'.join(missing)} "
                    f"(or one of --stats/--ping/--shutdown)"
                )
            points = [
                Point(
                    args.library, args.collective, args.nodes, args.ppn,
                    size, warmup=args.warmup, measure=args.measure,
                    engine=args.engine,
                )
                for size in _parse_sizes(args.sizes)
            ]
            results = client.sweep(points, timeout=args.timeout)
            if args.json:
                from repro.bench.runner.cache import result_to_doc

                print(json.dumps([result_to_doc(r) for r in results],
                                 indent=2))
            else:
                for r in results:
                    print(
                        f"{r.library:>15} {r.collective:<9} "
                        f"{r.nodes}x{r.ppn:<2} {r.msg_bytes:>8}B  "
                        f"{r.time * 1e6:10.3f} us"
                    )
            return 0
    except ServeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: cannot reach daemon at {args.connect}: {exc}",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
