"""Wire protocol of the sweep daemon: newline-delimited JSON messages.

One message is one JSON object on one ``\\n``-terminated line — trivially
parseable from any language, debuggable with ``nc``/``socat``, and
framing-safe (JSON strings never contain raw newlines).  Requests carry
an ``op`` plus op-specific fields and an optional client-chosen ``id``
that is echoed verbatim in the response:

========== ==============================================================
op          request fields → response fields
========== ==============================================================
``sweep``   ``points`` (list of point specs), optional ``timeout``
            seconds (a finite number > 0, or ``null`` for none) →
            ``results`` (list of result docs, in request order)
``stats``   → ``stats`` (daemon/cache/lowering counter document)
``ping``    → ``version`` (protocol version), ``pid``
``flush``   → ``flushed`` (rows published to shards)
``shutdown`` → acknowledged, then the daemon drains and exits
========== ==============================================================

Every response has ``ok``; failures carry ``error = {code, message}``
with codes from :data:`ERROR_CODES` (``overloaded`` and ``timeout`` are
the backpressure/cancellation signals clients are expected to handle,
e.g. by retrying later).

Point specs are :meth:`~repro.bench.runner.points.Point` fields with
``params``/``thresholds`` as nested dataclass dicts or ``null``
(:func:`point_to_doc` / :func:`point_from_doc`).  Results travel as the
same documents the pre-1.4.0 JSON cache used
(:func:`~repro.bench.runner.cache.result_to_doc`); JSON floats serialize
via ``repr`` and therefore round-trip float64 **exactly**, so a result
crossing the socket stays bit-identical to one computed in-process —
the property ``tests/serve/`` pins against ``SweepRunner.run``.
"""

from __future__ import annotations

import asyncio
import json
import math
from dataclasses import asdict
from typing import Optional, Tuple, Union

from repro.bench.microbench import ENGINES
from repro.bench.runner.cache import result_from_doc, result_to_doc
from repro.bench.runner.points import Point
from repro.core.tuning import Thresholds
from repro.hw.params import MachineParams

__all__ = [
    "PROTOCOL_VERSION", "MAX_LINE", "ERROR_CODES", "ServeError",
    "parse_address", "point_to_doc", "point_from_doc", "wire_timeout",
    "result_to_doc", "result_from_doc",
    "encode_message", "decode_message", "read_message", "write_message",
]

PROTOCOL_VERSION = 1

#: one message may not exceed this many bytes on the wire — bounds daemon
#: memory per connection; a full 121-size column request is ~30 kB, so
#: the ceiling is generous without being unbounded
MAX_LINE = 8 * 1024 * 1024

ERROR_CODES = (
    "bad-request",   # unparseable message or malformed point spec
    "overloaded",    # admission gate full: back off and retry
    "timeout",       # the request's own deadline expired (work may
                     # still complete and populate the cache)
    "shutting-down", # daemon is draining; no new sweeps accepted
    "internal",      # evaluation raised; message carries the repr
)


class ServeError(Exception):
    """A protocol-level failure, carried as ``{code, message}`` on the
    wire and raised client-side."""

    def __init__(self, code: str, message: str):
        super().__init__(f"{code}: {message}")
        self.code = code
        self.message = message

    def to_doc(self) -> dict:
        return {"code": self.code, "message": self.message}

    @classmethod
    def from_doc(cls, doc: dict) -> "ServeError":
        return cls(
            str(doc.get("code", "internal")), str(doc.get("message", ""))
        )


Address = Union[Tuple[str, str, int], Tuple[str, str]]


def parse_address(address: str) -> Address:
    """``"host:port"`` → ``("tcp", host, port)``; anything else is a
    filesystem path → ``("unix", path)``.

    A lone integer means TCP on localhost (``"8641"`` ≡
    ``"127.0.0.1:8641"``).  Unix sockets are the default for local use —
    filesystem permissions for free, no port collisions between test
    runs.
    """
    text = address.strip()
    if not text:
        raise ValueError("empty serve address")
    if text.isdigit():
        return ("tcp", "127.0.0.1", int(text))
    host, sep, port = text.rpartition(":")
    if sep and host and port.isdigit() and "/" not in host:
        return ("tcp", host, int(port))
    return ("unix", text)


# -- point specs ------------------------------------------------------------


def point_to_doc(point: Point) -> dict:
    """The wire form of one sweep point.

    ``params``/``thresholds`` stay ``None`` when the point uses defaults
    (the daemon reconstructs the identical :class:`Point`, so cache keys
    and results match a local ``SweepRunner`` run exactly).
    """
    return {
        "library": point.library,
        "collective": point.collective,
        "nodes": point.nodes,
        "ppn": point.ppn,
        "msg_bytes": point.msg_bytes,
        "warmup": point.warmup,
        "measure": point.measure,
        "params": None if point.params is None else asdict(point.params),
        "thresholds": (
            None if point.thresholds is None else asdict(point.thresholds)
        ),
        "engine": point.engine,
    }


#: integer point fields -> smallest valid value.  Zero bytes is valid:
#: the event engine answers it.
_INT_FLOORS = {"nodes": 1, "ppn": 1, "msg_bytes": 0, "warmup": 0,
               "measure": 1}


def _wire_int(name: str, value) -> int:
    """``value`` if it is a JSON integer (not a bool, not a float) no
    smaller than ``name``'s floor in :data:`_INT_FLOORS`; raises
    ``bad-request`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(
            "bad-request", f"{name} must be an integer, got {value!r}"
        )
    if value < _INT_FLOORS[name]:
        raise ServeError(
            "bad-request",
            f"{name} must be >= {_INT_FLOORS[name]}, got {value}",
        )
    return value


def wire_timeout(value) -> Optional[float]:
    """A sweep's ``timeout`` field as seconds, or None for no deadline.

    Only ``null`` or a finite JSON number above zero that is not a bool
    is accepted; anything else raises ``bad-request``.
    """
    if value is None:
        return None
    try:
        ok = (not isinstance(value, bool) and isinstance(value, (int, float))
              and math.isfinite(value) and value > 0)
    except OverflowError:  # an integer beyond float range
        ok = False
    if not ok:
        raise ServeError(
            "bad-request",
            f"timeout must be a finite number of seconds > 0, got {value!r}",
        )
    return float(value)


def point_from_doc(doc: dict) -> Point:
    """Rebuild a :class:`Point` from its wire form; raises
    :class:`ServeError` (``bad-request``) on anything malformed."""
    if not isinstance(doc, dict):
        raise ServeError("bad-request", f"point spec is not an object: {doc!r}")
    try:
        params = doc.get("params")
        thresholds = doc.get("thresholds")
        engine = str(doc.get("engine", "event"))
        if engine not in ENGINES:
            # validate at the daemon's front door (same message as the
            # SweepRunner constructor) instead of deep inside a worker
            raise ServeError(
                "bad-request", f"unknown engine {engine!r}; known: {ENGINES}"
            )
        if params is not None:
            params = MachineParams(**params)
            params.validate()
        return Point(
            library=str(doc["library"]),
            collective=str(doc["collective"]),
            nodes=_wire_int("nodes", doc["nodes"]),
            ppn=_wire_int("ppn", doc["ppn"]),
            msg_bytes=_wire_int("msg_bytes", doc["msg_bytes"]),
            warmup=_wire_int("warmup", doc.get("warmup", 1)),
            measure=_wire_int("measure", doc.get("measure", 2)),
            params=params,
            thresholds=(
                None if thresholds is None else Thresholds(**thresholds)
            ),
            engine=engine,
        )
    except ServeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError("bad-request", f"malformed point spec: {exc}") from None


# -- framing ----------------------------------------------------------------


def encode_message(doc: dict) -> bytes:
    """One message, framed: compact JSON + newline."""
    line = json.dumps(doc, separators=(",", ":")).encode("utf-8") + b"\n"
    if len(line) > MAX_LINE:
        raise ServeError(
            "bad-request", f"message of {len(line)} bytes exceeds {MAX_LINE}"
        )
    return line


def decode_message(line: bytes) -> dict:
    """Parse one framed line; raises :class:`ServeError` on junk."""
    try:
        doc = json.loads(line)
    except ValueError as exc:
        raise ServeError("bad-request", f"unparseable message: {exc}") from None
    if not isinstance(doc, dict):
        raise ServeError("bad-request", "message is not a JSON object")
    return doc


async def read_message(reader: asyncio.StreamReader) -> Optional[dict]:
    """The next message on ``reader``, or ``None`` on a clean EOF."""
    try:
        line = await reader.readuntil(b"\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise ServeError(
            "bad-request", "connection closed mid-message"
        ) from None
    except asyncio.LimitOverrunError:
        raise ServeError(
            "bad-request", f"message exceeds the {MAX_LINE}-byte line limit"
        ) from None
    return decode_message(line)


async def write_message(writer: asyncio.StreamWriter, doc: dict) -> None:
    writer.write(encode_message(doc))
    await writer.drain()
