"""Wire protocol of the sweep daemon: newline-delimited JSON messages.

One message is one JSON object on one ``\\n``-terminated line — trivially
parseable from any language, debuggable with ``nc``/``socat``, and
framing-safe (JSON strings never contain raw newlines).  Requests carry
an ``op`` plus op-specific fields and an optional client-chosen ``id``
that is echoed verbatim in the response:

========== ==============================================================
op          request fields → response fields
========== ==============================================================
``sweep``   ``columns`` (list of column specs), optional ``timeout``
            seconds (a finite number > 0, or ``null`` for none) →
            ``results`` (list of result docs: column by column, each in
            its ``sizes`` order)
``stats``   → ``stats`` (daemon/cache/lowering counter document)
``ping``    → ``version`` (protocol version), ``pid``
``flush``   → ``flushed`` (rows published to shards)
``shutdown`` → acknowledged, then the daemon drains and exits
========== ==============================================================

Every response has ``ok``; failures carry ``error = {code, message}``
with codes from :data:`ERROR_CODES` (``overloaded`` and ``timeout`` are
the backpressure/cancellation signals clients are expected to handle,
e.g. by retrying later).

A column spec is a :class:`~repro.bench.runner.points.Point` spec
without ``msg_bytes`` (``params``/``thresholds`` as nested dataclass
dicts or ``null``) plus ``sizes``, a non-empty list of JSON integers::

    {"op": "sweep", "timeout": 60, "columns": [
      {"library": "PiP-MColl", "collective": "allgather", "nodes": 4,
       "ppn": 8, "warmup": 1, "measure": 2, "params": null,
       "thresholds": null, "engine": "auto", "sizes": [512, 4096, 65536]}]}

The spec is validated once per column and the sizes one by one
(:func:`column_to_doc` / :func:`column_from_doc`), so a request pays its
per-message costs once per column rather than once per size.  A sweep
may carry at most :data:`MAX_POINTS` sizes in all, the most one response
can hold (:func:`sweep_points`).  Results travel as the same documents
the pre-1.4.0 JSON cache used
(:func:`~repro.bench.runner.cache.result_to_doc`); JSON floats serialize
via ``repr`` and therefore round-trip float64 **exactly**, so a result
crossing the socket stays bit-identical to one computed in-process —
the property ``tests/serve/`` pins against ``SweepRunner.run``.  Each
served row's document is encoded once (:func:`encoded_result`) and a
sweep response is a join of those bytes (:func:`encode_results`).
"""

from __future__ import annotations

import asyncio
import json
import math
import weakref
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.microbench import COLLECTIVES, ENGINES, MicrobenchResult
from repro.bench.runner.cache import result_from_doc, result_to_doc
from repro.bench.runner.points import Point
from repro.core.tuning import Thresholds
from repro.hw.params import MachineParams
from repro.sched.registry import LIBRARIES, PLANNER_BACKED, canonical_name

__all__ = [
    "PROTOCOL_VERSION", "MAX_LINE", "ERROR_CODES", "ServeError",
    "MAX_POINTS", "parse_address", "column_to_doc", "column_from_doc",
    "sweep_points", "wire_timeout", "result_to_doc", "result_from_doc",
    "encoded_result", "encode_results", "encode_message", "decode_message",
    "read_message", "write_message",
]

PROTOCOL_VERSION = 2

#: one message may not exceed this many bytes on the wire — bounds the
#: daemon's read buffer per connection (the work a sweep may ask for is
#: bounded by MAX_POINTS); a 121-size column's request is under 1 kB and
#: its response ~24 kB, so the ceiling is generous without being unbounded
MAX_LINE = 8 * 1024 * 1024

ERROR_CODES = (
    "bad-request",   # unparseable message or malformed column spec
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


# -- column specs -----------------------------------------------------------


def column_to_doc(point: Point, sizes: Sequence[int]) -> dict:
    """The wire form of one sweep column: ``point``'s spec without
    ``msg_bytes``, plus ``sizes``.

    ``params``/``thresholds`` stay ``None`` when the point uses defaults
    (the daemon reconstructs identical :class:`Point` values, so cache
    keys and results match a local ``SweepRunner`` run exactly).
    """
    return {
        "library": point.library,
        "collective": point.collective,
        "nodes": point.nodes,
        "ppn": point.ppn,
        "warmup": point.warmup,
        "measure": point.measure,
        "params": None if point.params is None else asdict(point.params),
        "thresholds": (
            None if point.thresholds is None else asdict(point.thresholds)
        ),
        "engine": point.engine,
        "sizes": list(sizes),
    }


def _wire_int(name: str, value, floor: int) -> int:
    """``value`` if it is a JSON integer (not a bool, not a float) no
    smaller than ``floor``; raises ``bad-request`` naming ``name``
    otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(
            "bad-request", f"{name} must be an integer, got {value!r}"
        )
    if value < floor:
        raise ServeError(
            "bad-request", f"{name} must be >= {floor}, got {value}"
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


def column_from_doc(doc: dict) -> List[Point]:
    """The points of one column, from its wire form, in ``sizes`` order;
    raises :class:`ServeError` (``bad-request``) on anything malformed."""
    if not isinstance(doc, dict):
        raise ServeError("bad-request",
                         f"column spec is not an object: {doc!r}")
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
        library = str(doc["library"])
        entry = PLANNER_BACKED.get(canonical_name(library))
        if entry is None:
            raise ServeError("bad-request", f"unknown library {library!r}; "
                                            f"known: {list(LIBRARIES)}")
        # the registry spelling: every engine takes it, and a column is
        # cached under one key however the caller spelled its library
        library = entry[0]
        collective = str(doc["collective"])
        if collective not in COLLECTIVES:
            raise ServeError("bad-request", f"unknown collective "
                                            f"{collective!r}; known: "
                                            f"{list(COLLECTIVES)}")
        # Point's positional fields before msg_bytes, then after it
        head = (
            library,
            collective,
            _wire_int("nodes", doc["nodes"], 1),
            _wire_int("ppn", doc["ppn"], 1),
        )
        rest = (
            _wire_int("warmup", doc.get("warmup", 1), 0),
            _wire_int("measure", doc.get("measure", 2), 1),
            params,
            None if thresholds is None else Thresholds(**thresholds),
            engine,
        )
        sizes = doc["sizes"]
    except ServeError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError("bad-request",
                         f"malformed column spec: {exc}") from None
    if not isinstance(sizes, list) or not sizes:
        raise ServeError("bad-request", f"sizes must be a non-empty list, "
                                        f"got {sizes!r}")
    # zero bytes is a valid size: the event engine answers it
    return [Point(*head, _wire_int(f"sizes[{i}]", size, 0), *rest)
            for i, size in enumerate(sizes)]


def sweep_points(columns) -> List[Point]:
    """The points of a sweep's ``columns`` field, column by column.

    Raises ``bad-request`` for anything but a non-empty list of valid
    column specs, and — before any point is built — for more than
    :data:`MAX_POINTS` sizes in all.
    """
    if not isinstance(columns, list) or not columns:
        raise ServeError(
            "bad-request", f"sweep needs a non-empty 'columns' list "
                           f"(protocol v{PROTOCOL_VERSION})"
        )
    count = sum(
        len(doc["sizes"]) for doc in columns
        if isinstance(doc, dict) and isinstance(doc.get("sizes"), list)
    )
    if count > MAX_POINTS:
        raise ServeError(
            "bad-request", f"sweep of {count} points exceeds {MAX_POINTS}, "
                           f"the most one response can carry"
        )
    return [p for doc in columns for p in column_from_doc(doc)]


# -- framing ----------------------------------------------------------------


def _framed(line: bytes) -> bytes:
    """``line`` and its newline; refused beyond :data:`MAX_LINE`."""
    line += b"\n"
    if len(line) > MAX_LINE:
        raise ServeError(
            "bad-request", f"message of {len(line)} bytes exceeds {MAX_LINE}"
        )
    return line


def _compact(doc: dict) -> bytes:
    """``doc`` as compact JSON: the encoding of every message and row."""
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


def encode_message(doc: dict) -> bytes:
    """One message, framed: compact JSON + newline."""
    return _framed(_compact(doc))


#: the most points one sweep may ask for.  Its response carries a result
#: document per point, none shorter than one with empty names and
#: one-digit numbers, so a larger sweep could never be answered within
#: MAX_LINE (a size costs two bytes of request, so MAX_LINE alone would
#: admit some four million)
MAX_POINTS = MAX_LINE // (
    len(_compact(result_to_doc(MicrobenchResult("", "", 0, 0, 0, 0, (), 0))))
    + 1  # the comma between documents
)

#: id(row) -> (weak reference to the row, its encoded document); see
#: encoded_result
_ENCODED: Dict[int, Tuple[weakref.ref, bytes]] = {}


def encoded_result(row: MicrobenchResult) -> bytes:
    """``row``'s result document as compact JSON bytes, encoded on the
    first call for this row object and reused after it.

    Rows are immutable and the memo is keyed by the row *object*, so its
    bytes never describe another row: a put or flush that replaces a
    cached row installs a new object, which encodes afresh.  The memo
    holds its row weakly and drops the bytes when the row is freed, so
    they never outlive it.  (Keys are ids, not rows: rows compare by
    value, and ``0.0 == -0.0`` would serve one row's bytes for another.)
    """
    key = id(row)
    entry = _ENCODED.get(key)
    if entry is not None and entry[0]() is row:
        return entry[1]
    blob = _compact(result_to_doc(row))
    _ENCODED[key] = (weakref.ref(row, lambda _: _ENCODED.pop(key, None)),
                     blob)
    return blob


def encode_results(results: Sequence[MicrobenchResult], tail: dict) -> bytes:
    """A successful sweep response, framed: ``results``' encoded rows
    joined, plus ``tail``'s fields (the echoed ``id``, if any)."""
    line = (b'{"ok":true,"results":['
            + b",".join([encoded_result(r) for r in results]) + b"]")
    if tail:
        line += b"," + _compact(tail)[1:-1]
    return _framed(line + b"}")


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
