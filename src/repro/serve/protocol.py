"""Wire protocol of the sweep daemon: newline-delimited JSON messages.

One message is one JSON object on one ``\\n``-terminated line — trivially
parseable from any language, debuggable with ``nc``/``socat``, and
framing-safe (JSON strings never contain raw newlines).  Requests carry
an ``op`` plus op-specific fields and an optional client-chosen ``id``
that is echoed verbatim in the response:

========== ==============================================================
op          request fields → response fields
========== ==============================================================
``sweep``   ``version`` (:data:`PROTOCOL_VERSION`), ``columns`` (list of
            column specs), optional ``timeout`` seconds (a finite number
            > 0, or ``null`` for none) → ``columns`` (one result column
            per requested column, in request order)
``stats``   → ``stats`` (daemon/cache/lowering counter document)
``ping``    → ``version`` (protocol version), ``pid``
``flush``   → ``flushed`` (rows published to shards)
``shutdown`` → acknowledged, then the daemon drains and exits
========== ==============================================================

Every response has ``ok``; failures carry ``error = {code, message}``
with codes from :data:`ERROR_CODES` (``overloaded`` and ``timeout`` are
the backpressure/cancellation signals clients are expected to handle,
e.g. by retrying later).

A column spec is a :class:`~repro.bench.runner.points.ColumnSpec` (a
:class:`~repro.bench.runner.points.Point` spec without ``msg_bytes``;
``params``/``thresholds`` as nested dataclass dicts or ``null``) plus
``sizes``, a non-empty list of JSON integers::

    {"op": "sweep", "version": 3, "timeout": 60, "columns": [
      {"library": "PiP-MColl", "collective": "allgather", "nodes": 4,
       "ppn": 8, "warmup": 1, "measure": 2, "params": null,
       "thresholds": null, "engine": "auto", "sizes": [512, 4096, 65536]}]}

The spec is validated once per column and the sizes one by one
(:func:`column_to_doc` / :func:`column_from_doc`); the daemon plans and
looks up each column as a whole, so a request pays its per-message costs
once per column rather than once per size.  A sweep may ask for at most
:data:`MAX_POINTS` sizes in all (:func:`sweep_columns`).  A sweep
without ``"version": 3`` — a v1 sweep of ``points``, a v2 sweep of
``columns`` — answers ``bad-request``.

A sweep response carries one result column per requested column.  The
rows' identity fields travel once per column (the library in its
registry spelling); then, in the column's ``sizes`` order, one
*fragment* per size holds what varies per size, ``[time, [samples...],
internode_messages]``::

    {"ok": true, "columns": [
      {"library": "PiP-MColl", "collective": "allgather", "nodes": 4,
       "ppn": 8, "rows": [[1.5e-05, [1.5e-05, 1.5e-05], 24], ...]}]}

The client rebuilds each row from the column's identity fields, the
requested size and the fragment (:func:`decode_results`).  JSON floats
serialize via ``repr`` and therefore round-trip float64 **exactly**, so
a result crossing the socket stays bit-identical to one computed
in-process — the property ``tests/serve/`` pins against
``SweepRunner.run``.  Each served row's fragment is encoded once
(:func:`encoded_result`) and a sweep response is a join of those bytes
(:func:`encode_results`).
"""

from __future__ import annotations

import asyncio
import json
import math
import weakref
from dataclasses import asdict
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.bench.microbench import COLLECTIVES, ENGINES, MicrobenchResult
from repro.bench.runner.points import ColumnSpec, Point
from repro.core.tuning import Thresholds
from repro.hw.params import MachineParams
from repro.sched.registry import LIBRARIES, PLANNER_BACKED, canonical_name

__all__ = [
    "PROTOCOL_VERSION", "MAX_LINE", "ERROR_CODES", "ServeError",
    "MAX_POINTS", "parse_address", "column_to_doc", "column_from_doc",
    "sweep_columns", "wire_timeout", "encoded_result", "encode_results",
    "decode_results", "encode_message", "decode_message", "read_message",
    "write_message",
]

PROTOCOL_VERSION = 3

#: one message may not exceed this many bytes on the wire — bounds the
#: daemon's read buffer per connection (the work a sweep may ask for is
#: bounded by MAX_POINTS); a 121-size column's request is under 1 kB and
#: its response ~9 kB, so the ceiling is generous without being unbounded
MAX_LINE = 8 * 1024 * 1024

#: the most sizes one sweep may ask for: a cap on the work one request
#: can queue.  A v3 response of this many sizes fits far inside MAX_LINE
#: (about 0.7 MB at the shortest fragment, ``[0,[],0]``); the value is
#: the count a v2 response, a full result document per size, could carry
MAX_POINTS = 77_672

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


def column_to_doc(
    column: "ColumnSpec | Point", sizes: Sequence[int]
) -> dict:
    """The wire form of one sweep column: ``column``'s spec (a
    :class:`ColumnSpec`, or any point of the column) plus ``sizes``.

    ``params``/``thresholds`` stay ``None`` when the column uses defaults
    (the daemon reconstructs an identical :class:`ColumnSpec`, so cache
    keys and results match a local ``SweepRunner`` run exactly).
    """
    return {
        "library": column.library,
        "collective": column.collective,
        "nodes": column.nodes,
        "ppn": column.ppn,
        "warmup": column.warmup,
        "measure": column.measure,
        "params": None if column.params is None else asdict(column.params),
        "thresholds": (
            None if column.thresholds is None else asdict(column.thresholds)
        ),
        "engine": column.engine,
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


def column_from_doc(doc: dict) -> Tuple[ColumnSpec, List[int]]:
    """One column's spec and its sizes (in ``sizes`` order), from its wire
    form; raises :class:`ServeError` (``bad-request``) on anything
    malformed."""
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
        collective = str(doc["collective"])
        if collective not in COLLECTIVES:
            raise ServeError("bad-request", f"unknown collective "
                                            f"{collective!r}; known: "
                                            f"{list(COLLECTIVES)}")
        if engine == "analytic":  # the one engine with coverage gaps
            from repro.sched.analytic import analytic_supported

            if not analytic_supported(library, collective):
                raise ServeError("bad-request", f"engine 'analytic' does "
                                                f"not cover {entry[0]}/"
                                                f"{collective}")
        spec = ColumnSpec(
            # the registry spelling: every engine takes it, and a column
            # is cached under one key however the caller spelled it
            entry[0],
            collective,
            _wire_int("nodes", doc["nodes"], 1),
            _wire_int("ppn", doc["ppn"], 1),
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
    for i, size in enumerate(sizes):
        _wire_int(f"sizes[{i}]", size, 0)
    return spec, sizes


def sweep_columns(request: dict) -> List[Tuple[ColumnSpec, List[int]]]:
    """The ``(spec, sizes)`` columns of a sweep request, in order.

    Raises ``bad-request`` for a request without ``"version": 3`` or
    without a non-empty list of valid column specs, and — before any
    column is decoded — for more than :data:`MAX_POINTS` sizes in all.
    """
    columns = request.get("columns")
    if (request.get("version") != PROTOCOL_VERSION
            or not isinstance(columns, list) or not columns):
        raise ServeError(
            "bad-request", f"a sweep needs protocol v{PROTOCOL_VERSION}: "
                           f"'version': {PROTOCOL_VERSION} and a non-empty "
                           f"'columns' list"
        )
    count = sum(
        len(doc["sizes"]) for doc in columns
        if isinstance(doc, dict) and isinstance(doc.get("sizes"), list)
    )
    if count > MAX_POINTS:
        raise ServeError(
            "bad-request", f"sweep of {count} points exceeds {MAX_POINTS}, "
                           f"the most one sweep may ask for"
        )
    return [column_from_doc(doc) for doc in columns]


# -- framing ----------------------------------------------------------------


def _framed(line: bytes) -> bytes:
    """``line`` and its newline; refused beyond :data:`MAX_LINE`."""
    line += b"\n"
    if len(line) > MAX_LINE:
        raise ServeError(
            "bad-request", f"message of {len(line)} bytes exceeds {MAX_LINE}"
        )
    return line


_ENCODER = json.JSONEncoder(separators=(",", ":"))
#: a str as a JSON string, as ``_ENCODER`` writes it
_json_str = json.encoder.encode_basestring_ascii


def _compact(doc) -> bytes:
    """``doc`` as compact JSON: the encoding of every message and row."""
    return _ENCODER.encode(doc).encode("utf-8")


def encode_message(doc: dict) -> bytes:
    """One message, framed: compact JSON + newline."""
    return _framed(_compact(doc))


#: id(row) -> (weak reference to the row, its encoded fragment); see
#: encoded_result
_ENCODED: Dict[int, Tuple[weakref.ref, bytes]] = {}


def encoded_result(row: MicrobenchResult) -> bytes:
    """``row``'s fragment, ``[time, [samples...], internode_messages]``,
    as compact JSON bytes, encoded on the first call for this row object
    and reused after it.

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
    blob = _compact([row.time, list(row.samples), row.internode_messages])
    _ENCODED[key] = (weakref.ref(row, lambda _: _ENCODED.pop(key, None)),
                     blob)
    return blob


def encode_results(
    columns: Sequence[Tuple[ColumnSpec, Sequence[MicrobenchResult]]],
    tail: dict,
) -> bytes:
    """A successful sweep response, framed: per ``(spec, rows)`` column,
    the spec's identity fields once and the rows' encoded fragments
    joined, plus ``tail``'s fields (the echoed ``id``, if any)."""
    parts = [
        ('{"library":%s,"collective":%s,"nodes":%d,"ppn":%d,"rows":['
         % (_json_str(spec.library), _json_str(spec.collective), spec.nodes,
            spec.ppn)).encode("utf-8")
        + b",".join([encoded_result(r) for r in rows]) + b"]}"
        for spec, rows in columns
    ]
    line = b'{"ok":true,"columns":[' + b",".join(parts) + b"]"
    if tail:
        line += b"," + _compact(tail)[1:-1]
    return _framed(line + b"}")


def decode_results(
    response: dict, sizes: Sequence[Sequence[int]]
) -> List[List[MicrobenchResult]]:
    """The rows of a sweep response whose request asked for ``sizes``, one
    list per column, each in its ``sizes`` order.

    Raises :class:`ServeError` for a response without the v3 shape (a v2
    daemon's ``results``, a column count or a row count that does not
    match the request, a fragment that is not ``[time, samples,
    messages]``).
    """
    new_row = object.__new__
    try:
        columns = response["columns"]
        if len(columns) != len(sizes):
            raise ValueError(f"{len(columns)} columns for {len(sizes)} "
                             f"requested")
        out = []
        for column, column_sizes in zip(columns, sizes):
            head = {"library": column["library"],
                    "collective": column["collective"],
                    "nodes": column["nodes"], "ppn": column["ppn"]}
            rows = column["rows"]
            if len(rows) != len(column_sizes):
                raise ValueError(f"{len(rows)} rows for "
                                 f"{len(column_sizes)} sizes")
            block = []
            for size, (time, samples, messages) in zip(column_sizes, rows):
                # the frozen dataclass's __init__ sets each field through
                # object.__setattr__; filling __dict__ in field order
                # builds the same row in half the time
                row = new_row(MicrobenchResult)
                row.__dict__.update(head, msg_bytes=size, time=time,
                                    samples=tuple(samples),
                                    internode_messages=messages)
                block.append(row)
            out.append(block)
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(
            "internal", f"sweep response is not protocol "
                        f"v{PROTOCOL_VERSION}: {exc!r}"
        ) from None
    return out


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
