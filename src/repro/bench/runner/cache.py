"""On-disk memoization of microbenchmark results — columnar shard store.

Results persist in an append-only columnar store
(:class:`~repro.bench.runner.store.ShardStore`): npz shards under
``<root>/shards/<key[:2]>/``, grouped by *column group key* — a SHA-256
over a canonical JSON encoding of

* the cache epoch (:data:`CACHE_EPOCH`, bumped with the package version
  whenever simulation-relevant behaviour changes),
* the fully resolved :class:`~repro.hw.params.MachineParams`,
* the column spec (the point spec with ``msg_bytes`` removed: library,
  collective, shape, thresholds, engine), and
* the warm-up/measure protocol.

Every size along one figure curve shares a group, so a whole 121-size
axis reads back with one file open instead of one ``stat`` + ``open`` +
``json.loads`` per point — the I/O analogue of the batch engine
evaluating the column in one pass (the ``store`` and ``json`` rows of
``BENCH_speed.json``, written by ``benchmarks/bench_speed.py``, measure
the ratio).  Writes buffer in memory
and flush as whole shards (:meth:`ResultCache.flush`; the sweep runner
flushes at the end of every run), so a point-per-put sweep costs a
handful of shard files, not thousands of JSON files.

The simulator is deterministic, so a hit is exact — bit-identical to
recomputation under the same epoch.  The key does **not** hash source
code: re-running a figure after an unrelated code change is the use case.
If you changed simulation-relevant code without bumping the epoch, pass
``refresh=True`` (CLI ``--refresh``) or delete the cache directory.

Shards are crash-safe (temp file + ``os.replace``; damaged shards are
skipped and removed, see :mod:`repro.bench.runner.store`) and append-only,
so concurrent pool workers, parallel pytest runs, and overlapping sweeps
of the same column all land without read-merge-replace races.

Caches written before the 1.4.0 epoch used one JSON file per point
(``<root>/<key[:2]>/<key>.json``) and per column (``<root>/columns/...``);
earlier releases could also convert such trees into shards under
``<root>/legacy/``.  Lookups consult the shard store only — entries from
an old epoch are stale by definition, which is the point of the epoch —
and :meth:`ResultCache.clear` still sweeps both leftovers from disk.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import repro
from repro.bench.microbench import MicrobenchResult
from repro.bench.runner.points import Point
from repro.bench.runner.store import ShardStore

__all__ = [
    "ResultCache", "cache_key", "column_key", "default_cache_dir",
    "CACHE_EPOCH",
    "result_to_doc", "result_from_doc",
]

_ENV_DIR = "PIPMCOLL_CACHE_DIR"
_DEFAULT_DIR = ".bench_cache"

#: the current cache-key epoch.  Tracks the package version: bump
#: ``repro.__version__`` whenever a change alters simulated results (new
#: engine semantics, cost-model changes, protocol changes) so stale
#: entries can never alias fresh ones.  See DESIGN.md §5 for the policy.
CACHE_EPOCH = repro.__version__


def default_cache_dir() -> Path:
    return Path(os.environ.get(_ENV_DIR, _DEFAULT_DIR))


def cache_key(point: Point, epoch: Optional[str] = None) -> str:
    """Stable content hash identifying one point's result.

    ``epoch`` defaults to :data:`CACHE_EPOCH`; tests pass explicit epochs
    to pin that entries from different epochs can never alias.
    """
    payload = {"version": epoch or CACHE_EPOCH, "point": point.spec_dict()}
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


#: memoized column hashes — hashing a resolved ``MachineParams`` spec is
#: ~0.5 ms, which would dominate cached-column reads if paid per point;
#: every size along a column shares the hash, so memoize it by the
#: point's hashable column identity (all spec fields but ``msg_bytes``)
_COLUMN_KEY_MEMO: Dict[tuple, str] = {}


def column_key(point: Point, epoch: Optional[str] = None) -> str:
    """Stable content hash identifying a point's *column group*.

    The column is the point spec with ``msg_bytes`` removed: every size
    along one figure curve shares it.  Engine, thresholds, params and the
    protocol all stay in the key, so the column store aliases exactly as
    much as the per-point key does — nothing.
    """
    epoch = epoch or CACHE_EPOCH
    ident = (
        point.library, point.collective, point.nodes, point.ppn,
        point.warmup, point.measure, point.params, point.thresholds,
        point.engine, epoch,
    )
    key = _COLUMN_KEY_MEMO.get(ident)
    if key is None:
        spec = point.spec_dict()
        del spec["msg_bytes"]
        payload = {"version": epoch, "column": spec}
        canonical = json.dumps(
            payload, sort_keys=True, separators=(",", ":")
        )
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        if len(_COLUMN_KEY_MEMO) >= 65536:
            _COLUMN_KEY_MEMO.clear()
        _COLUMN_KEY_MEMO[ident] = key
    return key


def _result_doc(result: MicrobenchResult) -> dict:
    return {
        "library": result.library,
        "collective": result.collective,
        "nodes": result.nodes,
        "ppn": result.ppn,
        "msg_bytes": result.msg_bytes,
        "time": result.time,
        "samples": list(result.samples),
        "internode_messages": result.internode_messages,
    }


def _result_from_doc(doc: dict) -> MicrobenchResult:
    return MicrobenchResult(
        library=doc["library"],
        collective=doc["collective"],
        nodes=doc["nodes"],
        ppn=doc["ppn"],
        msg_bytes=doc["msg_bytes"],
        time=doc["time"],
        samples=tuple(doc["samples"]),
        internode_messages=doc["internode_messages"],
    )


#: public aliases — the serve wire protocol ships results as exactly the
#: documents the legacy cache used (JSON floats round-trip float64 via
#: repr, so a result crossing the socket stays bit-identical)
result_to_doc = _result_doc
result_from_doc = _result_from_doc


class ResultCache:
    """Memoized :class:`MicrobenchResult` values in a columnar store.

    Reads consult the in-memory write buffer, then the shard store.
    Writes buffer in memory per column group and publish as whole shards
    on :meth:`flush` — called automatically once ``flush_threshold`` rows
    are pending, by :meth:`put_many` (a column is a natural batch), and
    by the sweep runner at the end of each run.
    """

    def __init__(
        self, root: "Path | str | None" = None, flush_threshold: int = 256
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.store = ShardStore(self.root / "shards")
        self.flush_threshold = flush_threshold
        #: counters since construction (``--cache-stats`` reporting);
        #: point_* from :meth:`get`, column_* from :meth:`get_many` — the
        #: same per-point accounting, split by access path
        self.point_hits = 0
        self.point_misses = 0
        self.column_hits = 0
        self.column_misses = 0
        self.stores = 0
        self.flushes = 0
        #: pending rows, keyed by column group then message size
        self._pending: Dict[str, Dict[int, MicrobenchResult]] = {}
        self._pending_rows = 0

    # -- aggregate counters ---------------------------------------------

    @property
    def hits(self) -> int:
        """Point-level and column-level hits, counted identically."""
        return self.point_hits + self.column_hits

    @property
    def misses(self) -> int:
        return self.point_misses + self.column_misses

    @property
    def bytes_read(self) -> int:
        return self.store.bytes_read

    @property
    def bytes_written(self) -> int:
        return self.store.bytes_written

    def stats(self) -> dict:
        """Counters since construction plus store shape (shards, index)."""
        index = self.store.index_stats()
        return {
            "hits": self.hits,
            "misses": self.misses,
            "point_hits": self.point_hits,
            "point_misses": self.point_misses,
            "column_hits": self.column_hits,
            "column_misses": self.column_misses,
            "stores": self.stores,
            "flushes": self.flushes,
            "pending_rows": self._pending_rows,
            "bytes_read": self.bytes_read,
            "bytes_written": self.bytes_written,
            "shards": self.store.shard_count(),
            "index_groups": index["groups"],
            "index_entries": index["entries"],
        }

    # -- lookups ---------------------------------------------------------

    def _lookup(self, point: Point, key: str) -> Optional[MicrobenchResult]:
        pending = self._pending.get(key)
        if pending is not None and point.msg_bytes in pending:
            return pending[point.msg_bytes]
        return self.store.group(key).get(point.msg_bytes)

    def peek(self, point: Point) -> Optional[MicrobenchResult]:
        """:meth:`get` without touching the hit/miss counters.

        The serve daemon re-checks the cache after awaiting a coalesced
        in-flight evaluation; those re-checks are bookkeeping, not client
        traffic, and must not inflate the stats a ``stats`` request (or
        ``record.py --cache-stats``) reports.
        """
        return self._lookup(point, column_key(point))

    def get(self, point: Point) -> Optional[MicrobenchResult]:
        """The cached result for ``point``, or ``None`` on a miss."""
        row = self._lookup(point, column_key(point))
        if row is None:
            self.point_misses += 1
        else:
            self.point_hits += 1
        return row

    def get_many(
        self, points: Sequence[Point]
    ) -> List[Optional[MicrobenchResult]]:
        """Cached results for ``points``, one group scan per column.

        Points may span several columns; each group's shards are read at
        most once (the store memoizes merged views).  Hit/miss accounting
        is per point, identical to a :meth:`get` loop, tallied under the
        ``column_*`` counters.
        """
        out: List[Optional[MicrobenchResult]] = []
        for point in points:
            row = self._lookup(point, column_key(point))
            if row is None:
                self.column_misses += 1
            else:
                self.column_hits += 1
            out.append(row)
        return out

    # -- writes ----------------------------------------------------------

    def put(self, point: Point, result: MicrobenchResult) -> None:
        """Buffer ``result``; durable after the next :meth:`flush`.

        Within the buffer, a repeated put of the same (column, size)
        overwrites — same last-write-wins the append-only shard merge
        applies on disk.
        """
        group = self._pending.setdefault(column_key(point), {})
        if point.msg_bytes not in group:
            self._pending_rows += 1
        group[point.msg_bytes] = result
        self.stores += 1
        if self._pending_rows >= self.flush_threshold:
            self.flush()

    def put_many(
        self, points: Sequence[Point], results: Sequence[MicrobenchResult]
    ) -> None:
        """Store a batch (typically one column) and flush it as shards."""
        if len(points) != len(results):
            raise ValueError(
                f"{len(points)} points but {len(results)} results"
            )
        for point, result in zip(points, results):
            group = self._pending.setdefault(column_key(point), {})
            if point.msg_bytes not in group:
                self._pending_rows += 1
            group[point.msg_bytes] = result
            self.stores += 1
        self.flush()

    def flush(self) -> int:
        """Publish pending rows, one shard per column group; returns rows
        written.  Crash-safe: a shard appears fully or not at all."""
        written = 0
        if not self._pending:
            return 0
        for key, rows in self._pending.items():
            ordered = [rows[size] for size in sorted(rows)]
            self.store.append(key, ordered)
            written += len(ordered)
        self._pending.clear()
        self._pending_rows = 0
        self.flushes += 1
        return written

    # -- maintenance ------------------------------------------------------

    def clear(self) -> int:
        """Delete every entry (shards, plus any ``legacy/`` shards or
        stray pre-1.4.0 JSON files left in the directory); discards
        pending rows; returns files removed."""
        self._pending.clear()
        self._pending_rows = 0
        removed = self.store.clear() + ShardStore(self.root / "legacy").clear()
        if self.root.exists():
            for pattern in ("*/*.json", "columns/*/*.json"):
                for entry in self.root.glob(pattern):
                    try:
                        entry.unlink()
                        removed += 1
                    except OSError:
                        pass
        return removed

    def __len__(self) -> int:
        """Entries on disk (pending rows are not yet entries)."""
        return self.store.entry_count()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.runner.cache",
        description="Result-cache maintenance tools.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    stats = sub.add_parser(
        "stats", help="print store shape (shards, entries, legacy files)"
    )
    stats.add_argument(
        "--root", default=None,
        help=f"cache directory (default: ${_ENV_DIR} or {_DEFAULT_DIR})",
    )
    args = parser.parse_args(argv)

    root = Path(args.root) if args.root else default_cache_dir()
    cache = ResultCache(root)
    legacy = ShardStore(root / "legacy")
    print(
        f"{root}: {cache.store.shard_count()} shards, "
        f"{cache.store.entry_count()} entries, "
        f"{legacy.shard_count()} legacy shards, "
        f"{legacy.entry_count()} legacy entries"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
