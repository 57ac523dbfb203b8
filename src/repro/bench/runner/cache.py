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
writes each evaluated column with one :meth:`ResultCache.put_many`, and
the serve daemon flushes its buffered puts on an interval), so a sweep
costs a handful of shard files, not thousands of JSON files.

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
from repro.bench.runner.points import ColumnSpec, Point, column_of
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
#: ~0.5 ms, which would dominate cached-column reads if paid per lookup;
#: every size along a column shares the hash, so memoize it by the
#: column's identity and the epoch
_COLUMN_KEY_MEMO: Dict[tuple, str] = {}


def column_key(
    column: "ColumnSpec | Point", epoch: Optional[str] = None
) -> str:
    """Stable content hash identifying a *column group*: ``column``, or
    the column of a :class:`Point`.

    The column is the point spec with ``msg_bytes`` removed: every size
    along one figure curve shares it.  Engine, thresholds, params and the
    protocol all stay in the key, so the column store aliases exactly as
    much as the per-point key does — nothing.
    """
    if isinstance(column, Point):
        column = column_of(column)
    ident = (column, epoch or CACHE_EPOCH)
    key = _COLUMN_KEY_MEMO.get(ident)
    if key is None:
        payload = {"version": ident[1], "column": column.spec_dict()}
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
        doc["library"],
        doc["collective"],
        doc["nodes"],
        doc["ppn"],
        doc["msg_bytes"],
        doc["time"],
        tuple(doc["samples"]),
        doc["internode_messages"],
    )


#: public aliases — a result as the document the pre-1.4.0 JSON cache
#: stored (JSON floats round-trip float64 via repr, so a row read back
#: stays bit-identical); the client CLI prints rows in this form
result_to_doc = _result_doc
result_from_doc = _result_from_doc


class ResultCache:
    """Memoized :class:`MicrobenchResult` values in a columnar store.

    Reads consult the in-memory write buffer, then the shard store.
    Writes buffer in memory per column group and publish as whole shards
    on :meth:`flush` — called automatically once ``flush_threshold`` rows
    are pending and by :meth:`put_many` (a column is a natural batch).
    """

    def __init__(
        self, root: "Path | str | None" = None, flush_threshold: int = 256
    ):
        self.root = Path(root) if root is not None else default_cache_dir()
        self.store = ShardStore(self.root / "shards")
        self.flush_threshold = flush_threshold
        #: counters since construction (``--cache-stats`` reporting);
        #: hits and misses count points, by :meth:`get` and
        #: :meth:`get_many` alike
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.flushes = 0
        #: pending rows, keyed by column group then message size
        self._pending: Dict[str, Dict[int, MicrobenchResult]] = {}
        self._pending_rows = 0

    # -- aggregate counters ---------------------------------------------

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

    def _lookup(self, key: str, size: int) -> Optional[MicrobenchResult]:
        pending = self._pending.get(key)
        if pending is not None and size in pending:
            return pending[size]
        return self.store.group(key).get(size)

    def peek(self, point: Point) -> Optional[MicrobenchResult]:
        """:meth:`get` without touching the hit/miss counters.

        The serve daemon re-checks the cache after awaiting a coalesced
        in-flight evaluation; those re-checks are bookkeeping, not client
        traffic, and must not inflate the stats a ``stats`` request (or
        ``record.py --cache-stats``) reports.
        """
        return self._lookup(column_key(point), point.msg_bytes)

    def get(self, point: Point) -> Optional[MicrobenchResult]:
        """The cached result for ``point``, or ``None`` on a miss."""
        row = self._lookup(column_key(point), point.msg_bytes)
        if row is None:
            self.misses += 1
        else:
            self.hits += 1
        return row

    def get_many(
        self, column: ColumnSpec, sizes: Sequence[int]
    ) -> List[Optional[MicrobenchResult]]:
        """Cached results of ``column`` at ``sizes``, in ``sizes`` order
        (``None`` for a miss): one :func:`column_key` and one group scan
        for the whole column.

        Hit/miss accounting is per size, identical to a :meth:`get` loop.
        """
        key = column_key(column)
        out = [self._lookup(key, size) for size in sizes]
        misses = len([row for row in out if row is None])
        self.misses += misses
        self.hits += len(out) - misses
        return out

    # -- writes ----------------------------------------------------------

    def _buffer(
        self, points: Sequence[Point], results: Sequence[MicrobenchResult]
    ) -> None:
        for point, result in zip(points, results):
            group = self._pending.setdefault(column_key(point), {})
            if point.msg_bytes not in group:
                self._pending_rows += 1
            group[point.msg_bytes] = result
            self.stores += 1

    def put(self, point: Point, result: MicrobenchResult) -> None:
        """Buffer ``result``; durable after the next :meth:`flush`, which
        runs here once ``flush_threshold`` rows are pending.

        Within the buffer, a repeated put of the same (column, size)
        overwrites — same last-write-wins the append-only shard merge
        applies on disk.
        """
        self._buffer((point,), (result,))
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
        self._buffer(points, results)
        self.flush()

    @property
    def pending_rows(self) -> int:
        """Rows buffered and not yet published."""
        return self._pending_rows

    def flush(self) -> int:
        """Publish pending rows, one shard per column group; returns rows
        written.  Crash-safe: a shard appears fully or not at all.  If a
        publish fails (``OSError``: a full disk, an I/O error), the groups
        not yet published stay pending, still served by lookups, and the
        error propagates; the next flush retries them."""
        written = 0
        if not self._pending:
            return 0
        for key in list(self._pending):
            rows = self._pending[key]
            ordered = [rows[size] for size in sorted(rows)]
            self.store.append(key, ordered)
            del self._pending[key]
            self._pending_rows -= len(ordered)
            written += len(ordered)
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
