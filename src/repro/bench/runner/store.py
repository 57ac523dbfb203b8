"""Append-only columnar shard store for memoized sweep results.

One *shard* is an ``.npz`` file holding a batch of
:class:`~repro.bench.microbench.MicrobenchResult` rows for one *column
group* — the set of points identical except for ``msg_bytes`` (see
:func:`repro.bench.runner.cache.column_key`).  A group's on-disk state is
the union of its shards, merged in shard-sequence order (later shards win
per message size), so writers never rewrite existing data:

* **append-only** — a put appends a brand-new shard; two pool workers (or
  two concurrent sweeps) flushing the same group cannot lose each other's
  rows, unlike a read-merge-replace JSON document;
* **crash-safe** — shards are written to a temp file in the same
  directory and published with ``os.replace``; a crash mid-write leaves a
  ``*.tmp`` file that no reader ever opens, never a truncated shard.  A
  shard that *is* damaged on disk (torn write on a dying filesystem) is
  detected by ``np.load`` failing and is skipped and removed, not
  crashed on.  Only *corruption* removes a file: a transient failure
  (``PermissionError``, ``MemoryError``, an interrupted read) skips the
  shard for this scan and leaves it on disk for the next one;
* **columnar** — a whole 121-size axis reads back with one file open and
  a handful of vectorized array conversions instead of one
  ``stat``+``open``+``json.loads`` per point (the I/O analogue of the
  batch engine; the ``store`` and ``json`` rows of ``BENCH_speed.json``
  measure the ratio).

Layout::

    <root>/<key[:2]>/<key>.<seq:04d>-<pid>.npz

``key`` is the group's content hash (cache epoch included), ``seq`` is a
per-group sequence number (max existing + 1 at append time) and ``pid``
breaks filename ties between concurrent writers.  Merge order is the
sorted filename, i.e. sequence then pid; concurrent same-sequence shards
hold bit-identical rows in practice (the simulator is deterministic), so
the tie order is immaterial.

Shard schema (``allow_pickle=False`` throughout), packed into three
members because every npz member costs a zip-entry open + header parse
on read: ``meta`` — unicode array of shape ``(2, rows)`` holding
``library`` and ``collective``; ``ints`` — int64 array of shape
``(5, rows)`` holding ``nodes``/``ppn``/``msg_bytes``/
``internode_messages``/``nsamples``; ``floats`` — float64 array of shape
``(rows, 1 + max(nsamples))`` whose first column is ``time`` and whose
remaining columns are the NaN-padded samples.  Floats round-trip through
float64 exactly, so a stored result is bit-identical to the computed
one.

The in-memory index (:attr:`ShardStore._groups`) memoizes each group's
merged view after the first read; appends update it in place, so a runner
process never re-reads a shard it has already seen.
"""

from __future__ import annotations

import os
import tempfile
import zipfile
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.bench.microbench import MicrobenchResult

__all__ = ["ShardStore"]

_SHARD_SUFFIX = ".npz"


def _rows_to_arrays(rows: Sequence[MicrobenchResult]) -> Dict[str, np.ndarray]:
    nsamples = [len(r.samples) for r in rows]
    width = max(nsamples)
    floats = np.full((len(rows), 1 + width), np.nan, dtype=np.float64)
    for i, r in enumerate(rows):
        floats[i, 0] = r.time
        floats[i, 1 : 1 + nsamples[i]] = r.samples
    return {
        "meta": np.array(
            [[r.library for r in rows], [r.collective for r in rows]]
        ),
        "ints": np.array(
            [
                [r.nodes for r in rows],
                [r.ppn for r in rows],
                [r.msg_bytes for r in rows],
                [r.internode_messages for r in rows],
                nsamples,
            ],
            dtype=np.int64,
        ),
        "floats": floats,
    }


def _arrays_to_rows(data) -> List[MicrobenchResult]:
    # materialize each npz member exactly once (NpzFile.__getitem__
    # decompresses the whole member on *every* subscript) and convert to
    # native Python values in C via .tolist() rather than per-element
    library, collective = data["meta"].tolist()
    nodes, ppn, msg_bytes, internode, nsamples = data["ints"].tolist()
    floats = data["floats"].tolist()
    rows = []
    for i in range(len(msg_bytes)):
        row = floats[i]
        rows.append(
            MicrobenchResult(
                library=library[i],
                collective=collective[i],
                nodes=nodes[i],
                ppn=ppn[i],
                msg_bytes=msg_bytes[i],
                time=row[0],
                samples=tuple(row[1 : 1 + nsamples[i]]),
                internode_messages=internode[i],
            )
        )
    return rows


class ShardStore:
    """A directory of append-only npz shards, grouped by content key."""

    def __init__(self, root: "Path | str"):
        self.root = Path(root)
        #: merged per-group view, memoized after first disk scan
        self._groups: Dict[str, Dict[int, MicrobenchResult]] = {}
        #: per-process sequence floor (monotone within this process)
        self._next_seq: Dict[str, int] = {}
        self.bytes_read = 0
        self.bytes_written = 0
        self.shards_read = 0
        self.shards_written = 0

    # -- paths ----------------------------------------------------------

    def _group_dir(self, key: str) -> Path:
        return self.root / key[:2]

    def shard_files(self, key: str) -> List[Path]:
        """This group's shard files, in merge (sequence) order."""
        d = self._group_dir(key)
        if not d.is_dir():
            return []
        return sorted(d.glob(f"{key}.*{_SHARD_SUFFIX}"))

    # -- reads ----------------------------------------------------------

    def _load_shard(self, path: Path) -> Optional[List[MicrobenchResult]]:
        """Rows of one shard, or ``None`` for a damaged file (dropped)."""
        try:
            raw_size = path.stat().st_size
            with np.load(path, allow_pickle=False) as data:
                rows = _arrays_to_rows(data)
        except FileNotFoundError:
            return None
        except (PermissionError, InterruptedError, MemoryError):
            # transient: the file may be perfectly valid (EPERM from a
            # mount hiccup, allocation pressure, a signal) — skip it this
            # scan, never destroy results over it
            return None
        except (zipfile.BadZipFile, ValueError, KeyError, EOFError, OSError):
            # actual corruption: torn write, wrong schema, a zip that
            # parses but truncates mid-member.  Ignore the shard, don't
            # crash the sweep; remove it so it is not rescanned forever
            try:
                path.unlink()
            except OSError:
                pass
            return None
        except Exception:
            # anything unforeseen: fail safe — skip without unlinking
            return None
        self.bytes_read += raw_size
        self.shards_read += 1
        return rows

    def group(self, key: str) -> Dict[int, MicrobenchResult]:
        """The merged ``{msg_bytes: result}`` view of one group.

        Scans the group's shards once and memoizes; later shards override
        earlier ones per size (overwrite-by-append, e.g. ``--refresh``).
        """
        cached = self._groups.get(key)
        if cached is not None:
            return cached
        merged: Dict[int, MicrobenchResult] = {}
        for path in self.shard_files(key):
            rows = self._load_shard(path)
            if rows is None:
                continue
            for row in rows:
                merged[row.msg_bytes] = row
        self._groups[key] = merged
        return merged

    # -- writes ---------------------------------------------------------

    def append(self, key: str, rows: Sequence[MicrobenchResult]) -> int:
        """Publish ``rows`` as one new shard; returns bytes written.

        Never touches existing shards: temp-file write + ``os.replace``
        to a filename no other writer can pick (sequence + pid), so
        concurrent appends to the same group both land and a crash
        mid-write publishes nothing.
        """
        if not rows:
            return 0
        d = self._group_dir(key)
        d.mkdir(parents=True, exist_ok=True)
        seq = self._next_seq.get(key, 0)
        for existing in self.shard_files(key):
            tail = existing.name[len(key) + 1 : -len(_SHARD_SUFFIX)]
            try:
                seq = max(seq, int(tail.split("-")[0]) + 1)
            except ValueError:
                continue
        self._next_seq[key] = seq + 1
        fd, tmp = tempfile.mkstemp(dir=d, prefix=f"{key}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                np.savez(fh, **_rows_to_arrays(rows))
            nbytes = os.path.getsize(tmp)
            os.replace(tmp, d / f"{key}.{seq:04d}-{os.getpid()}{_SHARD_SUFFIX}")
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.bytes_written += nbytes
        self.shards_written += 1
        view = self._groups.get(key)
        if view is not None:
            for row in rows:
                view[row.msg_bytes] = row
        return nbytes

    # -- maintenance ----------------------------------------------------

    def invalidate(self, key: Optional[str] = None) -> None:
        """Drop the memoized view (one group or all): next read rescans."""
        if key is None:
            self._groups.clear()
        else:
            self._groups.pop(key, None)

    def shard_count(self) -> int:
        """Shard files on disk (index freshness is irrelevant)."""
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob(f"*/*{_SHARD_SUFFIX}"))

    def index_stats(self) -> Dict[str, int]:
        """Size of the in-memory index: groups loaded and entries held."""
        return {
            "groups": len(self._groups),
            "entries": sum(len(g) for g in self._groups.values()),
        }

    def entry_count(self) -> int:
        """Distinct ``(group, msg_bytes)`` entries on disk (full scan)."""
        if not self.root.is_dir():
            return 0
        n = 0
        seen = set(self._groups)
        for path in self.root.glob(f"*/*{_SHARD_SUFFIX}"):
            key = path.name.split(".", 1)[0]
            if key not in seen:
                seen.add(key)
                self.invalidate(key)
        for key in seen:
            n += len(self.group(key))
        return n

    def clear(self) -> int:
        """Delete every shard; returns files removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob(f"*/*{_SHARD_SUFFIX}"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        self._groups.clear()
        return removed
