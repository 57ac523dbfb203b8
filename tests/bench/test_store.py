"""Tests for the columnar shard store — concurrency, damage, legacy trees.

The store's three load-bearing promises (see
:mod:`repro.bench.runner.store`):

* **append-only** — concurrent writers to the same column group cannot
  lose each other's rows;
* **crash-safe** — a torn or truncated shard is skipped and removed,
  never crashed on, and an interrupted write publishes nothing;
* **bit-identical** — everything that goes in comes back out exactly.

The production read fallback for pre-1.4.0 JSON trees was removed after
its scheduled one-release window; these tests fabricate the old layout
locally to pin that lookups no longer consult it.
"""

import json
import multiprocessing

from repro.bench.microbench import MicrobenchResult
from repro.bench.runner import Point, ResultCache
from repro.bench.runner.cache import (
    CACHE_EPOCH,
    cache_key,
    column_key,
    main as cache_main,
    result_to_doc,
)
from repro.bench.runner.points import column_of
from repro.bench.runner.pool import SweepUnit, run_sweep_column_stats
from repro.bench.runner.store import ShardStore

AXIS = (64, 1024, 16384, 65536)
POINTS = [
    Point("PiP-MColl", "allgather", 2, 2, s, engine="auto") for s in AXIS
]
#: the column as one work unit of the sweep worker's batch route
UNIT = SweepUnit("batch", tuple(POINTS))

#: the epoch pre-1.4.0 caches were keyed under
LEGACY_EPOCH = "1.3.0"


def _write_json_point(root, point, result, epoch=LEGACY_EPOCH):
    """One pre-1.4.0 per-point JSON file, at its documented path."""
    key = cache_key(point, epoch)
    path = root / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"version": epoch, **result_to_doc(result)}))
    return path


def _write_json_column(root, points, results, epoch=LEGACY_EPOCH):
    """One pre-1.4.0 column JSON document, at its documented path."""
    key = column_key(points[0], epoch)
    path = root / "columns" / key[:2] / f"{key}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    entries = {
        str(p.msg_bytes): result_to_doc(r) for p, r in zip(points, results)
    }
    path.write_text(json.dumps({"version": epoch, "entries": entries}))
    return path


def _column(points):
    """``points`` of one column as ``get_many``'s arguments."""
    return column_of(points[0]), [p.msg_bytes for p in points]


def _row(msg_bytes: int, time: float = 1.0) -> MicrobenchResult:
    return MicrobenchResult(
        library="PiP-MColl", collective="allgather", nodes=2, ppn=2,
        msg_bytes=msg_bytes, time=time, samples=(time, time + 1e-9),
        internode_messages=7,
    )


# -- concurrent appends to one column group --------------------------------


def test_two_writers_same_group_lose_nothing(tmp_path):
    """Two cache objects (two pool runs) flushing the same column group:
    both shards land, the merged view is the union."""
    a, b = ResultCache(tmp_path), ResultCache(tmp_path)
    results = run_sweep_column_stats(UNIT)[0]
    # interleave: each writer holds half the column, flushes unaware of
    # the other (the read-merge-replace race the JSON layout had)
    a.put_many(POINTS[:2], results[:2])
    b.put_many(POINTS[2:], results[2:])
    fresh = ResultCache(tmp_path)
    assert fresh.get_many(*_column(POINTS)) == results
    assert fresh.store.shard_count() == 2


def _append_worker(args):
    root, key, sizes = args
    store = ShardStore(root)
    store.append(key, [_row(s) for s in sizes])
    return True


def test_concurrent_process_appends_all_land(tmp_path):
    """Real concurrency: several processes append to the same group at
    once; the pid filename suffix breaks sequence-number ties, so every
    shard publishes and the merged view holds every row."""
    key = column_key(POINTS[0])
    sizes = [tuple(range(i * 10, i * 10 + 5)) for i in range(4)]
    with multiprocessing.get_context("spawn").Pool(4) as pool:
        done = pool.map(
            _append_worker, [(str(tmp_path), key, s) for s in sizes]
        )
    assert all(done)
    store = ShardStore(tmp_path)
    merged = store.group(key)
    assert set(merged) == {s for group in sizes for s in group}
    assert store.shard_count() == 4


def test_append_sequence_numbers_advance_past_existing_shards(tmp_path):
    first = ShardStore(tmp_path)
    first.append("aa" * 32, [_row(1)])
    # a second store object (separate runner) scans disk for the floor
    second = ShardStore(tmp_path)
    second.append("aa" * 32, [_row(2)])
    names = sorted(p.name for p in first.shard_files("aa" * 32))
    assert [n.split(".")[1].split("-")[0] for n in names] == ["0000", "0001"]


def test_later_shards_win_per_size(tmp_path):
    store = ShardStore(tmp_path)
    key = "bb" * 32
    store.append(key, [_row(64, time=1.0), _row(128, time=2.0)])
    store.append(key, [_row(64, time=9.0)])
    fresh = ShardStore(tmp_path)
    merged = fresh.group(key)
    assert merged[64].time == 9.0  # overwritten by the later shard
    assert merged[128].time == 2.0  # untouched


# -- damage tolerance ------------------------------------------------------


def test_truncated_shard_is_skipped_and_removed(tmp_path):
    store = ShardStore(tmp_path)
    key = "cc" * 32
    store.append(key, [_row(64)])
    store.append(key, [_row(128)])
    shards = store.shard_files(key)
    # truncate the first shard mid-file: a torn write survived a crash
    raw = shards[0].read_bytes()
    shards[0].write_bytes(raw[: len(raw) // 2])
    fresh = ShardStore(tmp_path)
    merged = fresh.group(key)
    assert set(merged) == {128}  # intact shard still serves
    assert not shards[0].exists()  # damaged one removed
    assert shards[1].exists()


def test_empty_shard_file_is_skipped_and_removed(tmp_path):
    store = ShardStore(tmp_path)
    key = "dd" * 32
    store.append(key, [_row(64)])
    (path,) = store.shard_files(key)
    path.write_bytes(b"")
    fresh = ShardStore(tmp_path)
    assert fresh.group(key) == {}
    assert not path.exists()


def test_transient_permission_error_leaves_shard_on_disk(
    tmp_path, monkeypatch
):
    """A transient ``PermissionError`` from ``np.load`` (mount hiccup,
    mode race) must skip the shard for this scan, NOT delete valid
    results — only corruption may unlink."""
    import numpy as np

    store = ShardStore(tmp_path)
    key = "f0" * 32
    store.append(key, [_row(64), _row(128)])
    (path,) = store.shard_files(key)

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied (transient)")

    monkeypatch.setattr(np, "load", denied)
    probe = ShardStore(tmp_path)
    assert probe.group(key) == {}  # skipped this scan
    assert path.exists()           # but never unlinked
    monkeypatch.undo()
    # the next scan (fresh store, np.load healthy) hits everything again
    healthy = ShardStore(tmp_path)
    assert set(healthy.group(key)) == {64, 128}


def test_transient_memory_error_leaves_shard_on_disk(tmp_path, monkeypatch):
    import numpy as np

    store = ShardStore(tmp_path)
    key = "f1" * 32
    store.append(key, [_row(64)])
    (path,) = store.shard_files(key)

    def oom(*args, **kwargs):
        raise MemoryError("allocation pressure")

    monkeypatch.setattr(np, "load", oom)
    assert ShardStore(tmp_path).group(key) == {}
    assert path.exists()


def test_unforeseen_load_failure_fails_safe_without_unlinking(
    tmp_path, monkeypatch
):
    """Anything outside the known corruption classes must not destroy
    data either — unlink only on proven damage."""
    import numpy as np

    store = ShardStore(tmp_path)
    key = "f2" * 32
    store.append(key, [_row(64)])
    (path,) = store.shard_files(key)

    class Strange(Exception):
        pass

    monkeypatch.setattr(
        np, "load", lambda *a, **k: (_ for _ in ()).throw(Strange("?"))
    )
    assert ShardStore(tmp_path).group(key) == {}
    assert path.exists()


def test_wrong_schema_shard_is_removed(tmp_path):
    """A parseable npz missing the shard members is corruption (wrong
    schema), and corruption is still unlinked."""
    import numpy as np

    store = ShardStore(tmp_path)
    key = "f3" * 32
    store.append(key, [_row(64)])
    (path,) = store.shard_files(key)
    with open(path, "wb") as fh:
        np.savez(fh, wrong_member=np.zeros(3))
    fresh = ShardStore(tmp_path)
    assert fresh.group(key) == {}
    assert not path.exists()


def test_stray_tmp_file_is_never_read_as_a_shard(tmp_path):
    """A crash between mkstemp and os.replace leaves a ``*.tmp`` the
    readers must ignore (it does not match the shard glob)."""
    store = ShardStore(tmp_path)
    key = "ee" * 32
    store.append(key, [_row(64)])
    group_dir = store.shard_files(key)[0].parent
    (group_dir / f"{key}.garbage.tmp").write_bytes(b"half a shard")
    fresh = ShardStore(tmp_path)
    assert set(fresh.group(key)) == {64}
    assert fresh.shard_count() == 1


def test_round_trip_is_bit_identical_including_samples(tmp_path):
    store = ShardStore(tmp_path)
    key = column_key(POINTS[0])
    results = run_sweep_column_stats(UNIT)[0]
    store.append(key, results)
    back = ShardStore(tmp_path).group(key)
    for r in results:
        got = back[r.msg_bytes]
        assert got == r
        assert got.samples == r.samples  # exact floats, not approx


def test_ragged_sample_counts_pad_and_unpad_exactly(tmp_path):
    store = ShardStore(tmp_path)
    key = "ff" * 32
    rows = [
        MicrobenchResult(
            "L", "allreduce", 2, 2, 2 ** (6 + i), time=float(i),
            samples=tuple(float(j) / 3 for j in range(1 + 2 * i)),
            internode_messages=i,
        )
        for i in range(4)
    ]
    store.append(key, rows)
    back = ShardStore(tmp_path).group(key)
    for r in rows:
        assert back[r.msg_bytes].samples == r.samples


# -- legacy trees: pre-1.4.0 JSON files and ``legacy/`` shards ------------


def test_legacy_json_and_migrated_shards_no_longer_hit(tmp_path):
    """The scheduled post-1.4.0 removal: neither a raw pre-1.4.0 JSON
    tree nor shards an earlier release converted it into under
    ``legacy/`` are consulted by lookups."""
    results = run_sweep_column_stats(UNIT)[0]
    _write_json_column(tmp_path, POINTS[:3], results[:3])
    _write_json_point(tmp_path, POINTS[3], results[3])
    cache = ResultCache(tmp_path)
    assert cache.get_many(*_column(POINTS)) == [None] * len(POINTS)
    assert cache.misses == len(POINTS)
    ShardStore(tmp_path / "legacy").append(
        column_key(POINTS[0], LEGACY_EPOCH), results
    )
    fresh = ResultCache(tmp_path)
    assert fresh.get_many(*_column(POINTS)) == [None] * len(POINTS)
    assert "legacy_hits" not in fresh.stats()
    # clear() still sweeps both leftovers off the disk
    assert fresh.clear() == 3
    assert not list(tmp_path.rglob("*.json"))
    assert ShardStore(tmp_path / "legacy").entry_count() == 0


def test_legacy_epoch_never_aliases_current_epoch():
    point = POINTS[0]
    assert cache_key(point) != cache_key(point, LEGACY_EPOCH)
    assert column_key(point) != column_key(point, LEGACY_EPOCH)
    assert CACHE_EPOCH != LEGACY_EPOCH


def test_stats_cli_prints_store_shape(tmp_path, capsys):
    ResultCache(tmp_path).put_many(POINTS, run_sweep_column_stats(UNIT)[0])
    ShardStore(tmp_path / "legacy").append(
        column_key(POINTS[0], LEGACY_EPOCH), [_row(64)]
    )
    rc = cache_main(["stats", "--root", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    assert f"1 shards, {len(POINTS)} entries" in out
    assert "1 legacy shards, 1 legacy entries" in out
