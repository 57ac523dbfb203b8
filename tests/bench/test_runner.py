"""Tests for :mod:`repro.bench.runner` — pool, cache, determinism.

The load-bearing guarantee is cross-mode determinism: serial in-process
execution, pool execution, and cache hits must produce bit-identical
``MicrobenchResult`` values (the simulator is deterministic and the cache
stores exact floats), so figures cannot silently depend on ``--jobs``.
"""

import pickle
from dataclasses import replace

import pytest

from repro.bench.microbench import (
    ENGINES,
    MicrobenchResult,
    resolve_engine,
    run_point,
)
from repro.bench.runner import (
    Point,
    ResultCache,
    SweepRunner,
    cache_key,
    expand_sweep,
    run_points,
)
from repro.bench.runner.cache import column_key
from repro.bench.runner.points import column_of
from repro.bench.runner.pool import (
    SweepUnit,
    plan_sweep,
    run_point_spec,
    run_sweep_column_stats,
)
from repro.core.tuning import Thresholds
from repro.hw.params import bebop_broadwell

#: small but non-trivial: 2 libraries x 2 sizes x one 2x2 shape = 4 points

POINTS = expand_sweep(
    "allreduce", [64, 4096], ["PiP-MColl", "PiP-MPICH"], nodes=2, ppn=2
)


def _cache(tmp_path) -> ResultCache:
    return ResultCache(tmp_path / "cache")


def _column(points):
    """``points`` of one column as ``get_many``'s arguments."""
    return column_of(points[0]), [p.msg_bytes for p in points]


# -- cross-mode determinism (the acceptance-criteria test) ----------------


def test_serial_parallel_and_cached_are_bit_identical(tmp_path):
    serial = SweepRunner(jobs=1, use_cache=False).run(POINTS)
    parallel = SweepRunner(jobs=4, use_cache=True, cache=_cache(tmp_path)).run(
        POINTS
    )
    cached = SweepRunner(jobs=1, use_cache=True, cache=_cache(tmp_path)).run(
        POINTS
    )
    # full equality — library/shape metadata, mean, and every sample
    assert serial == parallel == cached
    assert all(a.samples == b.samples for a, b in zip(serial, cached))


def test_results_come_back_in_submission_order(tmp_path):
    results = SweepRunner(jobs=2, use_cache=False).run(POINTS)
    for point, result in zip(POINTS, results):
        assert (result.library, result.msg_bytes) == (
            point.library,
            point.msg_bytes,
        )


def test_matches_direct_run_point():
    p = POINTS[0]
    direct = run_point(
        p.library, p.collective, p.nodes, p.ppn, p.msg_bytes,
        warmup=p.warmup, measure=p.measure,
    )
    via_runner = SweepRunner(jobs=1, use_cache=False).run([p])[0]
    assert direct == via_runner


# -- the on-disk cache ----------------------------------------------------


def test_cache_miss_then_hit(tmp_path):
    cache = _cache(tmp_path)
    runner = SweepRunner(jobs=1, use_cache=True, cache=cache)
    first = runner.run(POINTS)
    assert (cache.hits, cache.stores) == (0, len(POINTS))
    assert len(cache) == len(POINTS)
    second = runner.run(POINTS)
    assert cache.hits == len(POINTS)
    assert second == first


def test_no_cache_leaves_disk_untouched(tmp_path):
    cache = _cache(tmp_path)
    SweepRunner(jobs=1, use_cache=False, cache=cache).run(POINTS[:1])
    assert len(cache) == 0 and not cache.root.exists()


def test_refresh_recomputes_and_overwrites(tmp_path):
    cache = _cache(tmp_path)
    point = POINTS[0]
    real = SweepRunner(jobs=1, use_cache=True, cache=cache).run([point])[0]
    # poison the stored entry so we can tell a recompute from a hit
    # (append a newer shard: later shards win on merge)
    cache.store.append(column_key(point), [replace(real, time=-1.0)])
    poisoned = SweepRunner(jobs=1, use_cache=True, cache=cache).run([point])[0]
    assert poisoned.time == -1.0
    refreshed = SweepRunner(
        jobs=1, use_cache=True, cache=cache, refresh=True
    ).run([point])[0]
    assert refreshed == real
    # and the overwrite-by-append stuck: a fresh cache reads it from disk
    assert ResultCache(cache.root).get(point) == real


def test_corrupted_entry_is_dropped_and_recomputed(tmp_path):
    cache = _cache(tmp_path)
    point = POINTS[0]
    real = SweepRunner(jobs=1, use_cache=True, cache=cache).run([point])[0]
    shard = next((cache.root / "shards").glob("*/*.npz"))
    shard.write_bytes(b"{ not an npz shard")
    fresh = ResultCache(cache.root)
    assert fresh.get(point) is None
    # the damaged shard was removed on first scan, not rescanned forever
    assert not shard.exists()
    again = SweepRunner(jobs=1, use_cache=True, cache=fresh).run([point])[0]
    assert again == real
    assert fresh.misses >= 1


def test_cache_key_distinguishes_every_spec_field(tmp_path):
    base = Point("PiP-MColl", "allreduce", 2, 2, 64)
    variants = [
        Point("PiP-MPICH", "allreduce", 2, 2, 64),
        Point("PiP-MColl", "scatter", 2, 2, 64),
        Point("PiP-MColl", "allreduce", 4, 2, 64),
        Point("PiP-MColl", "allreduce", 2, 4, 64),
        Point("PiP-MColl", "allreduce", 2, 2, 128),
        Point("PiP-MColl", "allreduce", 2, 2, 64, warmup=2),
        Point("PiP-MColl", "allreduce", 2, 2, 64, measure=3),
        Point("PiP-MColl", "allreduce", 2, 2, 64, engine="auto"),
        Point("PiP-MColl", "allreduce", 2, 2, 64, engine="analytic"),
        Point(
            "PiP-MColl", "allreduce", 2, 2, 64,
            params=bebop_broadwell().with_overrides(
                pip_sizesync_time=1e-3
            ),
        ),
    ]
    keys = {cache_key(p) for p in [base, *variants]}
    assert len(keys) == len(variants) + 1


def test_cache_key_separates_threshold_ablations():
    """Two ablation variants of one library must never collide (the
    thresholds are part of the spec), and ``thresholds=None`` (library
    default) is distinct from an explicit default ``Thresholds()``."""
    base = Point("PiP-MColl", "allreduce", 2, 2, 64)
    variants = [
        Point("PiP-MColl", "allreduce", 2, 2, 64,
              thresholds=Thresholds.always_small()),
        Point("PiP-MColl", "allreduce", 2, 2, 64,
              thresholds=Thresholds.always_large()),
        Point("PiP-MColl", "allreduce", 2, 2, 64, thresholds=Thresholds()),
    ]
    keys = {cache_key(p) for p in [base, *variants]}
    assert len(keys) == len(variants) + 1


def test_small_variant_library_never_aliases_ablated_default():
    """PiP-MColl-small (whose *default* is always_small) and PiP-MColl
    forced to always_small run identical algorithms, but their cached
    results must stay separate — the library name is in the key."""
    variant = Point("PiP-MColl-small", "allreduce", 2, 2, 64)
    ablated = Point(
        "PiP-MColl", "allreduce", 2, 2, 64,
        thresholds=Thresholds.always_small(),
    )
    assert cache_key(variant) != cache_key(ablated)


def test_threshold_override_matches_forced_small_library(tmp_path):
    # the two points above must also *measure* identically: same
    # algorithms, bit-identical simulated times
    ablated = run_point_spec(
        Point("PiP-MColl", "allgather", 2, 2, 128 * 1024,
              thresholds=Thresholds.always_small())
    )
    forced = run_point_spec(Point("PiP-MColl-small", "allgather", 2, 2,
                                  128 * 1024))
    assert ablated.samples == forced.samples


def test_threshold_override_rejected_for_fixed_libraries():
    point = Point("PiP-MPICH", "allreduce", 2, 2, 64,
                  thresholds=Thresholds.always_small())
    with pytest.raises(ValueError, match="thresholds"):
        run_point_spec(point)


def test_default_params_key_equals_explicit_default():
    implicit = Point("PiP-MColl", "allreduce", 2, 2, 64)
    explicit = Point(
        "PiP-MColl", "allreduce", 2, 2, 64, params=bebop_broadwell()
    )
    assert cache_key(implicit) == cache_key(explicit)


def test_cache_clear(tmp_path):
    cache = _cache(tmp_path)
    SweepRunner(jobs=1, use_cache=True, cache=cache).run(POINTS[:2])
    assert len(cache) == 2
    assert cache.clear() == 2
    assert len(cache) == 0


# -- pickle safety (pool workers ship these across processes) -------------


def test_point_pickle_round_trip():
    for point in (
        POINTS[0],
        Point(
            "PiP-MColl", "scatter", 4, 8, 1024, warmup=3, measure=5,
            params=bebop_broadwell(),
        ),
    ):
        clone = pickle.loads(pickle.dumps(point))
        assert clone == point
        assert cache_key(clone) == cache_key(point)


@pytest.mark.parametrize(
    "thresholds",
    [Thresholds.always_small(), Thresholds.always_large()],
    ids=["always_small", "always_large"],
)
def test_threshold_classmethods_round_trip_through_point_pickle(thresholds):
    """Both ablation classmethods survive a sweep-point pickle round trip
    (pool workers ship ablation points across process boundaries)."""
    point = Point("PiP-MColl", "allgather", 2, 2, 64, thresholds=thresholds)
    clone = pickle.loads(pickle.dumps(point))
    assert clone == point
    assert clone.thresholds == thresholds
    assert cache_key(clone) == cache_key(point)
    assert clone.spec_dict() == point.spec_dict()


def test_never_sentinel_is_named_and_unreachable():
    thr = Thresholds.always_small()
    assert thr.allgather_large_bytes == Thresholds.NEVER
    assert thr.allreduce_large_bytes == Thresholds.NEVER
    # no realistic message size reaches the sentinel
    assert Thresholds.NEVER > 2**60


def test_microbench_result_pickle_round_trip():
    result = run_point_spec(POINTS[0])
    clone = pickle.loads(pickle.dumps(result))
    assert clone == result
    assert isinstance(clone, MicrobenchResult)
    assert clone.samples == result.samples  # exact floats, not approx


def test_worker_function_pickles_by_qualified_name():
    # multiprocessing pickles the callable itself; it must stay top-level
    for worker in (run_point_spec, run_sweep_column_stats):
        assert pickle.loads(pickle.dumps(worker)) is worker


# -- column routing: the batch engine through the runner ------------------

#: one ``auto`` column that the batch engine evaluates: 4 sizes of one
#: planner-backed (library, collective, shape)
COLUMN_POINTS = [
    Point("PiP-MColl", "allgather", 2, 2, s, engine="auto")
    for s in (64, 1024, 16384, 65536)
]
#: the column as one work unit of the sweep worker's batch route
COLUMN_UNIT = SweepUnit("batch", tuple(COLUMN_POINTS))


def _dag_reference(points):
    """Each point's row from the DAG replay, which ``auto`` runs for a
    single planner-backed point."""
    assert all(resolve_engine("auto", p.library, p.collective,
                              msg_bytes=p.msg_bytes) == "dag"
               for p in points)
    return [
        run_point(p.library, p.collective, p.nodes, p.ppn, p.msg_bytes,
                  warmup=p.warmup, measure=p.measure, engine="auto")
        for p in points
    ]


def test_batch_column_through_runner_identical_to_dag(tmp_path):
    (planned,) = plan_sweep([(column_of(COLUMN_POINTS[0]),
                              [p.msg_bytes for p in COLUMN_POINTS])])
    assert [(u.route, len(u.points)) for u in planned.units] \
        == [("batch", len(COLUMN_POINTS))]
    got = SweepRunner(jobs=1, use_cache=False).run(COLUMN_POINTS)
    for g, ref in zip(got, _dag_reference(COLUMN_POINTS)):
        assert g.samples == ref.samples
        assert g.internode_messages == ref.internode_messages


def test_auto_upgrades_multi_size_columns_and_stays_identical(tmp_path):
    pts = expand_sweep(
        "allgather", [64, 1024, 16384], ["PiP-MColl", "PiP-MPICH"],
        nodes=2, ppn=2, engine="auto",
    )
    cache = _cache(tmp_path)
    got = SweepRunner(jobs=1, use_cache=True, cache=cache).run(pts)
    for g, ref in zip(got, _dag_reference(pts)):
        assert g.samples == ref.samples
    # the upgrade routed the points through the columnar store: npz
    # shards only, never JSON files
    assert sorted((cache.root / "shards").glob("*/*.npz"))
    assert not list(cache.root.rglob("*.json"))
    # and a rerun is pure column hits
    again = SweepRunner(jobs=1, use_cache=True, cache=cache).run(pts)
    assert again == got
    assert cache.hits == len(pts)


def test_auto_column_with_a_zero_byte_size_matches_event():
    """The planners refuse empty messages, so ``auto`` sends a zero-byte
    point to the event loop instead of raising — alone or in a column."""
    pts = [Point("PiP-MColl", "allgather", 2, 2, s, engine="auto")
           for s in (0, 64, 1024)]
    got = SweepRunner(jobs=1, use_cache=False).run(pts)
    ref = SweepRunner(jobs=1, use_cache=False).run(
        [replace(p, engine="event") for p in pts]
    )
    assert got == ref
    assert all(g.samples == r.samples for g, r in zip(got, ref))
    assert run_point("PiP-MColl", "allgather", 2, 2, 0, engine="auto") \
        == ref[0]


def test_single_size_auto_point_lands_in_its_column_group(tmp_path):
    cache = _cache(tmp_path)
    point = Point("PiP-MColl", "allgather", 2, 2, 1024, engine="auto")
    SweepRunner(jobs=1, use_cache=True, cache=cache).run([point])
    assert len(cache) == 1
    assert cache.store.shard_count() == 1


def test_analytic_column_is_one_evaluate_axis_call(monkeypatch):
    """An analytic column is one work unit: one ``evaluate_axis`` call
    over the whole size axis, whose rows are bit-identical to
    ``run_point(engine="analytic")`` size by size.  ``measure=3`` pins
    that a row's time is the closed-form estimate, not the mean of its
    samples (the two differ in the last bit for some sizes)."""
    import repro.sched.analytic as analytic

    sizes = (64, 1024, 16384, 65536, 262144)
    odd_sizes = (48, 12288, 65536, 393216)
    pts = (
        expand_sweep("allgather", sizes, ["PiP-MColl", "OpenMPI"],
                     nodes=2, ppn=4, engine="analytic")
        + [Point("PiP-MColl", "allreduce", 4, 2, s, measure=3,
                 engine="analytic") for s in odd_sizes]
    )
    expected = [
        run_point(p.library, p.collective, p.nodes, p.ppn, p.msg_bytes,
                  warmup=p.warmup, measure=p.measure, engine="analytic")
        for p in pts
    ]
    calls = []
    inner = analytic.evaluate_axis

    def counting(library, collective, nodes, ppn, axis, **kw):
        calls.append((library, collective, tuple(axis)))
        return inner(library, collective, nodes, ppn, axis, **kw)

    monkeypatch.setattr(analytic, "evaluate_axis", counting)
    got = SweepRunner(jobs=1, use_cache=False).run(pts)
    assert sorted(calls) == [
        ("OpenMPI", "allgather", sizes),
        ("PiP-MColl", "allgather", sizes),
        ("PiP-MColl", "allreduce", odd_sizes),
    ]
    assert got == expected
    assert [g.time for g in got] == [e.time for e in expected]
    assert [g.samples for g in got] == [e.samples for e in expected]
    assert any(g.time != sum(g.samples) / len(g.samples) for g in got)


def test_parallel_column_execution_identical(tmp_path):
    pts = COLUMN_POINTS + [
        Point("PiP-MPICH", "allgather", 2, 2, s, engine="auto")
        for s in (64, 1024)
    ]
    serial = SweepRunner(jobs=1, use_cache=False).run(pts)
    parallel = SweepRunner(jobs=2, use_cache=False).run(pts)
    assert serial == parallel


@pytest.mark.parametrize("jobs", (1, 2))
def test_lowering_counters_aggregate_across_column_work_units(jobs):
    """Workers are separate processes, so their lowering counts die with
    them; the runner must ship per-work-unit deltas home and sum them."""
    from repro.sched.batch import lowering_cache_info

    pts = COLUMN_POINTS + [
        Point("PiP-MPICH", "allgather", 2, 2, s, engine="auto")
        for s in (64, 1024, 16384)
    ]
    runner = SweepRunner(jobs=jobs, use_cache=False)
    assert runner.lowering_totals() == {"lowerings": 0, "units": 0}
    before = lowering_cache_info().misses
    runner.run(pts)
    in_process = lowering_cache_info().misses - before
    totals = runner.lowering_totals()
    assert totals["units"] == 2
    assert totals["lowerings"] > 0  # every work unit lowers something
    # the serial path lowers in this process; the pool, in its workers
    assert in_process == (totals["lowerings"] if jobs == 1 else 0)


def test_lowering_delta_worker_returns_results_and_counters():
    col_results, delta = run_sweep_column_stats(COLUMN_UNIT)
    assert col_results == _dag_reference(COLUMN_POINTS)
    assert set(delta) == {"lowerings"}
    assert delta["lowerings"] > 0
    # nothing is kept: the same unit lowers as much again
    assert run_sweep_column_stats(COLUMN_UNIT) == (col_results, delta)


def test_get_many_put_many_round_trip_and_accounting(tmp_path):
    cache = _cache(tmp_path)
    results = run_sweep_column_stats(COLUMN_UNIT)[0]
    cache.put_many(COLUMN_POINTS, results)
    assert cache.stores == len(COLUMN_POINTS)
    assert cache.bytes_written > 0
    # one column -> exactly one shard on disk, published by the put_many
    assert cache.store.shard_count() == 1
    assert cache.flushes == 1
    assert len(cache) == len(COLUMN_POINTS)
    back = cache.get_many(*_column(COLUMN_POINTS))
    assert back == results
    assert cache.hits == len(COLUMN_POINTS)
    # a fresh cache object reads the same entries back from disk (the
    # writer served its own appends from the in-memory index, read-free)
    fresh = ResultCache(cache.root)
    assert fresh.get_many(*_column(COLUMN_POINTS)) == results
    assert fresh.bytes_read > 0


def test_put_many_merges_instead_of_clobbering(tmp_path):
    cache = _cache(tmp_path)
    first, rest = COLUMN_POINTS[:2], COLUMN_POINTS[2:]
    results = run_sweep_column_stats(COLUMN_UNIT)[0]
    cache.put_many(first, results[:2])
    cache.put_many(rest, results[2:])
    assert cache.get_many(*_column(COLUMN_POINTS)) == results
    # append-only: two puts -> two shards of one group, merged on read
    assert cache.store.shard_count() == 2
    assert ResultCache(cache.root).get_many(*_column(COLUMN_POINTS)) == results


def test_corrupted_column_shard_is_dropped_and_missed(tmp_path):
    cache = _cache(tmp_path)
    results = run_sweep_column_stats(COLUMN_UNIT)[0]
    cache.put_many(COLUMN_POINTS, results)
    path = next((cache.root / "shards").glob("*/*.npz"))
    path.write_bytes(b"torn write")
    fresh = ResultCache(cache.root)
    assert fresh.get_many(*_column(COLUMN_POINTS)) == [None] * len(COLUMN_POINTS)
    assert fresh.misses == len(COLUMN_POINTS)
    assert not path.exists()


def test_put_many_rejects_length_mismatch(tmp_path):
    with pytest.raises(ValueError, match="points"):
        _cache(tmp_path).put_many(COLUMN_POINTS, [])


def test_column_key_groups_by_everything_but_size():
    a, b = COLUMN_POINTS[0], COLUMN_POINTS[1]
    assert a.msg_bytes != b.msg_bytes
    assert column_key(a) == column_key(b)
    for variant in (
        Point("PiP-MPICH", "allgather", 2, 2, 64, engine="auto"),
        Point("PiP-MColl", "allreduce", 2, 2, 64, engine="auto"),
        Point("PiP-MColl", "allgather", 4, 2, 64, engine="auto"),
        Point("PiP-MColl", "allgather", 2, 2, 64, engine="event"),
        Point("PiP-MColl", "allgather", 2, 2, 64, engine="auto", warmup=2),
        Point("PiP-MColl", "allgather", 2, 2, 64, engine="auto",
              thresholds=Thresholds.always_small()),
    ):
        assert column_key(variant) != column_key(a), variant


def test_cache_key_distinct_per_engine_including_batch():
    """Every engine keys its rows apart, and so do the ``dag`` and
    ``batch`` rows a store may hold from when those were engine names:
    no stored row of a removed name can serve an ``auto`` lookup."""
    engines = ENGINES + ("dag", "batch")
    keys = {
        cache_key(Point("PiP-MColl", "allgather", 2, 2, 64, engine=e))
        for e in engines
    }
    assert len(keys) == len(engines)


def test_repeated_sweep_lowers_the_same_work_again():
    """No lowering outlives its work unit: a repeat sweep lowers as much
    as the first, and its rows are the same."""
    runner = SweepRunner(jobs=1, use_cache=False)
    rows = runner.run(COLUMN_POINTS)
    first = runner.lowering_totals()["lowerings"]
    assert first > 0
    assert runner.run(COLUMN_POINTS) == rows
    assert runner.lowering_totals() == {"lowerings": 2 * first, "units": 2}


def test_cache_clear_removes_column_entries(tmp_path):
    cache = _cache(tmp_path)
    SweepRunner(jobs=1, use_cache=True, cache=cache).run(COLUMN_POINTS[:2])
    assert len(cache) == 2
    assert cache.clear() >= 1
    assert len(cache) == 0


# -- sweep expansion and env knobs ----------------------------------------


def test_expand_sweep_is_size_major_then_library():
    pts = expand_sweep("scatter", [64, 128], ["A", "B"], nodes=2, ppn=2)
    assert [(p.msg_bytes, p.library) for p in pts] == [
        (64, "A"), (64, "B"), (128, "A"), (128, "B"),
    ]


def test_jobs_env_knob(monkeypatch):
    monkeypatch.setenv("PIPMCOLL_JOBS", "3")
    assert SweepRunner(use_cache=False).jobs == 3
    monkeypatch.setenv("PIPMCOLL_JOBS", "banana")
    with pytest.raises(ValueError):
        SweepRunner(use_cache=False)


@pytest.mark.parametrize(
    "engine", ("fast", "native", "native-batch", "dag", "batch"))
def test_unknown_engine_rejected_by_runner(engine):
    """Removed engine names are unknown, never aliased: ``Point.engine``
    is part of the cache key, so an alias would fork keys.  ``dag`` and
    ``batch`` are the replays ``auto`` chooses between, not names."""
    with pytest.raises(ValueError, match=f"unknown engine {engine!r}"):
        SweepRunner(jobs=1, use_cache=False, engine=engine)


@pytest.mark.parametrize("engine", ("dag", "batch"))
def test_point_naming_a_replay_fails_when_it_runs(engine):
    """A ``Point`` is a plain value and takes any engine string, but
    evaluating one that names a replay raises like any unknown name."""
    points = [Point("PiP-MColl", "allgather", 2, 2, s, engine=engine)
              for s in (64, 1024)]
    with pytest.raises(ValueError, match=f"unknown engine {engine!r}"):
        SweepRunner(jobs=1, use_cache=False).run(points)


def test_cache_env_knob(monkeypatch, tmp_path):
    monkeypatch.setenv("PIPMCOLL_CACHE_DIR", str(tmp_path / "envcache"))
    monkeypatch.setenv("PIPMCOLL_CACHE", "0")
    assert SweepRunner(jobs=1).use_cache is False
    monkeypatch.setenv("PIPMCOLL_CACHE", "1")
    runner = SweepRunner(jobs=1)
    assert runner.use_cache is True
    assert runner.cache.root == tmp_path / "envcache"


def test_empty_env_flag_means_unset_not_false(monkeypatch, tmp_path):
    """``PIPMCOLL_CACHE=""`` (set but empty, e.g. ``VAR= cmd`` or an
    empty CI secret) must fall back to the default, not read as an
    explicit false."""
    monkeypatch.setenv("PIPMCOLL_CACHE_DIR", str(tmp_path / "envcache"))
    monkeypatch.setenv("PIPMCOLL_CACHE", "")
    assert SweepRunner(jobs=1).use_cache is True  # the default
    monkeypatch.setenv("PIPMCOLL_CACHE", "   ")
    assert SweepRunner(jobs=1).use_cache is True


def test_empty_progress_env_flag_means_unset(monkeypatch, capsys):
    monkeypatch.setenv("PIPMCOLL_PROGRESS", "")
    SweepRunner(jobs=1, use_cache=False).run(POINTS[:1])
    assert capsys.readouterr().err == ""  # default: no progress bar
    monkeypatch.setenv("PIPMCOLL_PROGRESS", "1")
    SweepRunner(jobs=1, use_cache=False).run(POINTS[:1])
    assert "1/1" in capsys.readouterr().err


def test_zero_measure_column_fails_fast_like_run_point(monkeypatch):
    """The worker's batch route with ``measure=0`` must raise the same
    ``ValueError`` as ``run_point`` — up front, before the batch engine
    is ever invoked deep inside a pool worker."""
    import repro.sched.batch as batch

    called = []

    def engine_stub(*args, **kwargs):  # pragma: no cover - fails the test
        called.append(args)
        raise AssertionError("engine must not run for measure=0")

    monkeypatch.setattr(batch, "evaluate_column", engine_stub)
    points = [
        replace(p, measure=0)
        for p in expand_sweep(
            "allgather", [64, 4096], ["PiP-MColl"], nodes=2, ppn=2
        )
    ]
    with pytest.raises(ValueError, match="at least one measured iteration"):
        run_sweep_column_stats(SweepUnit("batch", tuple(points)))
    assert called == []


def test_progress_reports_source(tmp_path):
    cache = _cache(tmp_path)
    events = []

    def progress(done, total, point, source):
        events.append((done, total, point.label(), source))

    SweepRunner(jobs=1, use_cache=True, cache=cache, progress=progress).run(
        POINTS[:2]
    )
    assert [e[3] for e in events] == ["run", "run"]
    events.clear()
    SweepRunner(jobs=1, use_cache=True, cache=cache, progress=progress).run(
        POINTS[:2]
    )
    assert [e[3] for e in events] == ["cache", "cache"]
    assert [e[0] for e in events] == [1, 2]
    assert all(e[1] == 2 for e in events)


def test_run_points_uses_env_default_runner(monkeypatch, tmp_path):
    monkeypatch.setenv("PIPMCOLL_JOBS", "1")
    monkeypatch.setenv("PIPMCOLL_CACHE_DIR", str(tmp_path / "rp"))
    results = run_points(POINTS[:1])
    assert results[0].library == POINTS[0].library
    assert len(ResultCache()) == 1
