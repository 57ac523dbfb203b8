"""The analytic tier: closed-form estimates with an error-bounded contract.

Unlike the DAG/batch engines there is no bit-identity to assert; the
contract is (a) coverage of the registry surface, (b) measured relative
error vs the exact engines below the documented
:data:`repro.sched.analytic.ERROR_BOUND`, (c) vectorized axis evaluation
identical to per-point evaluation, and (d) logical message counts equal to
the static schedule count times the iteration count.
"""

import pickle

import pytest

from repro.bench.microbench import ENGINES, run_point
from repro.core.tuning import Thresholds
from repro.models.calibrate import measure_errors
from repro.sched.analytic import (
    ANALYTIC_PAIRS,
    ERROR_BOUND,
    analytic_supported,
    evaluate_axis,
    evaluate_point,
    static_internode_messages,
)
from repro.sched.check import GRID_SHAPES, GRID_SIZES, check_planned
from repro.sched.registry import plan_for, registry_combinations

SHAPES = ((2, 4), (3, 8))
SIZES = (512, 16384, 262144)


# -- coverage -------------------------------------------------------------


def test_supported_is_the_registry_surface():
    assert set(ANALYTIC_PAIRS) <= set(registry_combinations())
    for lib, coll in ANALYTIC_PAIRS:
        assert analytic_supported(lib, coll)
    assert not analytic_supported("openmpi", "scatter")
    assert not analytic_supported("pip-mcoll", "bcast")
    assert not analytic_supported("mvapich2", "allgather")


def test_unsupported_pair_raises():
    with pytest.raises(ValueError, match="closed-form"):
        evaluate_point("OpenMPI", "scatter", 2, 2, 512)


# -- accuracy contract ----------------------------------------------------


def test_error_bound_on_quick_grid():
    """Measured max relative error vs the DAG engine stays below the
    documented bound (the full-grid figure is persisted by
    ``python -m repro.models.calibrate`` to results/analytic_error.json)."""
    doc = measure_errors(quick=True)
    assert doc["bound"] == ERROR_BOUND
    assert doc["overall"]["max_rel_err"] < ERROR_BOUND, doc["overall"]
    assert doc["within_bound"]


def test_estimates_are_positive_and_monotone_at_scale():
    """Per-iteration estimates are positive and grow with the message
    size once past the latency floor (sanity of the closed forms)."""
    for lib, coll in ANALYTIC_PAIRS:
        col = evaluate_axis(lib, coll, 2, 4, (16384, 65536, 262144))
        times = [col.results[s].time for s in (16384, 65536, 262144)]
        assert all(t > 0 for t in times), (lib, coll)
        assert times[0] < times[1] < times[2], (lib, coll, times)


# -- vectorization --------------------------------------------------------


def test_axis_matches_per_point():
    axis = (16, 512, 4096, 65536, 131072, 524288)
    for lib, coll in (("pip-mcoll", "allreduce"), ("openmpi", "allgather")):
        col = evaluate_axis(lib, coll, 2, 8, axis)
        for s in axis:
            assert col.results[s] == evaluate_point(lib, coll, 2, 8, s)


def test_thresholds_override_switches_algorithm():
    always_small = evaluate_point(
        "pip-mcoll", "allreduce", 2, 4, 262144,
        thresholds=Thresholds.always_small(),
    )
    default = evaluate_point("pip-mcoll", "allreduce", 2, 4, 262144)
    assert always_small.time != default.time


# -- message counts -------------------------------------------------------


@pytest.mark.parametrize("lib,coll", ANALYTIC_PAIRS)
def test_message_counts_are_static_times_iterations(lib, coll):
    for nodes, ppn in SHAPES:
        for nbytes in SIZES:
            est = evaluate_point(
                lib, coll, nodes, ppn, nbytes, warmup=2, measure=3
            )
            static = check_planned(
                plan_for(lib, coll, nodes, ppn, nbytes), ppn
            ).internode_messages
            assert est.internode_messages == static * 5, (
                lib, coll, nodes, ppn, nbytes
            )


def test_static_count_equals_the_checkers_on_the_grid():
    """The analytic tier counts a schedule's off-node sends directly; on
    every registry combination over the checker's ``--grid`` shapes and
    sizes the count equals the full static check's."""
    for lib, coll in registry_combinations():
        for nodes, ppn in GRID_SHAPES:
            for nbytes in GRID_SIZES:
                piece = plan_for(lib, coll, nodes, ppn, nbytes)
                assert static_internode_messages(piece, ppn) == \
                    check_planned(piece, ppn).internode_messages, piece.label


# -- engine wiring --------------------------------------------------------


def test_engine_registered():
    assert "analytic" in ENGINES


def test_run_point_engine_analytic():
    r = run_point(
        "PiP-MColl", "allreduce", 2, 4, 65536, engine="analytic", measure=3
    )
    est = evaluate_point("pip-mcoll", "allreduce", 2, 4, 65536, measure=3)
    assert r.time == est.time
    assert r.samples == (est.time,) * 3
    assert r.internode_messages == est.internode_messages
    # plain primitives: must survive the pool/cache pickle round-trip
    assert pickle.loads(pickle.dumps(r)) == r
    assert isinstance(r.time, float)
    assert all(isinstance(s, float) for s in r.samples)
    assert isinstance(r.internode_messages, int)


def test_run_point_engine_analytic_rejects_tracing():
    from repro.sim.trace import Tracer

    with pytest.raises(ValueError, match="trace"):
        run_point("PiP-MColl", "allreduce", 2, 2, 512, engine="analytic",
                  tracer=Tracer())


def test_auto_never_resolves_to_analytic():
    from repro.bench.microbench import resolve_engine

    assert resolve_engine("auto", "pip-mcoll", "allreduce") in (
        "event", "dag"
    )


def test_analytic_validates_machine_params():
    """Like the exact engines, the analytic tier refuses parameters that
    MachineParams.validate() rejects instead of estimating with them."""
    from repro.hw.params import bebop_broadwell

    for field, value in (("core_copy_bw", -1.0),
                         ("send_overhead", float("nan"))):
        params = bebop_broadwell().with_overrides(**{field: value})
        with pytest.raises(ValueError, match=field):
            evaluate_axis("pip-mcoll", "allgather", 2, 2, (64, 70_000),
                          params=params)


def test_analytic_validates_arguments():
    with pytest.raises(ValueError, match="measured"):
        evaluate_point("pip-mcoll", "allreduce", 2, 2, 512, measure=0)
    with pytest.raises(ValueError, match="empty"):
        evaluate_axis("pip-mcoll", "allreduce", 2, 2, ())
    with pytest.raises(ValueError, match="positive"):
        evaluate_axis("pip-mcoll", "allreduce", 2, 2, (0,))
