"""Every engine refuses the same impossible protocols, sizes and machines.

A negative warm-up count, a message size that is not an integer, a
machine parameter that is not a finite, meaningful number or a
thresholds override of a library that does not select by size must
fail identically on every engine — one ``ValueError`` naming the value —
instead of each engine answering something different.  "Every engine"
is each name ``run_point`` takes and the two exact replays that
``auto`` chooses between, called directly (``tests.helpers.evaluate_on``).
"""

import numpy as np
import pytest

from repro.bench.runner import Point
from repro.bench.runner.pool import SweepUnit, run_sweep_column_stats
from repro.core.tuning import Thresholds
from repro.hw.params import bebop_broadwell
from repro.sched.batch import evaluate_column
from repro.sched.fastpath import evaluate_point
from tests.helpers import EVERY_ENGINE, evaluate_on

BAD_SIZES = (64.5, True, np.float64(64.0), "64")

#: machine parameters no engine may accept: NaN fails every ordering
#: check, infinity turns times into NaN, a negative bandwidth is nonsense
BAD_PARAMS = (
    ("send_overhead", float("nan")),
    ("wire_latency", float("inf")),
    ("core_copy_bw", -1.0),
)


@pytest.mark.parametrize("engine", EVERY_ENGINE)
def test_negative_warmup_rejected_on_every_engine(engine):
    with pytest.raises(ValueError, match="warmup"):
        evaluate_on(engine, "PiP-MColl", "allgather", 2, 2, 64, warmup=-1,
                    measure=2)


def test_negative_warmup_rejected_by_the_replay_entry_points():
    with pytest.raises(ValueError, match="warmup"):
        evaluate_point("PiP-MColl", "allgather", 2, 2, 64, warmup=-1)
    with pytest.raises(ValueError, match="warmup"):
        evaluate_column("PiP-MColl", "allgather", 2, 2, [64, 4096],
                        warmup=-1)
    points = [Point("PiP-MColl", "allgather", 2, 2, s, warmup=-1,
                    engine="auto") for s in (64, 4096)]
    with pytest.raises(ValueError, match="warmup"):
        run_sweep_column_stats(SweepUnit("batch", tuple(points)))


@pytest.mark.parametrize("engine", EVERY_ENGINE)
@pytest.mark.parametrize("size", BAD_SIZES, ids=repr)
def test_non_integer_size_rejected_on_every_engine(engine, size):
    with pytest.raises(ValueError, match="integer") as info:
        evaluate_on(engine, "PiP-MColl", "allgather", 2, 2, size)
    assert repr(size) in str(info.value)


@pytest.mark.parametrize("size", BAD_SIZES, ids=repr)
def test_non_integer_size_rejected_in_a_column(size):
    with pytest.raises(ValueError, match="integer") as info:
        evaluate_column("PiP-MColl", "allgather", 2, 2, [size, 128])
    assert repr(size) in str(info.value)
    with pytest.raises(ValueError, match="integer"):
        evaluate_point("PiP-MColl", "allgather", 2, 2, size)


@pytest.mark.parametrize("engine", EVERY_ENGINE)
def test_numpy_integer_size_is_the_plain_int_size(engine):
    want = evaluate_on(engine, "PiP-MColl", "allgather", 2, 2, 64)
    got = evaluate_on(engine, "PiP-MColl", "allgather", 2, 2, np.int64(64))
    assert got == want


def test_numpy_integer_sizes_evaluate_as_plain_ints():
    want = evaluate_column("PiP-MColl", "allgather", 2, 2, [64, 128])
    got = evaluate_column("PiP-MColl", "allgather", 2, 2,
                          np.array([64, 128]))
    assert got.results == want.results
    assert all(type(s) is int for s in got.results)


@pytest.mark.parametrize("engine", EVERY_ENGINE)
@pytest.mark.parametrize("field,value", BAD_PARAMS, ids=repr)
def test_invalid_machine_params_rejected_on_every_engine(engine, field,
                                                         value):
    params = bebop_broadwell().with_overrides(**{field: value})
    for size in (64, 70_000):
        with pytest.raises(ValueError, match=field):
            evaluate_on(engine, "PiP-MColl", "allgather", 2, 2, size,
                        params=params)


@pytest.mark.parametrize("engine", EVERY_ENGINE)
def test_thresholds_of_a_library_without_them_rejected_on_every_engine(
        engine):
    """OpenMPI selects by MPICH's fixed rules, not by size thresholds: an
    override is refused, never silently dropped (the analytic tier used
    to return its estimate and ignore it)."""
    with pytest.raises(ValueError, match="no size thresholds"):
        evaluate_on(engine, "OpenMPI", "allgather", 2, 4, 64,
                    thresholds=Thresholds(allgather_large_bytes=32))


@pytest.mark.parametrize("field,value", BAD_PARAMS, ids=repr)
def test_invalid_machine_params_rejected_in_a_column(field, value):
    params = bebop_broadwell().with_overrides(**{field: value})
    with pytest.raises(ValueError, match=field):
        evaluate_column("PiP-MColl", "allgather", 2, 2, [64, 70_000],
                        params=params)
