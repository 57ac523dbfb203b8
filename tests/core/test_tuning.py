"""``Thresholds`` holds plain non-negative ints or refuses to exist.

A float, NaN, bool or numpy threshold used to be stored as given: NaN
compared as "never large" on every engine, ``65536.0`` made a ``Point``
equal to the ``65536`` one under a different cache key, and a numpy
integer made ``cache_key`` raise.  Pinned here on every engine, on the
cache key and at the daemon's wire front door.
"""

import json
from dataclasses import replace

import numpy as np
import pytest

from repro.bench.microbench import ENGINES, run_point
from repro.bench.runner import Point
from repro.bench.runner.cache import cache_key
from repro.core.tuning import Thresholds
from repro.serve.protocol import ServeError, point_from_doc, point_to_doc

FIELDS = ("allgather_large_bytes", "allreduce_large_bytes")
BAD = (float("nan"), float("inf"), 64.5, 65536.0, True, False, -1, "65536",
       None)


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("field", FIELDS)
def test_rejects_non_integer_and_negative_thresholds(field, bad):
    with pytest.raises(ValueError, match=field):
        Thresholds(**{field: bad})


def _numpy_default():
    return Thresholds(allgather_large_bytes=np.int64(65536),
                      allreduce_large_bytes=np.uint32(65536))


def test_integer_types_are_stored_as_python_ints():
    t = _numpy_default()
    assert all(type(getattr(t, f)) is int for f in FIELDS)
    assert t == Thresholds() and hash(t) == hash(Thresholds())
    assert Thresholds(allgather_large_bytes=10**30).allgather_large_bytes \
        == 10**30


@pytest.mark.parametrize("engine", ENGINES)
def test_numpy_threshold_evaluates_like_the_int_on_every_engine(engine):
    args = ("PiP-MColl", "allgather", 2, 4, 65536)
    assert run_point(*args, thresholds=_numpy_default(), engine=engine) \
        == run_point(*args, thresholds=Thresholds(), engine=engine)


def test_equal_thresholds_share_one_cache_key():
    point = Point("PiP-MColl", "allgather", 2, 4, 65536,
                  thresholds=_numpy_default())
    assert cache_key(point) == cache_key(replace(point, thresholds=Thresholds()))


@pytest.mark.parametrize("bad", BAD, ids=repr)
@pytest.mark.parametrize("field", FIELDS)
def test_wire_answers_bad_request(field, bad):
    doc = point_to_doc(Point("PiP-MColl", "allgather", 2, 4, 65536,
                             thresholds=Thresholds()))
    doc["thresholds"][field] = bad
    # through JSON text, as on the socket (NaN and Infinity included)
    doc = json.loads(json.dumps(doc))
    with pytest.raises(ServeError) as exc:
        point_from_doc(doc)
    assert exc.value.code == "bad-request"
    assert field in exc.value.message
