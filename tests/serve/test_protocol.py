"""Wire-protocol unit tests: addresses, point specs, framing, errors."""

import json

import pytest

from repro.bench.microbench import MicrobenchResult
from repro.bench.runner.points import Point
from repro.core.tuning import Thresholds
from repro.hw.params import tiny_test_machine
from repro.serve.protocol import (
    MAX_LINE,
    ServeError,
    decode_message,
    encode_message,
    parse_address,
    point_from_doc,
    point_to_doc,
    result_from_doc,
    result_to_doc,
)


def test_parse_address_forms():
    assert parse_address("127.0.0.1:8641") == ("tcp", "127.0.0.1", 8641)
    assert parse_address("localhost:0") == ("tcp", "localhost", 0)
    assert parse_address("8641") == ("tcp", "127.0.0.1", 8641)
    assert parse_address("/tmp/repro.sock") == ("unix", "/tmp/repro.sock")
    assert parse_address("relative.sock") == ("unix", "relative.sock")
    # a path containing a colon is still a path
    assert parse_address("/tmp/odd:name/d.sock") == \
        ("unix", "/tmp/odd:name/d.sock")
    with pytest.raises(ValueError):
        parse_address("   ")


def test_point_round_trips_including_params_and_thresholds():
    points = [
        Point("PiP-MColl", "allgather", 2, 4, 512, engine="auto"),
        Point("PiP-MColl", "allreduce", 4, 8, 65536, warmup=2, measure=3,
              params=tiny_test_machine(), engine="batch"),
        Point("PiP-MColl", "allgather", 2, 2, 1024,
              thresholds=Thresholds.always_small(), engine="event"),
        # zero bytes and zero warm-up are valid: the event engine answers
        Point("PiP-MColl", "allreduce", 2, 2, 0, warmup=0, engine="auto"),
    ]
    for point in points:
        doc = json.loads(json.dumps(point_to_doc(point)))
        assert point_from_doc(doc) == point


def test_malformed_point_spec_raises_bad_request():
    with pytest.raises(ServeError) as err:
        point_from_doc({"library": "PiP-MColl"})
    assert err.value.code == "bad-request"
    with pytest.raises(ServeError) as err:
        point_from_doc("not an object")
    assert err.value.code == "bad-request"
    with pytest.raises(ServeError) as err:
        point_from_doc({
            "library": "x", "collective": "y", "nodes": 2, "ppn": 2,
            "msg_bytes": 64, "params": {"no_such_field": 1},
        })
    assert err.value.code == "bad-request"


@pytest.mark.parametrize("field,value", [
    ("send_overhead", float("nan")),
    ("wire_latency", float("inf")),
    ("core_copy_bw", -1.0),
])
def test_invalid_machine_params_rejected_at_the_front_door(field, value):
    """Parameters are validated when the point is decoded, so a NaN or
    negative rate never reaches an engine or the result cache."""
    doc = point_to_doc(Point("PiP-MColl", "allgather", 2, 2, 64,
                             params=tiny_test_machine(), engine="dag"))
    doc["params"][field] = value
    with pytest.raises(ServeError) as err:
        point_from_doc(json.loads(json.dumps(doc)))
    assert err.value.code == "bad-request"
    assert field in err.value.message


def test_unknown_engine_rejected_at_the_front_door():
    """Engine names are validated once, at the daemon entry, with the
    same message the SweepRunner constructor uses — a bad name must not
    surface as an ``internal`` error from deep inside a worker.  The
    removed JIT engine names are unknown, not aliased."""
    for engine in ("fast", "native", "native-batch"):
        doc = {
            "library": "PiP-MColl", "collective": "allreduce",
            "nodes": 2, "ppn": 2, "msg_bytes": 64, "engine": engine,
        }
        with pytest.raises(ServeError) as err:
            point_from_doc(doc)
        assert err.value.code == "bad-request"
        assert f"unknown engine {engine!r}" in err.value.message
        assert "known:" in err.value.message


@pytest.mark.parametrize("field,value", [
    ("msg_bytes", 64.5),
    ("msg_bytes", "64"),
    ("msg_bytes", -8),
    ("ppn", True),
    ("nodes", 0),
    ("nodes", 2.0),
    ("ppn", 0),
    ("measure", 0),
    ("measure", None),
    ("warmup", -1),
])
def test_malformed_wire_numbers_rejected_at_the_front_door(field, value):
    """Integer fields must be JSON integers in range: a float, string or
    bool is never truncated or coerced, and an out-of-range count never
    reaches a worker."""
    doc = {
        "library": "PiP-MColl", "collective": "allreduce",
        "nodes": 2, "ppn": 2, "msg_bytes": 64, "engine": "auto",
        field: value,
    }
    with pytest.raises(ServeError) as err:
        point_from_doc(doc)
    assert err.value.code == "bad-request"
    assert field in err.value.message


def test_result_doc_round_trip_is_bit_identical():
    # JSON floats serialize via repr, so float64 round-trips exactly —
    # the property the daemon's bit-identity contract rests on
    result = MicrobenchResult(
        library="PiP-MColl", collective="allgather", nodes=2, ppn=4,
        msg_bytes=512, time=1.2345678901234567e-05,
        samples=(1.2345678901234567e-05, 1.2345678901234568e-05),
        internode_messages=42,
    )
    doc = json.loads(json.dumps(result_to_doc(result)))
    assert result_from_doc(doc) == result


def test_framing_round_trip_and_junk():
    doc = {"op": "sweep", "points": [], "id": 7}
    line = encode_message(doc)
    assert line.endswith(b"\n")
    assert decode_message(line) == doc
    with pytest.raises(ServeError):
        decode_message(b"not json\n")
    with pytest.raises(ServeError):
        decode_message(b"[1, 2]\n")  # an array is not a message


def test_oversized_message_refused_on_encode():
    with pytest.raises(ServeError) as err:
        encode_message({"blob": "x" * MAX_LINE})
    assert err.value.code == "bad-request"


def test_serve_error_doc_round_trip():
    err = ServeError("overloaded", "32 sweeps in flight")
    back = ServeError.from_doc(json.loads(json.dumps(err.to_doc())))
    assert (back.code, back.message) == (err.code, err.message)
