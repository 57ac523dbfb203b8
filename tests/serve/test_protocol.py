"""Wire-protocol unit tests: addresses, column specs, framing, errors."""

import gc
import json

import pytest

from repro.bench.microbench import MicrobenchResult
from repro.bench.runner.cache import ResultCache
from repro.bench.runner.points import Point
from repro.core.tuning import Thresholds
from repro.hw.params import tiny_test_machine
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_LINE,
    MAX_POINTS,
    ServeError,
    column_from_doc,
    column_to_doc,
    decode_message,
    encode_message,
    encode_results,
    encoded_result,
    parse_address,
    result_from_doc,
    result_to_doc,
    sweep_points,
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


def _wire(doc):
    """``doc`` as the daemon sees it: through JSON text, as on the
    socket (NaN and Infinity included)."""
    return json.loads(json.dumps(doc))


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
        doc = _wire(column_to_doc(point, [point.msg_bytes]))
        assert "msg_bytes" not in doc
        assert column_from_doc(doc) == [point]
    # one spec, many sizes: the points come back in ``sizes`` order
    point = points[1]
    sizes = [4096, 0, 64, 4096]
    assert column_from_doc(_wire(column_to_doc(point, sizes))) == [
        Point(point.library, point.collective, point.nodes, point.ppn, s,
              point.warmup, point.measure, point.params, engine="batch")
        for s in sizes
    ]


def _column_doc(**fields):
    doc = {
        "library": "PiP-MColl", "collective": "allreduce",
        "nodes": 2, "ppn": 2, "engine": "auto", "sizes": [64],
    }
    doc.update(fields)
    return doc


def test_malformed_point_spec_raises_bad_request():
    for doc in (
        {"library": "PiP-MColl"},
        "not an object",
        _column_doc(params={"no_such_field": 1}),
        # sizes must be a non-empty list: a v1 point spec is no column
        {k: v for k, v in _column_doc(msg_bytes=64).items() if k != "sizes"},
        _column_doc(sizes=64),
        _column_doc(sizes=[]),
    ):
        with pytest.raises(ServeError) as err:
            column_from_doc(doc)
        assert err.value.code == "bad-request"


@pytest.mark.parametrize("field,value", [
    ("send_overhead", float("nan")),
    ("wire_latency", float("inf")),
    ("core_copy_bw", -1.0),
])
def test_invalid_machine_params_rejected_at_the_front_door(field, value):
    """Parameters are validated when the column is decoded, so a NaN or
    negative rate never reaches an engine or the result cache."""
    doc = column_to_doc(Point("PiP-MColl", "allgather", 2, 2, 64,
                              params=tiny_test_machine(), engine="dag"),
                        [64, 70_000])
    doc["params"][field] = value
    with pytest.raises(ServeError) as err:
        column_from_doc(_wire(doc))
    assert err.value.code == "bad-request"
    assert field in err.value.message


def test_unknown_engine_rejected_at_the_front_door():
    """Engine names are validated once, at the daemon entry, with the
    same message the SweepRunner constructor uses — a bad name must not
    surface as an ``internal`` error from deep inside a worker.  The
    removed JIT engine names are unknown, not aliased."""
    for engine in ("fast", "native", "native-batch"):
        with pytest.raises(ServeError) as err:
            column_from_doc(_column_doc(engine=engine))
        assert err.value.code == "bad-request"
        assert f"unknown engine {engine!r}" in err.value.message
        assert "known:" in err.value.message


def test_library_spelling_becomes_the_registry_name_at_the_front_door():
    """Any spelling ``canonical_name`` maps to a registry library is
    admitted as that library's registry name, which every engine takes."""
    for spelling in ("pip_mcoll", "PIP MCOLL", "pip-mcoll"):
        points = column_from_doc(_column_doc(library=spelling))
        assert [p.library for p in points] == ["PiP-MColl"]
    assert column_from_doc(_column_doc(library="openmpi"))[0].library == (
        "OpenMPI")


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
    reaches a worker.  Message sizes travel as a column's ``sizes``; a
    bad one is named by its index."""
    if field == "msg_bytes":
        doc, name = _column_doc(sizes=[64, value, 512]), "sizes[1]"
    else:
        doc, name = _column_doc(**{field: value}), field
    with pytest.raises(ServeError) as err:
        column_from_doc(doc)
    assert err.value.code == "bad-request"
    assert name in err.value.message


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
    doc = {"op": "sweep", "columns": [], "id": 7}
    line = encode_message(doc)
    assert line.endswith(b"\n")
    assert decode_message(line) == doc
    with pytest.raises(ServeError):
        decode_message(b"not json\n")
    with pytest.raises(ServeError):
        decode_message(b"[1, 2]\n")  # an array is not a message


def test_encoded_results_frame_like_an_encoded_message():
    """A sweep response joined from encoded rows is the very line
    ``encode_message`` makes of the same document."""
    rows = [
        MicrobenchResult("PiP-MColl", "allgather", 2, 4, size, 1e-05 * size,
                         (1e-05 * size, 0.1 + 0.2), 7)
        for size in (64, 512)
    ]
    docs = [result_to_doc(r) for r in rows]
    for tail in ({}, {"id": 7}, {"id": "req-42"}):
        line = encode_results(rows, tail)
        assert line == encode_message({"ok": True, "results": docs, **tail})
        assert [result_from_doc(d) for d in decode_message(line)["results"]] \
            == rows


def _row(size, time):
    return MicrobenchResult("PiP-MColl", "allgather", 2, 4, size, time,
                            (time, time), 3)


def test_encoded_rows_are_never_stale_and_die_with_their_row(tmp_path):
    cache = ResultCache(tmp_path)
    point = Point("PiP-MColl", "allgather", 2, 4, 64, engine="batch")
    cache.put(point, _row(64, 1.0))
    old = cache.get(point)
    blob = encoded_result(old)
    assert json.loads(blob) == result_to_doc(old)
    assert encoded_result(cache.get(point)) is blob  # encoded once
    # a put that replaces the row: the bytes served are the new row's
    cache.put(point, _row(64, 2.0))
    new = cache.get(point)
    assert json.loads(encoded_result(new))["time"] == 2.0
    # the replaced row's bytes go when the row does
    old_key = id(old)
    del old
    gc.collect()
    assert old_key not in protocol._ENCODED
    # a flush replaces the pending row with the one read back from its
    # shard: encoded afresh, from that row
    cache.flush()
    back = cache.get(point)
    assert back is not new and back == new
    assert json.loads(encoded_result(back)) == result_to_doc(new)
    new_key, back_key = id(new), id(back)
    del new
    gc.collect()
    assert new_key not in protocol._ENCODED
    assert protocol._ENCODED[back_key][0]() is back
    cache.clear()
    del back
    gc.collect()
    assert back_key not in protocol._ENCODED
    # rows equal by value are still encoded apart: 0.0 == -0.0
    zero, minus_zero = _row(64, 0.0), _row(64, -0.0)
    assert zero == minus_zero
    assert encoded_result(zero) != encoded_result(minus_zero)


def test_oversized_message_refused_on_encode():
    with pytest.raises(ServeError) as err:
        encode_message({"blob": "x" * MAX_LINE})
    assert err.value.code == "bad-request"
    huge = MicrobenchResult("x" * MAX_LINE, "allgather", 2, 4, 64, 1.0,
                            (1.0,), 3)
    with pytest.raises(ServeError) as err:
        encode_results([huge], {})
    assert err.value.code == "bad-request"


def test_sweep_of_more_points_than_a_response_can_carry_is_refused(
    monkeypatch,
):
    """A size costs two bytes of request but a whole result document of
    response, so the line limit alone would admit millions of points.  A
    sweep with more sizes than any response within MAX_LINE can carry is
    refused before a single point is built; one at the cap is not."""
    # the cap is tight for the shortest result document there is ...
    tiny = MicrobenchResult("", "", 0, 0, 0, 0, (), 0)
    with pytest.raises(ServeError):
        encode_results([tiny] * (MAX_POINTS + 1), {})
    # ... and real rows are longer
    assert len(encoded_result(_row(64, 1.0))) > len(encoded_result(tiny))

    def spec(count):
        return _column_doc(sizes=[0] * count)

    # specs the count cannot read are left to column validation
    for columns in ([], {"sizes": [0]}, ["not a column"], [spec(1), {}]):
        with pytest.raises(ServeError) as err:
            sweep_points(columns)
        assert err.value.code == "bad-request"
    built = []
    monkeypatch.setattr(protocol, "column_from_doc",
                        lambda doc: built.append(len(doc["sizes"])) or [])
    half = MAX_POINTS // 2
    with pytest.raises(ServeError) as err:
        sweep_points([spec(half), spec(MAX_POINTS - half + 1)])
    assert err.value.code == "bad-request"
    assert f"exceeds {MAX_POINTS}" in err.value.message
    assert built == []
    assert sweep_points([spec(half), spec(MAX_POINTS - half)]) == []
    assert built == [half, MAX_POINTS - half]


def test_serve_error_doc_round_trip():
    err = ServeError("overloaded", "32 sweeps in flight")
    back = ServeError.from_doc(json.loads(json.dumps(err.to_doc())))
    assert (back.code, back.message) == (err.code, err.message)
