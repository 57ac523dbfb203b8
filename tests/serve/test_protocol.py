"""Wire-protocol unit tests: addresses, column specs, framing, errors."""

import dataclasses
import gc
import json
import pickle

import pytest

from repro.bench.microbench import MicrobenchResult
from repro.bench.runner.cache import (
    ResultCache,
    result_from_doc,
    result_to_doc,
)
from repro.bench.runner.points import ColumnSpec, Point, column_of
from repro.core.tuning import Thresholds
from repro.hw.params import tiny_test_machine
from repro.serve import protocol
from repro.serve.protocol import (
    MAX_LINE,
    MAX_POINTS,
    PROTOCOL_VERSION,
    ServeError,
    column_from_doc,
    column_to_doc,
    decode_message,
    decode_results,
    encode_message,
    encode_results,
    encoded_result,
    parse_address,
    sweep_columns,
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
              params=tiny_test_machine(), engine="analytic"),
        Point("PiP-MColl", "allgather", 2, 2, 1024,
              thresholds=Thresholds.always_small(), engine="event"),
        # zero bytes and zero warm-up are valid
        Point("PiP-MColl", "allreduce", 2, 2, 0, warmup=0, engine="auto"),
    ]
    for point in points:
        doc = _wire(column_to_doc(point, [point.msg_bytes]))
        assert "msg_bytes" not in doc
        spec, sizes = column_from_doc(doc)
        assert (spec, sizes) == (column_of(point), [point.msg_bytes])
        assert spec.point(point.msg_bytes) == point
        # a column spec encodes like any point of its column
        assert column_to_doc(spec, sizes) == doc
    # one spec, many sizes: the sizes come back in order, repeats kept
    # (on auto: the analytic tier refuses 0 B)
    point = dataclasses.replace(points[1], engine="auto")
    sizes = [4096, 0, 64, 4096]
    assert column_from_doc(_wire(column_to_doc(point, sizes))) == (
        column_of(point), sizes)


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
                              params=tiny_test_machine(), engine="auto"),
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
    removed JIT engine names are unknown, not aliased, and so are the two
    replays ``auto`` chooses between."""
    for engine in ("fast", "native", "native-batch", "dag", "batch"):
        with pytest.raises(ServeError) as err:
            column_from_doc(_column_doc(engine=engine))
        assert err.value.code == "bad-request"
        assert f"unknown engine {engine!r}" in err.value.message
        assert "known:" in err.value.message


def test_uncovered_analytic_column_rejected_at_the_front_door():
    """Only ``analytic`` has coverage gaps; a column outside its closed
    forms is refused when decoded, under any spelling of the library."""
    for library in ("OpenMPI", "openmpi"):
        with pytest.raises(ServeError) as err:
            column_from_doc(_column_doc(library=library, engine="analytic"))
        assert err.value.code == "bad-request"
        assert "'analytic' does not cover OpenMPI/allreduce" \
            in err.value.message
    spec, _ = column_from_doc(_column_doc(engine="analytic"))
    assert (spec.library, spec.engine) == ("PiP-MColl", "analytic")
    # the other engines cover every pair
    assert column_from_doc(_column_doc(library="OpenMPI"))[0].engine == "auto"


def test_zero_byte_analytic_column_rejected_at_the_front_door(tmp_path):
    """The analytic tier's closed forms start at one byte: a column with
    a 0 B size is refused when decoded, and the daemon answers
    ``bad-request`` without evaluating anything.  Every other engine
    answers an empty message."""
    from repro.serve.daemon import SweepDaemon

    doc = {"library": "PiP-MColl", "collective": "allgather", "nodes": 2,
           "ppn": 2, "engine": "analytic", "sizes": [0, 64]}
    with pytest.raises(ServeError) as err:
        column_from_doc(doc)
    assert err.value.code == "bad-request"
    assert "sizes[0] must be >= 1" in err.value.message
    for engine in ("event", "auto"):
        assert column_from_doc({**doc, "engine": engine})[1] == [0, 64]

    daemon = SweepDaemon(str(tmp_path / "never-bound.sock"),
                         cache=ResultCache(tmp_path / "cache"), jobs=0)
    step = daemon._dispatch({"op": "sweep", "version": PROTOCOL_VERSION,
                             "columns": [doc]})
    with pytest.raises(StopIteration) as done:
        step.send(None)
    line, _ = done.value.value
    assert json.loads(line)["error"]["code"] == "bad-request"
    assert daemon.stats_doc()["daemon"]["evaluations"] == 0


def test_library_spelling_becomes_the_registry_name_at_the_front_door():
    """Any spelling ``canonical_name`` maps to a registry library is
    admitted as that library's registry name, which every engine takes."""
    for spelling in ("pip_mcoll", "PIP MCOLL", "pip-mcoll"):
        spec, _ = column_from_doc(_column_doc(library=spelling))
        assert spec.library == "PiP-MColl"
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


def _fragment(row):
    return [row.time, list(row.samples), row.internode_messages]


def test_encoded_results_frame_like_an_encoded_message():
    """A sweep response joined from encoded fragments is the very line
    ``encode_message`` makes of the same v3 document: per column, its
    identity fields once and one fragment per size, in ``sizes`` order
    (repeats included).  The client rebuilds the rows exactly."""
    spec = ColumnSpec("PiP-MColl", "allgather", 2, 4, engine="auto")
    sizes = [64, 512, 64]
    rows = [
        MicrobenchResult("PiP-MColl", "allgather", 2, 4, size, 1e-05 * size,
                         (1e-05 * size, 0.1 + 0.2), 7)
        for size in sizes
    ]
    other = ColumnSpec("OpenMPI", "allreduce", 3, 2, engine="event")
    other_rows = [MicrobenchResult("OpenMPI", "allreduce", 3, 2, 0, 0.0,
                                   (-0.0, 0.0), 0)]
    columns = [(spec, rows), (other, other_rows)]
    for tail in ({}, {"id": 7}, {"id": "req-42"}):
        line = encode_results(columns, tail)
        assert line == encode_message({"ok": True, "columns": [
            {"library": s.library, "collective": s.collective,
             "nodes": s.nodes, "ppn": s.ppn,
             "rows": [_fragment(r) for r in rs]}
            for s, rs in columns
        ], **tail})
        back = decode_results(decode_message(line), [sizes, [0]])
        assert back == [rows, other_rows]
        # bit for bit: the signs of zero survive too
        assert [str(x) for x in back[1][0].samples] == ["-0.0", "0.0"]


def test_decoded_rows_behave_like_constructed_rows():
    """The client fills each row's ``__dict__`` instead of calling the
    dataclass's ``__init__``; the row it builds must compare, hash,
    print, pickle and ``replace`` exactly like the constructor's."""
    want = MicrobenchResult("PiP-MColl", "allgather", 2, 4, 64, 1.5e-05,
                            (1.5e-05, -0.0), 3)
    line = encode_results(
        [(ColumnSpec("PiP-MColl", "allgather", 2, 4), [want])], {})
    [[got]] = decode_results(decode_message(line), [[64]])
    assert type(got) is MicrobenchResult
    assert vars(got) == vars(want)
    assert list(vars(got)) == list(vars(want))  # field order: pickle bytes
    assert got == want and hash(got) == hash(want) and {got, want} == {want}
    assert repr(got) == repr(want)
    assert pickle.dumps(got) == pickle.dumps(want)
    assert pickle.loads(pickle.dumps(got)) == want
    assert dataclasses.replace(got, msg_bytes=128) == dataclasses.replace(
        want, msg_bytes=128)
    with pytest.raises(dataclasses.FrozenInstanceError):
        got.time = 0.0


def test_response_without_the_v3_shape_raises_serve_error():
    """A v2 response (a flat ``results`` list of documents), or one whose
    columns, rows or fragments do not match the request, is a
    :class:`ServeError`, never a ``KeyError`` or a wrong row."""
    row = MicrobenchResult("PiP-MColl", "allgather", 2, 4, 64, 1.0,
                           (1.0, 1.0), 3)
    good = json.loads(encode_results(
        [(ColumnSpec("PiP-MColl", "allgather", 2, 4), [row])], {}))
    assert decode_results(good, [[64]]) == [[row]]
    v2 = {"ok": True, "results": [result_to_doc(row)]}
    short = {"ok": True, "columns": [{**good["columns"][0], "rows": []}]}
    bad_fragment = {"ok": True, "columns": [
        {**good["columns"][0], "rows": [[1.0, [1.0, 1.0]]]}]}
    headless = {"ok": True, "columns": [{"rows": [[1.0, [1.0], 3]]}]}
    for response, sizes in ((v2, [[64]]), (good, [[64], [128]]),
                            (short, [[64]]), (bad_fragment, [[64]]),
                            (headless, [[64]]), ({"ok": True}, [[64]]),
                            ({"ok": True, "columns": 3}, [[64]])):
        with pytest.raises(ServeError) as err:
            decode_results(response, sizes)
        assert err.value.code == "internal"
        assert f"v{PROTOCOL_VERSION}" in err.value.message


def _row(size, time):
    return MicrobenchResult("PiP-MColl", "allgather", 2, 4, size, time,
                            (time, time), 3)


def test_encoded_rows_are_never_stale_and_die_with_their_row(tmp_path):
    cache = ResultCache(tmp_path)
    point = Point("PiP-MColl", "allgather", 2, 4, 64, engine="auto")
    cache.put(point, _row(64, 1.0))
    old = cache.get(point)
    blob = encoded_result(old)
    assert json.loads(blob) == _fragment(old)
    assert encoded_result(cache.get(point)) is blob  # encoded once
    # a put that replaces the row: the bytes served are the new row's
    cache.put(point, _row(64, 2.0))
    new = cache.get(point)
    assert json.loads(encoded_result(new))[0] == 2.0
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
    assert json.loads(encoded_result(back)) == _fragment(new)
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
    huge = ColumnSpec("x" * MAX_LINE, "allgather", 2, 4)
    with pytest.raises(ServeError) as err:
        encode_results([(huge, [_row(64, 1.0)])], {})
    assert err.value.code == "bad-request"


def _sweep(*columns):
    return {"op": "sweep", "version": PROTOCOL_VERSION,
            "columns": list(columns)}


def test_sweep_of_more_points_than_a_response_can_carry_is_refused(
    monkeypatch,
):
    """MAX_POINTS caps the work one sweep may ask for: a size costs two
    bytes of request, so the line limit alone would admit millions.  A
    sweep of more sizes is refused before a single column is decoded;
    one at the cap is not, and its response fits far inside MAX_LINE."""
    assert MAX_POINTS == 77_672
    tiny = MicrobenchResult("", "", 0, 0, 0, 0, (), 0)
    longest_header = ColumnSpec("PiP-MColl-small", "allreduce", 2**31, 2**31)
    fits = encode_results([(longest_header, [tiny] * MAX_POINTS)], {})
    assert len(fits) < MAX_LINE // 8
    # a row of two full-precision samples is eight times longer, and
    # still fits
    row = _row(64, 1.0 / 3.0)
    assert len(encode_results([(longest_header, [row] * MAX_POINTS)],
                              {})) < MAX_LINE

    def spec(count):
        return _column_doc(sizes=[0] * count)

    # specs the count cannot read are left to column validation
    for columns in ([], {"sizes": [0]}, ["not a column"], [spec(1), {}]):
        with pytest.raises(ServeError) as err:
            sweep_columns({"op": "sweep", "version": PROTOCOL_VERSION,
                           "columns": columns})
        assert err.value.code == "bad-request"
    built = []
    monkeypatch.setattr(protocol, "column_from_doc",
                        lambda doc: built.append(len(doc["sizes"])) or doc)
    half = MAX_POINTS // 2
    with pytest.raises(ServeError) as err:
        sweep_columns(_sweep(spec(half), spec(MAX_POINTS - half + 1)))
    assert err.value.code == "bad-request"
    assert f"exceeds {MAX_POINTS}" in err.value.message
    assert built == []
    assert len(sweep_columns(_sweep(spec(half), spec(MAX_POINTS - half)))) \
        == 2
    assert built == [half, MAX_POINTS - half]


def test_sweep_without_the_version_marker_is_refused():
    """A v3 sweep carries ``"version": 3``.  A sweep without it (a v2
    sweep of columns, a v1 sweep of points) or with another version is
    refused, naming v3, before any column is decoded."""
    column = _column_doc(sizes=[64, 1024])
    assert sweep_columns(_sweep(column)) == [column_from_doc(column)]
    for request in ({"op": "sweep", "columns": [column]},
                    {"op": "sweep", "version": 2, "columns": [column]},
                    {"op": "sweep", "points": [
                        {**column, "msg_bytes": 64}]},
                    {"op": "sweep", "version": "3", "columns": [column]}):
        with pytest.raises(ServeError) as err:
            sweep_columns(request)
        assert err.value.code == "bad-request"
        assert f"v{PROTOCOL_VERSION}" in err.value.message
        assert "'columns'" in err.value.message


def test_serve_error_doc_round_trip():
    err = ServeError("overloaded", "32 sweeps in flight")
    back = ServeError.from_doc(json.loads(json.dumps(err.to_doc())))
    assert (back.code, back.message) == (err.code, err.message)
