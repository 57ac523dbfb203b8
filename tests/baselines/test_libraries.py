"""Every modelled library produces correct collective results."""

import numpy as np
import pytest

from repro.baselines import all_libraries, library_names, make_library
from repro.hw import Topology, tiny_test_machine
from repro.mpi import BYTE, DOUBLE, SUM, Buffer

SHAPES = [(1, 2), (3, 2), (4, 3), (5, 2)]
LIBS = library_names(include_variants=True)


def lib_world(lib_name, shape):
    lib = make_library(lib_name)
    world = lib.make_world(Topology(*shape), tiny_test_machine())
    return lib, world


class TestRegistry:
    def test_all_names_resolve(self):
        for name in LIBS:
            lib = make_library(name)
            assert lib.name == name

    def test_unknown_name_rejected(self):
        with pytest.raises(ValueError, match="unknown library"):
            make_library("LAM/MPI")

    def test_factories_return_fresh_instances(self):
        assert make_library("OpenMPI") is not make_library("OpenMPI")

    def test_paper_lineup(self):
        assert library_names() == [
            "PiP-MColl", "PiP-MPICH", "IntelMPI", "OpenMPI", "MVAPICH2"
        ]
        assert "PiP-MColl-small" in library_names(include_variants=True)

    def test_all_libraries_builds_each(self):
        libs = all_libraries(include_variants=True)
        assert len(libs) == 6


@pytest.mark.parametrize("shape", SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("lib_name", LIBS)
class TestLibraryCorrectness:
    def test_scatter(self, lib_name, shape):
        lib, world = lib_world(lib_name, shape)
        size = world.world_size
        count = 3
        full = np.arange(size * count, dtype=np.float64)
        sendbuf = Buffer.real(full.copy())
        recvs = [Buffer.alloc(DOUBLE, count) for _ in range(size)]

        def body(ctx):
            sb = sendbuf if ctx.rank == 0 else None
            yield from lib.scatter(ctx, sb, recvs[ctx.rank], root=0)

        world.run(body)
        for i, r in enumerate(recvs):
            assert np.array_equal(r.array(), full[i * count : (i + 1) * count])

    def test_allgather(self, lib_name, shape):
        lib, world = lib_world(lib_name, shape)
        size = world.world_size
        rng = np.random.default_rng(1)
        inputs = [Buffer.real(rng.random(2)) for _ in range(size)]
        outputs = [Buffer.alloc(DOUBLE, size * 2) for _ in range(size)]
        expected = np.concatenate([b.array() for b in inputs])

        def body(ctx):
            yield from lib.allgather(ctx, inputs[ctx.rank], outputs[ctx.rank])

        world.run(body)
        for out in outputs:
            assert np.array_equal(out.array(), expected)

    def test_allreduce(self, lib_name, shape):
        lib, world = lib_world(lib_name, shape)
        size = world.world_size
        rng = np.random.default_rng(2)
        inputs = [Buffer.real(rng.random(5)) for _ in range(size)]
        outputs = [Buffer.alloc(DOUBLE, 5) for _ in range(size)]
        expected = np.sum([b.array() for b in inputs], axis=0)

        def body(ctx):
            yield from lib.allreduce(ctx, inputs[ctx.rank], outputs[ctx.rank], SUM)

        world.run(body)
        for out in outputs:
            np.testing.assert_allclose(out.array(), expected, rtol=1e-12)

    def test_alltoall(self, lib_name, shape):
        lib, world = lib_world(lib_name, shape)
        size = world.world_size
        rng = np.random.default_rng(6)
        matrix = rng.random((size, size, 2))
        inputs = [Buffer.real(matrix[r].reshape(-1).copy()) for r in range(size)]
        outputs = [Buffer.alloc(DOUBLE, size * 2) for _ in range(size)]

        def body(ctx):
            yield from lib.alltoall(ctx, inputs[ctx.rank], outputs[ctx.rank])

        world.run(body)
        for dst, out in enumerate(outputs):
            expected = np.concatenate(
                [matrix[src, dst] for src in range(size)]
            )
            assert np.array_equal(out.array(), expected), f"rank {dst}"


class TestLibraryCrossSizes:
    """Cross the intra-library algorithm switch points."""

    @pytest.mark.parametrize("lib_name", LIBS)
    @pytest.mark.parametrize("count", [1, 300, 12_000])
    def test_allreduce_across_switchpoints(self, lib_name, count):
        lib, world = lib_world(lib_name, (3, 2))
        size = world.world_size
        rng = np.random.default_rng(3)
        inputs = [Buffer.real(rng.random(count)) for _ in range(size)]
        outputs = [Buffer.alloc(DOUBLE, count) for _ in range(size)]
        expected = np.sum([b.array() for b in inputs], axis=0)

        def body(ctx):
            yield from lib.allreduce(ctx, inputs[ctx.rank], outputs[ctx.rank], SUM)

        world.run(body)
        for out in outputs:
            np.testing.assert_allclose(out.array(), expected, rtol=1e-12)

    @pytest.mark.parametrize("lib_name", LIBS)
    @pytest.mark.parametrize("count", [4, 4_000])
    def test_allgather_across_switchpoints(self, lib_name, count):
        lib, world = lib_world(lib_name, (4, 2))
        size = world.world_size
        rng = np.random.default_rng(4)
        inputs = [Buffer.real(rng.random(count)) for _ in range(size)]
        outputs = [Buffer.alloc(DOUBLE, size * count) for _ in range(size)]
        expected = np.concatenate([b.array() for b in inputs])

        def body(ctx):
            yield from lib.allgather(ctx, inputs[ctx.rank], outputs[ctx.rank])

        world.run(body)
        for out in outputs:
            assert np.array_equal(out.array(), expected)


#: (send, recv) element counts on the root of a 2x2 world, 8 B per rank;
#: every rank is given the root's, as non-roots may pass what they like
#: for a buffer only the root uses
GOOD_COUNTS = {
    "scatter": (32, 8),
    "allgather": (8, 32),
    "allreduce": (8, 8),
    "alltoall": (32, 32),
    "gather": (8, 32),
    "reduce": (8, 8),
}
#: the root's buffer each case spoils: missing (``None``), or one element
#: short or long of what the collective needs
BAD_BUFFERS = [
    (coll, name, None) for coll, name in
    (("scatter", "send"), ("gather", "recv"), ("reduce", "recv"))
] + [
    (coll, name, delta)
    for coll, name in (("scatter", "send"), ("allgather", "recv"),
                       ("allreduce", "recv"), ("gather", "recv"),
                       ("reduce", "recv"), ("alltoall", "recv"))
    for delta in (-1, 1)
]


def _bad_buffer_id(case):
    coll, name, delta = case
    kind = {None: "missing", -1: "short", 1: "long"}[delta]
    return f"{coll}-{name}-{kind}"


@pytest.mark.parametrize("case", BAD_BUFFERS, ids=_bad_buffer_id)
@pytest.mark.parametrize("lib_name", LIBS)
def test_bad_buffers_refused_before_any_time_passes(lib_name, case):
    """Every library checks its buffers at the call: a missing or
    wrong-sized buffer raises ``ValueError`` naming the buffer and the
    count it needs, at simulated time 0, before the software overhead
    or any schedule step runs."""
    coll, name, delta = case
    lib, world = lib_world(lib_name, (2, 2))
    need = dict(zip(("send", "recv"), GOOD_COUNTS[coll]))
    bufs = [
        {n: Buffer.alloc(BYTE, c) for n, c in need.items()} for _ in range(4)
    ]
    bufs[0][name] = (None if delta is None
                     else Buffer.alloc(BYTE, need[name] + delta))

    def body(ctx):
        send, recv = bufs[ctx.rank]["send"], bufs[ctx.rank]["recv"]
        if coll in ("allreduce", "reduce"):
            yield from getattr(lib, coll)(ctx, send, recv, SUM)
        else:
            yield from getattr(lib, coll)(ctx, send, recv)

    with pytest.raises(ValueError, match=rf"{name} buffer .*\b{need[name]}\b"):
        world.run(body)
    assert world.engine.now == 0.0
