"""Tests for the comparison-matrix CLI."""

import pytest

from repro.bench.microbench import run_point
from repro.tools.compare import build_matrix, format_matrix, main


class TestBuildMatrix:
    def test_covers_all_collectives_and_libs(self):
        libs = ["PiP-MColl", "IntelMPI"]
        matrix = build_matrix(libs, 2, 2, 64)
        from repro.bench.microbench import COLLECTIVES

        assert set(matrix) == set(COLLECTIVES)
        for row in matrix.values():
            assert set(row) == set(libs)
            assert all(t > 0 for t in row.values())


    def test_equals_the_event_loop(self):
        libs = ["PiP-MColl", "PiP-MPICH", "MVAPICH2"]
        matrix = build_matrix(libs, 2, 3, 1024)
        for coll, row in matrix.items():
            for lib, time in row.items():
                assert time == run_point(lib, coll, 2, 3, 1024,
                                         engine="event").time, (coll, lib)


class TestFormat:
    def test_marks_fastest(self):
        matrix = {"scatter": {"A": 2e-6, "B": 1e-6}}
        text = format_matrix(matrix, ["A", "B"])
        assert "1.000us*" in text
        assert "2.000us*" not in text
        assert "fastest in row" in text


class TestCli:
    def test_prints_matrix(self, capsys):
        rc = main([
            "--libs", "PiP-MColl,PiP-MPICH", "--nodes", "2", "--ppn", "2",
            "--size", "128",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        for coll in ("scatter", "allgather", "allreduce", "alltoall",
                     "bcast", "gather", "reduce"):
            assert coll in out

    def test_unknown_library_rejected(self):
        with pytest.raises(SystemExit):
            main(["--libs", "HPE-MPI"])

    def test_bad_size_rejected(self):
        with pytest.raises(ValueError):
            main(["--libs", "PiP-MColl", "--size", "a lot"])
