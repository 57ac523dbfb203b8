"""Tests for the OSU-style CLI tool."""

import pytest

from repro.bench.microbench import run_point
from repro.tools.osu import latency_rows, main, sweep_sizes


class TestSweepSizes:
    def test_powers_of_two_inclusive(self):
        assert sweep_sizes(16, 128) == [16, 32, 64, 128]

    def test_non_power_max_appended(self):
        assert sweep_sizes(16, 100) == [16, 32, 64, 100]

    def test_single_size(self):
        assert sweep_sizes(64, 64) == [64]

    def test_invalid(self):
        with pytest.raises(ValueError):
            sweep_sizes(0, 16)
        with pytest.raises(ValueError):
            sweep_sizes(64, 16)


class TestLatencyRows:
    @pytest.mark.parametrize("coll", ["alltoall", "reduce"])
    def test_equals_the_event_loop(self, coll):
        libs = ["PiP-MColl", "OpenMPI", "IntelMPI"]
        sizes = sweep_sizes(16, 256)
        rows = list(latency_rows(coll, libs, 3, 3, sizes))
        assert rows == [
            [run_point(lib, coll, 3, 3, s, engine="event").time
             for lib in libs]
            for s in sizes
        ]


class TestCli:
    def test_prints_latency_table(self, capsys):
        rc = main([
            "--collective", "allreduce", "--libs", "PiP-MColl,IntelMPI",
            "--nodes", "2", "--ppn", "2", "--min-size", "16",
            "--max-size", "64",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "PiP-MColl" in out and "IntelMPI" in out
        assert "16B" in out and "64B" in out
        assert "us" in out

    def test_all_collectives_runnable(self, capsys):
        for coll in ("scatter", "allgather", "alltoall"):
            rc = main([
                "--collective", coll, "--libs", "PiP-MColl",
                "--nodes", "2", "--ppn", "2", "--min-size", "32",
                "--max-size", "32",
            ])
            assert rc == 0

    def test_unknown_library_rejected(self):
        with pytest.raises(SystemExit):
            main(["--libs", "LAM/MPI", "--nodes", "2", "--ppn", "2"])

    def test_unknown_collective_rejected(self):
        with pytest.raises(SystemExit):
            main(["--collective", "alltoallw"])
