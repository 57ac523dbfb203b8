"""Tests for the optional oversubscribed-fabric model.

The paper assumes a flat (full-bisection) fabric; ``fabric_bandwidth``
makes that assumption a knob: when set, all internode traffic shares one
core-bandwidth server, modelling a fat tree's oversubscribed uplinks.
"""

import pytest

from repro.bench.microbench import run_point
from repro.hw import ClusterHW, Topology, tiny_test_machine
from repro.util.units import KB


def fabric_params(bandwidth):
    return tiny_test_machine().with_overrides(fabric_bandwidth=bandwidth)


class TestFabricModel:
    def test_default_is_full_bisection(self):
        hw = ClusterHW(Topology(2, 1), tiny_test_machine())
        assert hw.fabric is None

    def test_fabric_server_created_when_set(self):
        hw = ClusterHW(Topology(2, 1), fabric_params(5e9))
        assert hw.fabric is not None
        assert hw.nics[0].fabric is hw.fabric

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ValueError, match="fabric_bandwidth"):
            fabric_params(-1.0).validate()

    def test_single_transfer_unaffected_by_wide_fabric(self):
        """A fabric faster than the NIC changes nothing for one message."""
        base = ClusterHW(Topology(2, 1), tiny_test_machine())
        wide = ClusterHW(Topology(2, 1), fabric_params(1e12))
        nbytes = 1 << 20
        _, a0 = base.nics[0].transfer(0.0, 0, base.nics[1], nbytes)
        _, a1 = wide.nics[0].transfer(0.0, 0, wide.nics[1], nbytes)
        assert a1 == pytest.approx(a0, rel=1e-9)

    def test_narrow_fabric_bounds_single_stream(self):
        """A fabric slower than the NIC paces a single transfer."""
        p = fabric_params(1e9)  # 10x slower than the NIC
        hw = ClusterHW(Topology(2, 1), p)
        nbytes = 10_000_000
        _, arrival = hw.nics[0].transfer(0.0, 0, hw.nics[1], nbytes, dma=True)
        assert arrival >= nbytes / 1e9

    def test_concurrent_streams_share_the_fabric(self):
        """Disjoint node pairs contend on an oversubscribed core."""
        p = fabric_params(tiny_test_machine().nic_bandwidth)  # 1x one NIC
        hw = ClusterHW(Topology(4, 1), p)
        nbytes = 10_000_000
        _, a1 = hw.nics[0].transfer(0.0, 0, hw.nics[1], nbytes, dma=True)
        _, a2 = hw.nics[2].transfer(0.0, 0, hw.nics[3], nbytes, dma=True)
        # with full bisection these would finish together; here the second
        # stream queues behind the first on the core
        assert max(a1, a2) >= 2 * nbytes / p.nic_bandwidth

    def test_reset_clears_fabric_queue(self):
        hw = ClusterHW(Topology(2, 1), fabric_params(1e9))
        hw.nics[0].transfer(0.0, 0, hw.nics[1], 1 << 20)
        hw.reset_hardware()
        assert hw.fabric._next_free == 0.0


class TestFabricCollectiveImpact:
    def test_oversubscription_slows_allgather(self):
        """An oversubscribed core measurably slows a bandwidth-bound
        allgather; latency-bound small collectives barely move.

        With the tiny test machine, 8 nodes x 2 ppn rendezvous-DMA at
        2 GB/s per process demand up to 32 GB/s of core bandwidth; a core
        capped at a quarter NIC (2.5 GB/s) must bite."""
        full = tiny_test_machine()
        over = fabric_params(full.nic_bandwidth / 4)

        big = 256 * KB  # above the eager threshold: rendezvous DMA
        t_full = run_point("PiP-MColl", "allgather", 8, 2, big, params=full).time
        t_over = run_point("PiP-MColl", "allgather", 8, 2, big, params=over).time
        assert t_over > 1.3 * t_full

        small = 16
        s_full = run_point("PiP-MColl", "allgather", 8, 2, small, params=full).time
        s_over = run_point("PiP-MColl", "allgather", 8, 2, small, params=over).time
        assert s_over < 1.2 * s_full
