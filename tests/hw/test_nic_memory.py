"""Tests for the NIC and memory hardware models."""

import numpy as np
import pytest

from repro.hw import ClusterHW, Topology, tiny_test_machine
from repro.hw.memory import BatchMemory
from repro.sim.batchline import BatchDivergence
from repro.sim.engine import Engine


@pytest.fixture()
def hw():
    return ClusterHW(Topology(nodes=2, ppn=4), tiny_test_machine())


class TestNic:
    def test_single_small_message_latency(self, hw):
        p = hw.params
        nic0, nic1 = hw.nics[0], hw.nics[1]
        nbytes = 16
        inject_done, arrival = nic0.transfer(0.0, 0, nic1, nbytes)
        # injection limited by per-process message gap (16B/1GB/s < 1us gap)
        assert inject_done == pytest.approx(1.0 / p.proc_msg_rate)
        # cut-through: the slow stage (injection gap) + wire latency
        assert arrival == pytest.approx(inject_done + p.wire_latency)

    def test_large_message_bandwidth_bound(self, hw):
        p = hw.params
        nic0, nic1 = hw.nics[0], hw.nics[1]
        nbytes = 10_000_000
        inject_done, arrival = nic0.transfer(0.0, 0, nic1, nbytes)
        assert inject_done == pytest.approx(nbytes / p.proc_bandwidth)
        # fully pipelined: paced by the slowest stage, not the stage sum
        assert arrival == pytest.approx(inject_done + p.wire_latency)

    def test_dma_transfer_uses_dma_bandwidth(self, hw):
        p = hw.params
        nic0, nic1 = hw.nics[0], hw.nics[1]
        nbytes = 10_000_000
        inject_done, arrival = nic0.transfer(0.0, 0, nic1, nbytes, dma=True)
        assert inject_done == pytest.approx(nbytes / p.proc_dma_bandwidth)
        assert arrival == pytest.approx(inject_done + p.wire_latency)
        # DMA is strictly faster than the eager copy path for big payloads
        _, eager_arrival = nic0.transfer(arrival, 1, nic1, nbytes)
        assert eager_arrival - arrival > arrival

    def test_multiple_senders_scale_message_rate(self, hw):
        """The Fig. 1 effect: k senders sustain ~k x one sender's rate."""
        p = hw.params
        msgs = 100

        def last_arrival(num_senders):
            cluster = ClusterHW(Topology(nodes=2, ppn=4), p)
            a, b = cluster.nics[0], cluster.nics[1]
            t = 0.0
            for i in range(msgs):
                _, arr = a.transfer(0.0, i % num_senders, b, 16)
                t = max(t, arr)
            return t

        t1, t4 = last_arrival(1), last_arrival(4)
        # 4 senders inject in parallel pipelines: ~4x faster until NIC cap
        assert t4 < t1 / 3

    def test_nic_message_rate_ceiling(self, hw):
        """Aggregate rate never exceeds the NIC ceiling however many senders."""
        p = hw.params
        msgs = 200
        cluster = ClusterHW(Topology(nodes=2, ppn=4), p)
        a, b = cluster.nics[0], cluster.nics[1]
        last = 0.0
        for i in range(msgs):
            _, arr = a.transfer(0.0, i % 4, b, 16)
            last = max(last, arr)
        min_time = msgs / p.nic_msg_rate
        assert last >= min_time

    def test_incast_serialises_at_receiver(self, hw):
        """Two full-bandwidth streams into one node take ~2x one stream."""
        p = hw.params
        nbytes = 10_000_000
        cluster = ClusterHW(Topology(nodes=3, ppn=1), p)
        _, arr1 = cluster.nics[0].transfer(0.0, 0, cluster.nics[2], nbytes)
        _, arr2 = cluster.nics[1].transfer(0.0, 0, cluster.nics[2], nbytes)
        wire = nbytes / p.nic_bandwidth
        assert max(arr1, arr2) >= 2 * wire

    def test_accounting_and_reset(self, hw):
        nic0, nic1 = hw.nics[0], hw.nics[1]
        nic0.transfer(0.0, 0, nic1, 100)
        assert nic0.messages_sent == 1
        assert nic0.bytes_sent == 100
        nic0.reset()
        assert nic0.messages_sent == 0


class TestMemory:
    def test_copy_blocks_for_service_time(self, hw):
        from repro.sim.engine import Engine

        eng = hw.engine
        mem = hw.memories[0]
        p = hw.params

        def body():
            yield from mem.copy(1000)

        proc = eng.spawn(body())
        eng.run()
        assert eng.now == pytest.approx(1000 / p.core_copy_bw + p.copy_latency)
        assert mem.bytes_copied == 1000

    def test_reduce_uses_reduce_bandwidth(self, hw):
        eng = hw.engine
        mem = hw.memories[0]
        p = hw.params

        def body():
            yield from mem.reduce(4096)

        eng.spawn(body())
        eng.run()
        assert eng.now == pytest.approx(4096 / p.reduce_bw + p.copy_latency)

    def test_zero_byte_copy_costs_only_latency(self, hw):
        eng = hw.engine
        mem = hw.memories[0]

        def body():
            yield from mem.copy(0)

        eng.spawn(body())
        eng.run()
        assert eng.now == pytest.approx(hw.params.copy_latency)

    def test_lane_contention_queues_excess_copies(self):
        params = tiny_test_machine()  # 10 lanes
        hw = ClusterHW(Topology(nodes=1, ppn=1), params)
        mem = hw.memories[0]
        nbytes = 10_000_000
        service = nbytes / params.core_copy_bw

        def body():
            yield from mem.copy(nbytes)

        for _ in range(11):  # one more than the lane count
            hw.engine.spawn(body())
        hw.engine.run()
        # 10 run in parallel, the 11th queues behind them
        assert hw.engine.now == pytest.approx(2 * service + params.copy_latency)

    def test_fault_cost_charged_once_per_region(self, hw):
        mem = hw.memories[0]
        p = hw.params
        cost = mem.fault_cost(("rank1", 42), 2 * p.page_size)
        assert cost == pytest.approx(2 * p.page_fault_time)
        assert mem.fault_cost(("rank1", 42), 2 * p.page_size) == 0.0
        # different consumer faults independently
        assert mem.fault_cost(("rank2", 42), p.page_size) > 0

    def test_fault_cost_rounds_pages_up(self, hw):
        mem = hw.memories[0]
        p = hw.params
        assert mem.fault_cost("k", 1) == pytest.approx(p.page_fault_time)


class _Shim:
    """The batch engine's ``engine`` duck: records conflict accesses."""

    def __init__(self):
        self.touches = []

    def touch_ok(self, key, ok):
        self.touches.append((key, ok))


@pytest.fixture()
def bmem():
    return BatchMemory(_Shim(), tiny_test_machine(), node=0, width=3)


class TestBatchMemory:
    """The size-dependent branches split a partition on a mixed mask and
    collapse a uniform one, like :class:`MemoryModel` per size."""

    def test_copy_of_mixed_zero_counts_splits(self, bmem):
        nbytes = np.array([0, 64, 0])
        with pytest.raises(BatchDivergence) as info:
            bmem.copy_occupy(np.zeros(3), nbytes, 1e-6)
        assert info.value.mask.tolist() == (nbytes > 0).tolist()

    def test_copy_of_all_zero_counts_reserves_nothing(self, bmem):
        lanes = bmem._lane_free.copy()
        blocked = bmem.copy_occupy(np.zeros(3), np.zeros(3, dtype=np.int64),
                                   1e-6)
        assert blocked == bmem.params.copy_latency + 1e-6
        assert np.array_equal(bmem._lane_free, lanes)
        assert bmem.engine.touches == []

    def test_warm_region_costs_nothing_even_for_a_mixed_mask(self, bmem):
        bmem._warmed.add("k")
        assert bmem.fault_cost("k", np.array([0, 4096, 0])) == 0.0

    def test_cold_region_with_a_mixed_mask_splits_and_stays_cold(self, bmem):
        nbytes = np.array([0, 4096, 0])
        with pytest.raises(BatchDivergence) as info:
            bmem.fault_cost("k", nbytes)
        assert info.value.mask.tolist() == (nbytes != 0).tolist()
        assert "k" not in bmem._warmed

    def test_cold_region_with_all_zero_counts_stays_cold(self, bmem):
        assert bmem.fault_cost("k", np.zeros(3, dtype=np.int64)) == 0.0
        assert "k" not in bmem._warmed

    def test_cold_region_with_nonzero_counts_faults_and_warms(self, bmem):
        p = bmem.params
        nbytes = np.array([1, p.page_size, p.page_size + 1])
        cost = bmem.fault_cost("k", nbytes)
        assert cost.tolist() == [p.page_fault_time, p.page_fault_time,
                                 2 * p.page_fault_time]
        assert "k" in bmem._warmed
        assert bmem.fault_cost("k", nbytes) == 0.0
