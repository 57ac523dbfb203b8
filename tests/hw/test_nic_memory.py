"""Tests for the NIC and memory hardware models."""

import random

import numpy as np
import pytest

from repro.hw import ClusterHW, Topology, tiny_test_machine
from repro.hw.memory import BatchMemory, MemoryModel
from repro.hw.nic import BatchFabric, BatchNic
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

    def test_reset_hardware_frees_the_lanes_and_keeps_warm_pages(self):
        params = tiny_test_machine()  # 10 lanes
        hw = ClusterHW(Topology(nodes=1, ppn=1), params)
        mem = hw.memories[0]
        assert mem.fault_cost("k", 1) > 0
        for _ in range(params.derived_copy_lanes()):
            mem.copy_occupy(0.0, 1 << 20)
        hw.reset_hardware()
        fresh = ClusterHW(Topology(nodes=1, ppn=1), params).memories[0]
        assert mem.copy_occupy(0.0, 1024) == fresh.copy_occupy(0.0, 1024)
        assert mem.fault_cost("k", 1) == 0.0


class _Shim:
    """The batch engine's ``engine`` duck, and its timeline's for
    :class:`BatchNic`: records conflict accesses."""

    def __init__(self):
        self.touches = []

    def touch(self, key):
        self.touches.append((key, None))

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


#: the twins' size axis: per-size byte counts from one byte to 1 MB, so
#: the message-rate floor binds at some sizes and bandwidth at others
TWIN_SIZES = np.array([1, 24, 700, 4096, 65_536, 1 << 20])


def _twin_ops(seed, count, choices):
    """A seeded op sequence: per op, ``choices(rng)``, a byte multiplier
    (0 makes a zero-byte op) and a start — a fixed time, or an earlier
    op's end plus a gap, so starts differ across sizes."""
    rng = random.Random(seed)
    ops = []
    for k in range(count):
        if k and rng.random() < 0.6:
            start = (rng.randrange(max(0, k - 5), k), rng.random() * 1e-6)
        else:
            start = (None, rng.random() * 1e-5)
        ops.append((choices(rng), rng.choice((0, 1, 1, 2, 3)), start))
    return ops


def _start(start, ends):
    op, gap = start
    return gap if op is None else ends[op] + gap


def _column(rows, s):
    """Size ``s``'s component of every op's result, as raw bytes."""
    return np.array([np.broadcast_to(r, TWIN_SIZES.shape)[s]
                     for r in rows]).tobytes()


class TestTwinsAgreePerSize:
    """Each size's component of a vector twin's run equals, bit for bit,
    the scalar model's run of the same op sequence at that size."""

    # a fabric 1.5x one NIC still lets receive sides queue behind it
    @pytest.mark.parametrize("fabric_bandwidth", (None, 15e9))
    def test_nic(self, fabric_bandwidth):
        params = tiny_test_machine().with_overrides(
            fabric_bandwidth=fabric_bandwidth)
        nodes, ppn = 3, 2

        def choices(rng):
            src = rng.randrange(nodes)
            dst = rng.choice([n for n in range(nodes) if n != src])
            return src, rng.randrange(ppn), dst, rng.random() < 0.5

        # 120 transfers among 3 nodes within ~10 us queue on every stage
        ops = _twin_ops(7, 120, choices)
        fabric = BatchFabric(TWIN_SIZES.size) if fabric_bandwidth else None
        nics = [BatchNic(params, n, ppn, TWIN_SIZES.size, _Shim(), fabric)
                for n in range(nodes)]
        injects, arrivals = [], []
        for (src, lr, dst, dma), scale, start in ops:
            inj, arr = nics[src].transfer(_start(start, arrivals), lr,
                                          nics[dst], TWIN_SIZES * scale, dma)
            injects.append(inj)
            arrivals.append(arr)
        for s, nbytes in enumerate(TWIN_SIZES.tolist()):
            hw = ClusterHW(Topology(nodes, ppn), params)
            want_inj, want_arr = [], []
            for (src, lr, dst, dma), scale, start in ops:
                inj, arr = hw.nics[src].transfer(
                    _start(start, want_arr), lr, hw.nics[dst],
                    nbytes * scale, dma)
                want_inj.append(inj)
                want_arr.append(arr)
            assert _column(injects, s) == np.array(want_inj).tobytes()
            assert _column(arrivals, s) == np.array(want_arr).tobytes()
            assert ([n.messages_sent for n in nics]
                    == [n.messages_sent for n in hw.nics])

    def test_memory(self):
        params = tiny_test_machine()  # 10 lanes; 60 reservations queue
        ops = _twin_ops(11, 60, lambda rng: rng.random() < 0.3)
        batch = BatchMemory(_Shim(), params, 0, TWIN_SIZES.size)
        ends = []
        for reduce, scale, start in ops:
            occupy = batch.reduce_occupy if reduce else batch.copy_occupy
            now = _start(start, ends)
            ends.append(now + occupy(now, TWIN_SIZES * scale, 1e-7))
        for s, nbytes in enumerate(TWIN_SIZES.tolist()):
            mem = MemoryModel(Engine(), params, 0)
            want = []
            for reduce, scale, start in ops:
                occupy = mem.reduce_occupy if reduce else mem.copy_occupy
                now = _start(start, want)
                want.append(now + occupy(now, nbytes * scale, 1e-7))
            assert _column(ends, s) == np.array(want).tobytes()
