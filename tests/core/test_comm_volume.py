"""Communication-volume and round-count invariants from §III.

The hardware accounting (messages/bytes per NIC) lets us check the paper's
cost analysis *exactly*, independent of timing calibration:

* scatter moves each non-root node's block over the wire exactly the
  tree-depth number of times;
* the small-message allgather ships ``(N-1) * P * C`` bytes out of every
  node; the ring allgather ships the same optimal volume;
* the large-message allreduce cuts internode volume per node to
  ``~2 * C * (N-1)/N`` (reduce-scatter + allgather), versus the small
  algorithm's ``C * P`` per round;
* round counts follow ``ceil(log_{P+1} N)``.
"""

import pytest

from repro.baselines.base import replay
from repro.hw import Topology, tiny_test_machine
from repro.mpi import SUM, Buffer, World
from repro.sched.plans.mcoll import (
    plan_allgather_large,
    plan_allgather_small,
    plan_allreduce_large,
    plan_allreduce_small,
    plan_scatter,
)
from repro.shmem import PipShmem
from repro.util.intmath import ceil_div


def run_collective(planner, nodes, ppn, nbytes, needs_op=False,
                   scatter=False):
    """Replay one PiP-MColl planner's schedule on phantom data (a scatter
    from rank 0 with overlap); return the World for accounting."""
    world = World(
        Topology(nodes, ppn), tiny_test_machine(), mechanism=PipShmem(),
        phantom=True,
    )
    size = world.world_size
    if scatter:
        schedule = planner(nodes, ppn, nbytes, 0, True)
        sendbuf = Buffer.phantom(nbytes * size)
        sends = [sendbuf] + [None] * (size - 1)
        recvs = [Buffer.phantom(nbytes) for _ in range(size)]
    else:
        schedule = planner(nodes, ppn, nbytes)
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recv_bytes = nbytes if needs_op else nbytes * size
        recvs = [Buffer.phantom(recv_bytes) for _ in range(size)]

    def body(ctx):
        yield from replay(ctx, schedule, (),
                          {"send": sends[ctx.rank], "recv": recvs[ctx.rank]},
                          SUM if needs_op else None)

    world.run(body)
    return world


class TestScatterVolume:
    @pytest.mark.parametrize("nodes,ppn", [(4, 3), (9, 2), (16, 2), (5, 3)])
    def test_total_bytes_equals_weighted_tree_depth(self, nodes, ppn):
        """Each node block of P*C bytes crosses the wire once per tree
        level it descends through; with near-equal (P+1)-ary splits total
        traffic is between the ideal (N-1)*P*C and that times the depth."""
        C = 64
        world = run_collective(plan_scatter, nodes, ppn, C, scatter=True)
        total = world.hw.total_internode_bytes()
        ideal = (nodes - 1) * ppn * C
        depth = max(1, -(-_log_ceil(ppn + 1, nodes)))
        assert ideal <= total <= ideal * depth

    def test_root_nic_carries_the_bulk(self):
        world = run_collective(plan_scatter, 9, 2, 64, scatter=True)
        root_sent = world.hw.nics[0].bytes_sent
        total = world.hw.total_internode_bytes()
        assert root_sent >= total / 2


def _log_ceil(base, n):
    import math

    return 0 if n <= 1 else math.ceil(math.log(n) / math.log(base))


class TestAllgatherVolume:
    @pytest.mark.parametrize("nodes,ppn", [(4, 3), (9, 2), (13, 3)])
    def test_small_algorithm_per_node_bytes(self, nodes, ppn):
        """Every node ships exactly (N-1) node blocks over the wire (the
        unified truncated-round formula conserves total volume)."""
        C = 16
        world = run_collective(plan_allgather_small, nodes, ppn, C)
        block = ppn * C
        expected_per_node = (nodes - 1) * block
        for nic in world.hw.nics:
            assert nic.bytes_sent == expected_per_node

    @pytest.mark.parametrize("nodes,ppn", [(4, 3), (8, 2)])
    def test_ring_matches_small_volume(self, nodes, ppn):
        """The ring moves the same bandwidth-optimal volume."""
        C = 16
        w_small = run_collective(plan_allgather_small, nodes, ppn, C)
        w_large = run_collective(plan_allgather_large, nodes, ppn, C)
        assert (
            w_small.hw.total_internode_bytes()
            == w_large.hw.total_internode_bytes()
        )

    def test_small_round_count(self):
        """ceil(log_{P+1} N) rounds of at most P messages per process."""
        nodes, ppn, C = 9, 2, 16
        world = run_collective(plan_allgather_small, nodes, ppn, C)
        rounds = _log_ceil(ppn + 1, nodes)
        # per node: at most P sends per round (data messages only — the
        # tiny machine has no extra control messages below 64 kB)
        for nic in world.hw.nics:
            assert nic.messages_sent <= ppn * rounds

    def test_single_node_no_internode_traffic(self):
        world = run_collective(plan_allgather_small, 1, 4, 64)
        assert world.hw.total_internode_bytes() == 0


class TestAllreduceVolume:
    def test_large_algorithm_volume_is_bandwidth_optimal(self):
        """§III-B2: per node ~2 * C * (N-1)/N bytes (reduce-scatter +
        allgather), versus C * P * rounds for the small algorithm."""
        nodes, ppn = 8, 4
        C = 8192  # bytes
        w = run_collective(plan_allreduce_large, nodes, ppn, C, needs_op=True)
        per_node = [nic.bytes_sent for nic in w.hw.nics]
        expected = 2 * C * (nodes - 1) / nodes
        for sent in per_node:
            assert sent == pytest.approx(expected, rel=0.05)

    def test_small_vs_large_volume_ratio(self):
        """The paper's reduction: from C*P*ceil(log_{P+1}N) down to
        ~2*C*(N-1)/N per node."""
        nodes, ppn, C = 9, 4, 4096
        w_small = run_collective(
            plan_allreduce_small, nodes, ppn, C, needs_op=True
        )
        w_large = run_collective(
            plan_allreduce_large, nodes, ppn, C, needs_op=True
        )
        small_bytes = w_small.hw.total_internode_bytes()
        large_bytes = w_large.hw.total_internode_bytes()
        assert large_bytes < small_bytes / 2

    def test_small_algorithm_round_messages(self):
        """Power-of-(P+1) node counts: exactly P messages per process per
        round, ceil(log_{P+1} N) rounds, no remainder traffic."""
        nodes, ppn, C = 9, 2, 64  # 9 = (2+1)^2
        w = run_collective(plan_allreduce_small, nodes, ppn, C, needs_op=True)
        rounds = 2
        for nic in w.hw.nics:
            assert nic.messages_sent == ppn * rounds
            assert nic.bytes_sent == ppn * rounds * C
