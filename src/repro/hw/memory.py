"""Per-node memory-system model.

Copies and reductions are the currency of intranode collective work.  The
node memory system is modelled as ``node_copy_bw / core_copy_bw`` concurrent
full-speed lanes fed by a FIFO queue (a standard first-order approximation
of fluid bandwidth sharing): one process copying runs at core speed; more
than ``lanes`` concurrent copies queue.

Page-fault accounting mirrors how kernel-assisted mechanisms behave: the
first time a consumer touches a foreign mapping it faults every page; later
touches of the same region are warm.  The microbenchmark protocol's warm-up
stage (§IV-A) therefore absorbs fault costs exactly like the real runs do.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Hashable, List, Set

import numpy as np

from repro.hw.params import MachineParams
from repro.sim.batchline import uniform_bool
from repro.sim.engine import Delay, Engine, ProcGen

__all__ = ["MemoryModel", "BatchMemory"]


class MemoryModel:
    """Memory system of one node.

    The lanes are reserved eagerly, like the NIC stages (see
    :mod:`repro.hw.nic`): ``_lane_free`` holds each lane's next-free time
    as a heap, the layout :class:`BatchMemory` keeps as a matrix.
    """

    def __init__(self, engine: Engine, params: MachineParams, node: int):
        self.engine = engine
        self.params = params
        self.node = node
        # all-equal, so already a heap
        self._lane_free: List[float] = [0.0] * params.derived_copy_lanes()
        self._warmed: Set[Hashable] = set()

    def reset(self) -> None:
        """Free every lane; the warm page-fault state stays."""
        self._lane_free = [0.0] * len(self._lane_free)

    # -- cost arithmetic (no simulated blocking) --------------------------

    def fault_cost(self, region: Hashable, nbytes: int) -> float:
        """Page-fault cost for touching ``region``; warm after first touch.

        ``region`` identifies (consumer, mapped buffer) — the fault happens
        in the page table of the process doing the touching.
        """
        if nbytes == 0 or region in self._warmed:
            return 0.0
        self._warmed.add(region)
        pages = -(-nbytes // self.params.page_size)
        return pages * self.params.page_fault_time

    # -- occupancy closures (reserve lanes now, return the blocked time) --

    def copy_occupy(self, now: float, nbytes: int, extra_fixed: float = 0.0) -> float:
        """Reserve the lanes for one copy starting ``now``; return how long
        the calling process is blocked.

        The per-byte part contends for memory lanes; ``copy_latency`` and
        ``extra_fixed`` (syscalls, faults, handshakes) are charged to the
        process without occupying a lane.  This is the shared cost closure:
        the event engine yields the returned duration as a ``Delay``, the
        DAG fast path schedules it directly on a timeline.
        """
        blocked = self.params.copy_latency + extra_fixed
        if nbytes > 0:
            # the earliest-free lane serves the copy, reserved inline:
            # this runs once per simulated copy and sits on the hot path
            # of both engines
            lanes = self._lane_free
            earliest = heappop(lanes)
            start = earliest if earliest > now else now
            end = start + nbytes / self.params.core_copy_bw
            heappush(lanes, end)
            blocked += end - now
        return blocked

    def reduce_occupy(self, now: float, nbytes: int, extra_fixed: float = 0.0) -> float:
        """Reserve the lanes for one reduction; return the blocked time."""
        blocked = self.params.copy_latency + extra_fixed
        if nbytes > 0:
            lanes = self._lane_free
            earliest = heappop(lanes)
            start = earliest if earliest > now else now
            end = start + nbytes / self.params.reduce_bw
            heappush(lanes, end)
            blocked += end - now
        return blocked

    # -- blocking operations (yield from these inside a process) ----------

    def copy(self, nbytes: int, extra_fixed: float = 0.0) -> ProcGen:
        """Block the calling process for one ``nbytes`` copy."""
        yield Delay(self.copy_occupy(self.engine.now, nbytes, extra_fixed))

    def reduce(self, nbytes: int, extra_fixed: float = 0.0) -> ProcGen:
        """Block the calling process for one ``nbytes`` reduction."""
        yield Delay(self.reduce_occupy(self.engine.now, nbytes, extra_fixed))


class BatchMemory:
    """Vector-over-sizes mirror of :class:`MemoryModel`.

    Duck-typed for the mechanism closures (``engine``/``params``/
    ``copy_occupy``/``reduce_occupy``/``fault_cost``), with every time a
    ``(S,)`` array over the partition's size axis.  The ``engine`` must
    also provide ``touch_ok`` (the batch engine's shim forwards it to the
    timeline's conflict recorder): the lane pool is one resource for the
    conflict check, with zero-wait reservations recorded as commuting
    accesses.  The lane pool becomes a
    ``(lanes, S)`` matrix of next-free times: ``argmin`` over the lane axis
    is the vector form of the scalar heappop — when next-free times tie,
    the lanes are indistinguishable, so replacing *a* minimum with the new
    end time evolves the same multiset of lane times and hence the same
    start values as the scalar heap.

    Size-dependent branches (``nbytes > 0``, cold-vs-warm page faults with
    ``nbytes == 0`` short-circuits) collapse through
    :func:`~repro.sim.batchline.uniform_bool`: a mixed mask raises
    :class:`~repro.sim.batchline.BatchDivergence` so the batch engine
    splits the size axis there.  Scalar counts take the same branches as
    :class:`MemoryModel`.
    """

    def __init__(self, engine, params: MachineParams, node: int, width: int):
        self.engine = engine
        self.params = params
        self.node = node
        self.width = width
        self._lane_free = np.zeros((params.derived_copy_lanes(), width))
        self._lane_cols = np.arange(width)
        self._warmed: Set[Hashable] = set()
        self._mm_key = ("mm", node)

    def _occupy(self, now, nbytes, extra_fixed, bw: float):
        blocked = self.params.copy_latency + extra_fixed
        if not uniform_bool(nbytes > 0):
            return blocked
        lanes = self._lane_free
        service = nbytes / bw
        lane = lanes.argmin(axis=0)
        cols = self._lane_cols
        prev = lanes[lane, cols]
        start = np.maximum(prev, now)
        end = start + service
        lanes[lane, cols] = end
        # two reservations that both started without waiting commute:
        # argmin removes the same two smallest lane-free times in either
        # order, the added end times are admit+service either way, and the
        # blocked durations are wait-free — so the pool multiset and both
        # return values are order-independent (see batchline docstring)
        ok = prev <= now
        self.engine.touch_ok(
            self._mm_key, True if np.count_nonzero(ok) == len(ok) else ok
        )
        return blocked + (end - now)

    def copy_occupy(self, now, nbytes, extra_fixed=0.0):
        """Vector :meth:`MemoryModel.copy_occupy` (same operand order)."""
        return self._occupy(now, nbytes, extra_fixed,
                            self.params.core_copy_bw)

    def reduce_occupy(self, now, nbytes, extra_fixed=0.0):
        """Vector :meth:`MemoryModel.reduce_occupy`."""
        return self._occupy(now, nbytes, extra_fixed, self.params.reduce_bw)

    def fault_cost(self, region: Hashable, nbytes):
        """Vector :meth:`MemoryModel.fault_cost`.

        The scalar method returns 0 for ``nbytes == 0`` *without* warming
        the region; a partition mixing zero and nonzero counts on a cold
        region would therefore diverge structurally (some sizes warm it,
        some don't) and must be split.  An already-warm region costs 0
        for every size, mixed mask or not, so it is checked first.
        """
        if region in self._warmed or not uniform_bool(nbytes != 0):
            return 0.0
        self._warmed.add(region)
        pages = -(-nbytes // self.params.page_size)
        return pages * self.params.page_fault_time
