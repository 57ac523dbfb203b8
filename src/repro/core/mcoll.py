"""The PiP-MColl library facade.

Bundles the multi-object collective algorithms behind the common
:class:`~repro.baselines.base.MpiLibrary` interface: one selection with
the paper's size-based algorithm switching (§IV-D), and the PiP intranode
transport for any point-to-point traffic.
"""

from __future__ import annotations

from repro.baselines.base import MpiLibrary, Selection
from repro.core.tuning import Thresholds
from repro.sched.plans.mcoll import (
    plan_allgather_large,
    plan_allgather_small,
    plan_allreduce_large,
    plan_allreduce_small,
    plan_alltoall,
    plan_barrier,
    plan_bcast,
    plan_gather,
    plan_reduce_large,
    plan_reduce_small,
    plan_scatter,
)
from repro.shmem.mechanisms import PipShmem

__all__ = ["PiPMColl"]


class PiPMColl(MpiLibrary):
    """Process-in-Process-based multi-object MPI collectives."""

    name = "PiP-MColl"

    def __init__(self, thresholds: Thresholds | None = None):
        self.thresholds = thresholds or Thresholds()

    def make_mechanism(self) -> PipShmem:
        return PipShmem()

    def select(self, collective: str, nodes: int, ppn: int, count, nbytes,
               root: int = 0) -> Selection:
        """The multi-object algorithms, with the size switches of §IV-D.

        Scatter, alltoall, bcast, gather and barrier run one algorithm
        across all sizes.  Allgather switches to the multi-object ring at
        ``allgather_large_bytes``; allreduce and reduce switch to the
        reduce-scatter structure at ``allreduce_large_bytes``, below which
        it cannot amortise its per-chunk traffic.
        """
        thr = self.thresholds
        if collective == "scatter":
            return plan_scatter, (nodes, ppn, count, root, True), ()
        if collective == "allgather":
            planner = (plan_allgather_small
                       if nbytes < thr.allgather_large_bytes
                       else plan_allgather_large)
            return planner, (nodes, ppn, count), ()
        if collective in ("allreduce", "reduce"):
            small = nbytes < thr.allreduce_large_bytes
            if collective == "allreduce":
                planner = (plan_allreduce_small if small
                           else plan_allreduce_large)
                return planner, (nodes, ppn, count), ()
            if small:
                return (plan_reduce_small, (nodes, ppn, count, root),
                        ("leader",))
            return plan_reduce_large, (nodes, ppn, count, root), ()
        if collective == "alltoall":
            return plan_alltoall, (nodes, ppn, count), ()
        if collective == "barrier":
            return plan_barrier, (nodes, ppn), ()
        planner = {"bcast": plan_bcast, "gather": plan_gather}[collective]
        return planner, (nodes, ppn, count, root), ()
