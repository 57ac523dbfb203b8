"""The four modelled production MPI libraries.

Each library = intranode mechanism × algorithm suite × per-call software
overhead.  Algorithm selections follow the libraries' published defaults:

* **PiP-MPICH** (the paper's baseline, §IV-A): stock MPICH algorithm
  selection running on the PiP transport — every intranode message pays the
  PiP size-synchronisation handshake, which is exactly the overhead
  PiP-MColl's redesign removes.
* **Open MPI**: flat (non-hierarchical by default in the tuned module for
  these sizes) with a POSIX-SHMEM/CMA hybrid BTL.
* **MVAPICH2**: two-level leader-based collectives over a POSIX/LiMiC
  hybrid channel.
* **Intel MPI**: two-level leader-based collectives over POSIX-SHMEM/CMA,
  with the leanest software stack of the four (it is generally the fastest
  baseline in the paper's figures).

Each family writes its selection once, as :meth:`select`; the collective
methods of :class:`~repro.baselines.base.MpiLibrary` and the schedule
registry both read it.

The ``software_overhead`` constants are calibration levers, not published
numbers: they encode relative per-call path lengths so the baseline
ordering matches the paper's figures.
"""

from __future__ import annotations

from repro.baselines.base import MpiLibrary, Selection
from repro.sched.plans.baseline import mpich_select, plan_group
from repro.sched.plans.hierarchical import (
    COMPOSE_TAGS,
    FAN_IN_TAGS,
    FAN_OUT_TAGS,
    plan_hier_allgather,
    plan_hier_allreduce,
    plan_hier_bcast,
    plan_hier_reduce,
    plan_hier_scatter,
)
from repro.shmem import HybridMechanism, KernelCopy, PipShmem, PosixShmem
from repro.util.units import KB

__all__ = ["PiPMPICH", "OpenMPI", "MVAPICH2", "IntelMPI"]

_US = 1e-6

#: rooted collectives: their group plans take the root's group index
_ROOTED = ("scatter", "bcast", "gather", "reduce")


class _FlatLibrary(MpiLibrary):
    """Classical flat algorithms over the whole communicator."""

    def select(self, collective: str, nodes: int, ppn: int, count, nbytes,
               root: int = 0) -> Selection:
        """MPICH's choice of group algorithm, run over the world."""
        size = nodes * ppn
        emit = mpich_select(collective, size, nbytes)
        root_arg = (root,) if collective in _ROOTED else ()
        return (plan_group, (emit, tuple(range(size)), count, *root_arg),
                ("tag",))


#: the leader-based compositions, by collective: planner and group tags
_HIER = {
    "scatter": (plan_hier_scatter, FAN_OUT_TAGS),
    "allgather": (plan_hier_allgather, COMPOSE_TAGS),
    "allreduce": (plan_hier_allreduce, COMPOSE_TAGS),
    "bcast": (plan_hier_bcast, FAN_OUT_TAGS),
    "reduce": (plan_hier_reduce, FAN_IN_TAGS),
}
#: the compositions whose leaders exchange whole node blocks
_NODE_BLOCKS = ("scatter", "allgather")


class _HierLibrary(_FlatLibrary):
    """Two-level leader-based collectives.

    Alltoall, gather and barrier run flat, as production libraries run
    them even in hierarchical mode: the leader composition buys nothing
    there (a gather's root must receive every byte either way).
    """

    def select(self, collective: str, nodes: int, ppn: int, count, nbytes,
               root: int = 0) -> Selection:
        """MPICH's choice of leader algorithm, inside the composition."""
        entry = _HIER.get(collective)
        if entry is None:
            return super().select(collective, nodes, ppn, count, nbytes,
                                  root)
        planner, tags = entry
        per_leader = ppn * nbytes if collective in _NODE_BLOCKS else nbytes
        leader = mpich_select(collective, nodes, per_leader)
        root_arg = (root,) if collective in _ROOTED else ()
        return planner, (nodes, ppn, count, *root_arg, leader), tags


class PiPMPICH(_FlatLibrary):
    """The paper's baseline: stock MPICH algorithms on the PiP transport."""

    name = "PiP-MPICH"
    software_overhead = 0.3 * _US

    def make_mechanism(self) -> PipShmem:
        return PipShmem()


class OpenMPI(_FlatLibrary):
    """Open MPI: flat tuned collectives, POSIX/CMA hybrid shared memory."""

    name = "OpenMPI"
    software_overhead = 0.9 * _US

    def make_mechanism(self) -> HybridMechanism:
        return HybridMechanism(PosixShmem(), KernelCopy(), threshold=4 * KB)


class MVAPICH2(_HierLibrary):
    """MVAPICH2: leader-based two-level collectives, POSIX/LiMiC hybrid."""

    name = "MVAPICH2"
    software_overhead = 0.6 * _US

    def make_mechanism(self) -> HybridMechanism:
        return HybridMechanism(PosixShmem(), KernelCopy(), threshold=8 * KB)


class IntelMPI(_HierLibrary):
    """Intel MPI: leader-based two-level collectives, lean software stack."""

    name = "IntelMPI"
    software_overhead = 0.2 * _US

    def make_mechanism(self) -> HybridMechanism:
        return HybridMechanism(PosixShmem(), KernelCopy(), threshold=16 * KB)
