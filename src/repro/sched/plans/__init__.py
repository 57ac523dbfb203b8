"""Planners: compile each collective algorithm to a :class:`Schedule`.

One module per layer:

* :mod:`repro.sched.plans.intranode` — §III-C intranode building blocks
  (emit helpers shared with the primary planners, plus standalone plans
  backing the ``repro.core.intranode`` entry points);
* :mod:`repro.sched.plans.ring` — the multi-object internode ring;
* :mod:`repro.sched.plans.mcoll` — every PiP-MColl collective: the
  paper's three primary ones and the multi-object alltoall, bcast,
  gather, reduce and barrier;
* :mod:`repro.sched.plans.baseline` — classical group algorithms
  (binomial trees, recursive-doubling / Rabenseifner allreduce, Bruck /
  recursive-doubling / ring allgather, Bruck / pairwise alltoall, the
  dissemination barrier) and MPICH's selection among them;
* :mod:`repro.sched.plans.hierarchical` — the leader-based two-level
  compositions of MVAPICH2 and Intel MPI.

Every collective a library runs is one of these schedules; the
libraries' :meth:`~repro.baselines.base.MpiLibrary.select` picks which.

Every planner is ``lru_cache``'d on its full shape signature: the event
loop replans each collective per rank and per iteration, and planning is
pure Python that must not be repaid per invocation.
"""

from repro.sched.plans.baseline import plan_group
from repro.sched.plans.hierarchical import (
    plan_hier_allgather,
    plan_hier_allreduce,
    plan_hier_bcast,
    plan_hier_reduce,
    plan_hier_scatter,
)
from repro.sched.plans.intranode import (
    plan_intra_bcast,
    plan_intra_gather,
    plan_intra_reduce_binomial,
    plan_intra_reduce_chunked,
)
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
from repro.sched.plans.ring import plan_ring_allgather_blocks

__all__ = [
    "plan_group",
    "plan_hier_allgather",
    "plan_hier_allreduce",
    "plan_hier_bcast",
    "plan_hier_reduce",
    "plan_hier_scatter",
    "plan_intra_bcast",
    "plan_intra_gather",
    "plan_intra_reduce_binomial",
    "plan_intra_reduce_chunked",
    "plan_allgather_large",
    "plan_allgather_small",
    "plan_allreduce_large",
    "plan_allreduce_small",
    "plan_alltoall",
    "plan_barrier",
    "plan_bcast",
    "plan_gather",
    "plan_reduce_large",
    "plan_reduce_small",
    "plan_scatter",
    "plan_ring_allgather_blocks",
]
