"""Planners: compile each collective algorithm to a :class:`Schedule`.

One module per layer:

* :mod:`repro.sched.plans.intranode` — the §III-C intranode building
  blocks, as ``emit_*`` helpers the PiP-MColl planners inline;
* :mod:`repro.sched.plans.ring` — the multi-object internode ring, an
  ``emit_*`` helper of the large allgather and allreduce;
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
libraries' :meth:`~repro.baselines.base.MpiLibrary.select` picks which,
and :func:`repro.baselines.base.replay` runs it on the event loop.

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

__all__ = [
    "plan_group",
    "plan_hier_allgather",
    "plan_hier_allreduce",
    "plan_hier_bcast",
    "plan_hier_reduce",
    "plan_hier_scatter",
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
]
