"""Planners: compile each collective algorithm to a :class:`Schedule`.

One module per layer:

* :mod:`repro.sched.plans.intranode` — §III-C intranode building blocks
  (emit helpers shared with the primary planners, plus standalone plans
  backing the ``repro.core.intranode`` entry points);
* :mod:`repro.sched.plans.ring` — the multi-object internode ring;
* :mod:`repro.sched.plans.mcoll` — the paper's three primary collectives;
* :mod:`repro.sched.plans.baseline` — classical group algorithms
  (binomial trees, recursive-doubling / Rabenseifner allreduce, Bruck /
  recursive-doubling / ring allgather) and MPICH's selection among them;
* :mod:`repro.sched.plans.hierarchical` — the leader-based two-level
  compositions of MVAPICH2 and Intel MPI.

Every planner is ``lru_cache``'d on its full shape signature: a 128x18
sweep invokes the same collective thousands of times, and planning is pure
Python that must not be repaid per invocation.
"""

from repro.sched.plans.baseline import plan_group
from repro.sched.plans.hierarchical import (
    plan_hier_allgather,
    plan_hier_allreduce,
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
    plan_scatter,
)
from repro.sched.plans.ring import plan_ring_allgather_blocks

__all__ = [
    "plan_group",
    "plan_hier_allgather",
    "plan_hier_allreduce",
    "plan_hier_scatter",
    "plan_intra_bcast",
    "plan_intra_gather",
    "plan_intra_reduce_binomial",
    "plan_intra_reduce_chunked",
    "plan_allgather_large",
    "plan_allgather_small",
    "plan_allreduce_large",
    "plan_allreduce_small",
    "plan_scatter",
    "plan_ring_allgather_blocks",
]
