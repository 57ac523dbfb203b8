"""Groups and the classical collectives that are not compiled schedules.

The classical group algorithms the baselines run are planners in
:mod:`repro.sched.plans.baseline`; the reduce-scatter and vector
collectives here are still hand-written generators.
"""

from repro.mpi.collectives.group import Group, block_partition
from repro.mpi.collectives.reduce_scatter import (
    reduce_scatter_halving,
    reduce_scatter_pairwise,
)
from repro.mpi.collectives.vector import (
    allgatherv_ring,
    gatherv_linear,
    scatterv_linear,
)

__all__ = [
    "Group",
    "block_partition",
    "reduce_scatter_halving",
    "reduce_scatter_pairwise",
    "allgatherv_ring",
    "gatherv_linear",
    "scatterv_linear",
]
