"""Classical MPI collective algorithms (the baselines' building blocks)."""

from repro.mpi.collectives.alltoall import alltoall_bruck, alltoall_pairwise
from repro.mpi.collectives.barrier import barrier_dissemination
from repro.mpi.collectives.group import Group, block_partition
from repro.mpi.collectives.reduce_scatter import (
    reduce_scatter_halving,
    reduce_scatter_pairwise,
)
from repro.mpi.collectives.scheduled import (
    allgather_bruck,
    allgather_recursive_doubling,
    allgather_ring,
    allreduce_rabenseifner,
    allreduce_recursive_doubling,
    bcast_binomial,
    gather_binomial,
    reduce_binomial,
    scatter_binomial,
)
from repro.mpi.collectives.vector import (
    allgatherv_ring,
    gatherv_linear,
    scatterv_linear,
)

__all__ = [
    "allgather_bruck",
    "allgather_recursive_doubling",
    "allgather_ring",
    "allreduce_rabenseifner",
    "allreduce_recursive_doubling",
    "alltoall_bruck",
    "alltoall_pairwise",
    "barrier_dissemination",
    "bcast_binomial",
    "gather_binomial",
    "Group",
    "block_partition",
    "reduce_binomial",
    "reduce_scatter_halving",
    "reduce_scatter_pairwise",
    "scatter_binomial",
    "allgatherv_ring",
    "gatherv_linear",
    "scatterv_linear",
]
