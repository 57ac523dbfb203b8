"""PiP-MColl: the paper's primary contribution.

Multi-object interprocess MPI collectives built on PiP shared-address-space
primitives: every process on a node acts as an internode sender/receiver,
reading from and writing into the local root's buffers directly.
"""

from repro.core.allgather_large import mcoll_allgather_large
from repro.core.allgather_small import mcoll_allgather_small
from repro.core.allreduce_large import mcoll_allreduce_large
from repro.core.allreduce_small import mcoll_allreduce_small
from repro.core.extensions import (
    mcoll_alltoall,
    mcoll_barrier,
    mcoll_bcast,
    mcoll_gather,
    mcoll_reduce,
)
from repro.core.intranode import (
    intra_bcast,
    intra_gather,
    intra_reduce_binomial,
    intra_reduce_chunked,
)
from repro.core.mcoll import PiPMColl
from repro.core.ring import ring_allgather_blocks
from repro.core.scatter import mcoll_scatter
from repro.core.tuning import Thresholds

__all__ = [
    "mcoll_allgather_large",
    "mcoll_allgather_small",
    "mcoll_allreduce_large",
    "mcoll_allreduce_small",
    "mcoll_alltoall",
    "mcoll_barrier",
    "mcoll_bcast",
    "mcoll_gather",
    "mcoll_reduce",
    "intra_bcast",
    "intra_gather",
    "intra_reduce_binomial",
    "intra_reduce_chunked",
    "PiPMColl",
    "ring_allgather_blocks",
    "mcoll_scatter",
    "Thresholds",
]
