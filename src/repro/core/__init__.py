"""PiP-MColl: the paper's primary contribution.

Multi-object interprocess MPI collectives built on PiP shared-address-space
primitives: every process on a node acts as an internode sender/receiver,
reading from and writing into the local root's buffers directly.

Each algorithm is a planner in :mod:`repro.sched.plans.mcoll` (the
collectives) and :mod:`repro.sched.plans.intranode` (the §III-C intranode
building blocks); :class:`PiPMColl` selects among them.
"""

from repro.core.mcoll import PiPMColl
from repro.core.tuning import Thresholds

__all__ = [
    "PiPMColl",
    "Thresholds",
]
