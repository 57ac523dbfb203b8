"""Models of the MPI libraries the paper compares against."""

from repro.baselines.base import MpiLibrary, leader_group, node_group
from repro.baselines.libraries import MVAPICH2, IntelMPI, OpenMPI, PiPMPICH
from repro.baselines.registry import (
    LIBRARY_FACTORIES,
    all_libraries,
    library_names,
    make_library,
)

__all__ = [
    "MpiLibrary",
    "leader_group",
    "node_group",
    "MVAPICH2",
    "IntelMPI",
    "OpenMPI",
    "PiPMPICH",
    "LIBRARY_FACTORIES",
    "all_libraries",
    "library_names",
    "make_library",
]
