"""Deterministic discrete-event simulation substrate.

This package is a purpose-built, dependency-free simulation kernel (in the
spirit of SimPy, but deterministic) on which the simulated cluster, network,
and MPI runtime are built.  The hardware queues live with their cost model
in :mod:`repro.hw`, reserved eagerly (see :mod:`repro.hw.nic`).
"""

from repro.sim.engine import (
    Command,
    DeadlockError,
    Delay,
    Engine,
    Event,
    ProcGen,
    Process,
    SimulationError,
    WaitAll,
    WaitEvent,
)
from repro.sim.trace import TraceEvent, Tracer

__all__ = [
    "Command",
    "DeadlockError",
    "Delay",
    "Engine",
    "Event",
    "ProcGen",
    "Process",
    "SimulationError",
    "WaitAll",
    "WaitEvent",
    "TraceEvent",
    "Tracer",
]
