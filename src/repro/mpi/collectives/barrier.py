"""Dissemination barrier (MPICH default).

Described once, as :func:`repro.sched.plans.baseline.emit_barrier_dissemination`;
the wrapper here replays its group schedule.
"""

from __future__ import annotations

from repro.mpi.collectives.group import Group
from repro.mpi.collectives.scheduled import run_group
from repro.mpi.runtime import RankCtx
from repro.sched.plans.baseline import emit_barrier_dissemination
from repro.sim.engine import ProcGen

__all__ = ["barrier_dissemination"]


def barrier_dissemination(ctx: RankCtx, group: Group) -> ProcGen:
    """``ceil(log2 size)`` rounds of zero-byte token exchanges."""
    yield from run_group(
        ctx, group, emit_barrier_dissemination,
        {"token": ctx.alloc_bytes(0)}, 0,
    )
