"""Alltoall algorithms: Bruck (small messages) and pairwise exchange.

Not part of the paper's evaluated trio, but required as a baseline for the
multi-object alltoall extension (:mod:`repro.core.extensions`) and a standard
member of any collectives suite.  Each algorithm is described once, as an
``emit_*`` planner in :mod:`repro.sched.plans.baseline`; the functions here
check the buffers and replay the group schedule.
"""

from __future__ import annotations

from repro.mpi.buffer import Buffer
from repro.mpi.collectives.group import Group
from repro.mpi.collectives.scheduled import run_group
from repro.mpi.runtime import RankCtx
from repro.sched.plans.baseline import (
    GroupEmitter,
    emit_alltoall_bruck,
    emit_alltoall_pairwise,
)
from repro.sim.engine import ProcGen

__all__ = ["alltoall_bruck", "alltoall_pairwise", "check_alltoall_buffers"]


def check_alltoall_buffers(sendbuf: Buffer, recvbuf: Buffer,
                           size: int) -> None:
    """Refuse buffers that are not ``size`` equal blocks each."""
    if sendbuf.count % size:
        raise ValueError(
            f"sendbuf must hold one equal block per rank: "
            f"{sendbuf.count} elements across {size} ranks"
        )
    if recvbuf.count != sendbuf.count:
        raise ValueError(
            f"recvbuf has {recvbuf.count} elements, need {sendbuf.count}"
        )


def _alltoall(ctx: RankCtx, group: Group, emit: GroupEmitter,
              sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
    check_alltoall_buffers(sendbuf, recvbuf, group.size)
    yield from run_group(
        ctx, group, emit, {"send": sendbuf, "recv": recvbuf},
        sendbuf.count // group.size,
    )


def alltoall_bruck(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Buffer
) -> ProcGen:
    """Bruck alltoall: ``ceil(log2 size)`` rounds of packed exchanges."""
    yield from _alltoall(ctx, group, emit_alltoall_bruck, sendbuf, recvbuf)


def alltoall_pairwise(
    ctx: RankCtx, group: Group, sendbuf: Buffer, recvbuf: Buffer
) -> ProcGen:
    """Pairwise-exchange alltoall: ``size - 1`` direct rounds, no
    packing."""
    yield from _alltoall(ctx, group, emit_alltoall_pairwise, sendbuf,
                         recvbuf)
