"""The four modelled production MPI libraries.

Each library = intranode mechanism × algorithm suite × per-call software
overhead.  Algorithm selections follow the libraries' published defaults:

* **PiP-MPICH** (the paper's baseline, §IV-A): stock MPICH algorithm
  selection running on the PiP transport — every intranode message pays the
  PiP size-synchronisation handshake, which is exactly the overhead
  PiP-MColl's redesign removes.
* **Open MPI**: flat (non-hierarchical by default in the tuned module for
  these sizes) with a POSIX-SHMEM/CMA hybrid BTL.
* **MVAPICH2**: two-level leader-based collectives over a POSIX/LiMiC
  hybrid channel.
* **Intel MPI**: two-level leader-based collectives over POSIX-SHMEM/CMA,
  with the leanest software stack of the four (it is generally the fastest
  baseline in the paper's figures).

The ``software_overhead`` constants are calibration levers, not published
numbers: they encode relative per-call path lengths so the baseline
ordering matches the paper's figures.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import MpiLibrary
from repro.baselines.hierarchical import (
    hier_allgather,
    hier_allreduce,
    hier_bcast,
    hier_reduce,
    hier_scatter,
)
from repro.mpi.buffer import Buffer
from repro.mpi.collectives import (
    alltoall_bruck,
    alltoall_pairwise,
    barrier_dissemination,
    bcast_binomial,
    gather_binomial,
    reduce_binomial,
    scatter_binomial,
)
from repro.mpi.collectives.group import Group
from repro.mpi.collectives.scheduled import run_group
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx
from repro.sched.plans.baseline import mpich_allgather, mpich_allreduce
from repro.shmem import HybridMechanism, KernelCopy, PipShmem, PosixShmem
from repro.sim.engine import ProcGen
from repro.util.units import KB

__all__ = ["PiPMPICH", "OpenMPI", "MVAPICH2", "IntelMPI"]

_US = 1e-6


def _mpich_alltoall(ctx: RankCtx, group: Group, sendbuf: Buffer,
                    recvbuf: Buffer) -> ProcGen:
    """MPICH's default alltoall selection (Bruck for short blocks)."""
    block_bytes = (sendbuf.nbytes // group.size) if group.size else 0
    if block_bytes <= 256 and group.size >= 8:
        yield from alltoall_bruck(ctx, group, sendbuf, recvbuf)
    else:
        yield from alltoall_pairwise(ctx, group, sendbuf, recvbuf)


class _FlatLibrary(MpiLibrary):
    """Classical flat algorithms over the whole communicator."""

    def scatter(self, ctx: RankCtx, sendbuf: Optional[Buffer],
                recvbuf: Buffer, root: int = 0) -> ProcGen:
        yield from self._enter(ctx)
        yield from scatter_binomial(
            ctx, self.world_group(ctx), sendbuf, recvbuf, root
        )

    def allgather(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
        yield from self._enter(ctx)
        group = self.world_group(ctx)
        yield from run_group(
            ctx, group, mpich_allgather(group.size, recvbuf.nbytes),
            {"send": sendbuf, "recv": recvbuf}, sendbuf.count,
        )

    def allreduce(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer,
                  op: ReduceOp) -> ProcGen:
        yield from self._enter(ctx)
        group = self.world_group(ctx)
        yield from run_group(
            ctx, group, mpich_allreduce(group.size, sendbuf.nbytes),
            {"send": sendbuf, "recv": recvbuf}, sendbuf.count, op=op,
        )

    def alltoall(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
        yield from self._enter(ctx)
        yield from _mpich_alltoall(ctx, self.world_group(ctx), sendbuf, recvbuf)

    def bcast(self, ctx: RankCtx, buf: Buffer, root: int = 0) -> ProcGen:
        yield from self._enter(ctx)
        yield from bcast_binomial(ctx, self.world_group(ctx), buf, root)

    def gather(self, ctx: RankCtx, sendbuf: Buffer,
               recvbuf: Optional[Buffer], root: int = 0) -> ProcGen:
        yield from self._enter(ctx)
        yield from gather_binomial(ctx, self.world_group(ctx), sendbuf, recvbuf, root)

    def reduce(self, ctx: RankCtx, sendbuf: Buffer,
               recvbuf: Optional[Buffer], op: ReduceOp, root: int = 0) -> ProcGen:
        yield from self._enter(ctx)
        yield from reduce_binomial(ctx, self.world_group(ctx), sendbuf, recvbuf, op, root)

    def barrier(self, ctx: RankCtx) -> ProcGen:
        yield from self._enter(ctx)
        yield from barrier_dissemination(ctx, self.world_group(ctx))


class _HierLibrary(MpiLibrary):
    """Two-level leader-based collectives."""

    def scatter(self, ctx: RankCtx, sendbuf: Optional[Buffer],
                recvbuf: Buffer, root: int = 0) -> ProcGen:
        yield from self._enter(ctx)
        yield from hier_scatter(ctx, sendbuf, recvbuf, root)

    def allgather(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
        yield from self._enter(ctx)
        yield from hier_allgather(ctx, sendbuf, recvbuf, mpich_allgather)

    def allreduce(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer,
                  op: ReduceOp) -> ProcGen:
        yield from self._enter(ctx)
        yield from hier_allreduce(ctx, sendbuf, recvbuf, op, mpich_allreduce)

    def alltoall(self, ctx: RankCtx, sendbuf: Buffer, recvbuf: Buffer) -> ProcGen:
        # production libraries run alltoall flat even in hierarchical mode
        yield from self._enter(ctx)
        yield from _mpich_alltoall(ctx, self.world_group(ctx), sendbuf, recvbuf)

    def bcast(self, ctx: RankCtx, buf: Buffer, root: int = 0) -> ProcGen:
        yield from self._enter(ctx)
        yield from hier_bcast(ctx, buf, root)

    def gather(self, ctx: RankCtx, sendbuf: Buffer,
               recvbuf: Optional[Buffer], root: int = 0) -> ProcGen:
        # gathers run flat: the leader composition buys nothing (the root
        # must receive every byte either way)
        yield from self._enter(ctx)
        yield from gather_binomial(ctx, self.world_group(ctx), sendbuf, recvbuf, root)

    def reduce(self, ctx: RankCtx, sendbuf: Buffer,
               recvbuf: Optional[Buffer], op: ReduceOp, root: int = 0) -> ProcGen:
        yield from self._enter(ctx)
        yield from hier_reduce(ctx, sendbuf, recvbuf, op, root)

    def barrier(self, ctx: RankCtx) -> ProcGen:
        yield from self._enter(ctx)
        yield from barrier_dissemination(ctx, self.world_group(ctx))


class PiPMPICH(_FlatLibrary):
    """The paper's baseline: stock MPICH algorithms on the PiP transport."""

    name = "PiP-MPICH"
    software_overhead = 0.3 * _US

    def make_mechanism(self) -> PipShmem:
        return PipShmem()


class OpenMPI(_FlatLibrary):
    """Open MPI: flat tuned collectives, POSIX/CMA hybrid shared memory."""

    name = "OpenMPI"
    software_overhead = 0.9 * _US

    def make_mechanism(self) -> HybridMechanism:
        return HybridMechanism(PosixShmem(), KernelCopy(), threshold=4 * KB)


class MVAPICH2(_HierLibrary):
    """MVAPICH2: leader-based two-level collectives, POSIX/LiMiC hybrid."""

    name = "MVAPICH2"
    software_overhead = 0.6 * _US

    def make_mechanism(self) -> HybridMechanism:
        return HybridMechanism(PosixShmem(), KernelCopy(), threshold=8 * KB)


class IntelMPI(_HierLibrary):
    """Intel MPI: leader-based two-level collectives, lean software stack."""

    name = "IntelMPI"
    software_overhead = 0.2 * _US

    def make_mechanism(self) -> HybridMechanism:
        return HybridMechanism(PosixShmem(), KernelCopy(), threshold=16 * KB)
