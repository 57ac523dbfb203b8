"""Failure-injection and misuse tests: the simulator surfaces bugs in
simulated MPI programs loudly instead of hanging or corrupting data."""

import numpy as np
import pytest

from repro.hw import Topology, tiny_test_machine
from repro.mpi import BYTE, Buffer, World
from repro.shmem import KernelCopy, PipShmem, PosixShmem
from repro.sim import DeadlockError


def make_world(mechanism=None, nodes=2, ppn=2):
    return World(
        Topology(nodes, ppn), tiny_test_machine(),
        mechanism=mechanism or PosixShmem(),
    )


class TestDeadlockDetection:
    def test_recv_without_send_deadlocks(self):
        world = make_world()
        buf = Buffer.alloc(BYTE, 8)

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.recv(1, buf, tag=0)

        with pytest.raises(DeadlockError, match="blocked"):
            world.run(body)

    def test_tag_mismatch_deadlocks(self):
        world = make_world(mechanism=PipShmem())
        a, b = Buffer.alloc(BYTE, 8), Buffer.alloc(BYTE, 8)

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, a, tag=1)
            elif ctx.rank == 1:
                yield from ctx.recv(0, b, tag=2)  # wrong tag

        with pytest.raises(DeadlockError):
            world.run(body)

    def test_synchronous_send_cycle_deadlocks(self):
        """Two blocking sends over a non-eager mechanism deadlock, exactly
        like real MPI rendezvous sends would."""
        world = make_world(mechanism=KernelCopy())
        a, b = Buffer.alloc(BYTE, 8), Buffer.alloc(BYTE, 8)

        def body(ctx):
            peer = 1 - ctx.rank
            if ctx.rank <= 1:
                yield from ctx.send(peer, a if ctx.rank == 0 else b, tag=0)
                yield from ctx.recv(peer, a if ctx.rank == 1 else b, tag=0)

        with pytest.raises(DeadlockError):
            world.run(body)

    def test_eager_send_cycle_completes(self):
        """The same cycle over the eager POSIX path completes, exactly
        like real MPI eager sends would."""
        world = make_world(mechanism=PosixShmem())
        bufs = [Buffer.real(np.full(8, r, dtype=np.uint8)) for r in range(2)]
        recvs = [Buffer.alloc(BYTE, 8) for _ in range(2)]

        def body(ctx):
            peer = 1 - ctx.rank
            if ctx.rank <= 1:
                yield from ctx.send(peer, bufs[ctx.rank], tag=0)
                yield from ctx.recv(peer, recvs[ctx.rank], tag=0)

        world.run(body)
        assert np.all(recvs[0].array() == 1)
        assert np.all(recvs[1].array() == 0)

    def test_partial_collective_participation_deadlocks(self):
        """A rank skipping a collective hangs the others — as in MPI."""
        from repro.baselines.base import replay
        from repro.mpi import DOUBLE, SUM
        from repro.sched.plans.mcoll import plan_allreduce_small

        world = make_world(mechanism=PipShmem(), nodes=2, ppn=2)
        sends = [Buffer.alloc(DOUBLE, 4) for _ in range(4)]
        recvs = [Buffer.alloc(DOUBLE, 4) for _ in range(4)]

        def body(ctx):
            if ctx.rank == 3:
                return
                yield  # pragma: no cover
            yield from replay(
                ctx, plan_allreduce_small(2, 2, 4), (),
                {"send": sends[ctx.rank], "recv": recvs[ctx.rank]}, SUM,
            )

        with pytest.raises(DeadlockError):
            world.run(body)


class TestMisuseErrors:
    def test_self_send_rejected(self):
        world = make_world()
        buf = Buffer.alloc(BYTE, 8)

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(0, buf, tag=0)

        with pytest.raises(Exception, match="self-send"):
            world.run(body)

    def test_intranode_without_mechanism_rejected(self):
        world = World(Topology(1, 2), tiny_test_machine(), mechanism=None)
        buf = Buffer.alloc(BYTE, 8)

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, buf, tag=0)
            else:
                yield from ctx.recv(0, buf, tag=0)

        with pytest.raises(ValueError, match="mechanism"):
            world.run(body)

    def test_recv_size_mismatch_raises_not_corrupts(self):
        world = make_world(mechanism=PipShmem())
        small = Buffer.alloc(BYTE, 4)
        big = Buffer.alloc(BYTE, 8)

        def body(ctx):
            if ctx.rank == 0:
                yield from ctx.send(1, big, tag=0)
            elif ctx.rank == 1:
                yield from ctx.recv(0, small, tag=0)

        with pytest.raises(Exception, match="4B|8B"):
            world.run(body)

    def test_exception_in_rank_body_propagates(self):
        world = make_world()

        def body(ctx):
            yield from ctx.compute(1e-6)
            if ctx.rank == 2:
                raise RuntimeError("rank 2 exploded")

        with pytest.raises(RuntimeError, match="rank 2 exploded"):
            world.run(body)
