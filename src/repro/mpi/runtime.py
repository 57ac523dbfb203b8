"""The simulated MPI world and per-rank execution contexts.

:class:`World` owns the hardware, transport, and PiP environments for one
simulated cluster.  :meth:`World.run` executes one *program*: a function
``body(ctx) -> generator`` instantiated once per rank, all ranks started at
the same simulated instant, run to completion, and timed.

Simulated state (resource queues, page-fault warmth, PiP boards) persists
across :meth:`World.run` calls on purpose: the paper's microbenchmark
protocol relies on a warm-up stage, and so do we.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Hashable, List, Optional, Sequence

import numpy as np

from repro.hw.cluster import ClusterHW
from repro.hw.params import MachineParams
from repro.hw.topology import Topology
from repro.mpi.buffer import Buffer
from repro.mpi.datatypes import BYTE, DataType, ReduceOp
from repro.mpi.request import Request
from repro.mpi.transport import Transport
from repro.mpi.validation import SemanticsValidator
from repro.shmem.base import ShmemMechanism
from repro.shmem.pip_env import PipNode
from repro.sim.engine import Delay, Engine, ProcGen, WaitEvent
from repro.sim.trace import Tracer
from repro.util.gcpause import gc_paused

__all__ = ["World", "RankCtx", "RunResult"]


def _record_end_time(end_times, rank, engine, _value) -> None:
    """Done-event callback: stamp the rank's completion time."""
    end_times[rank] = engine.now


@dataclass(frozen=True)
class RunResult:
    """Timing of one :meth:`World.run` invocation."""

    start: float
    end_times: tuple
    #: max over ranks of (finish - start): the collective's completion time
    elapsed: float

    @property
    def mean_elapsed(self) -> float:
        return sum(t - self.start for t in self.end_times) / len(self.end_times)


class RankCtx:
    """Everything one simulated MPI process can do.

    Communication methods are generators: drive them with ``yield from``
    inside a rank body.  ``isend`` returns its :class:`Request` via the
    generator return value (``req = yield from ctx.isend(...)``); ``irecv``
    posting is free and returns the request directly.
    """

    def __init__(self, world: "World", rank: int):
        self.world = world
        self.rank = rank
        topo = world.topology
        self.node, self.local_rank = topo.locate(rank)
        self.world_size = topo.world_size
        self.nodes = topo.nodes
        self.ppn = topo.ppn
        self.params: MachineParams = world.params
        self.mem = world.hw.memories[self.node]
        self.pip: PipNode = world.pip_nodes[self.node]
        #: name of the algorithm phase currently executing (set by the
        #: schedule executor's PhaseStep markers; threaded into trace spans)
        self.phase: Optional[str] = None
        # per-rank collective sequence number; identical across ranks because
        # MPI requires all ranks to invoke collectives in the same order
        self._op_seq = 0
        # per-(rank, group) sequence numbers: the communicator-scoped
        # ordering MPI guarantees — members of a group call its collectives
        # in the same order, and non-members never touch its counter
        self._group_seqs: dict = {}

    # -- identity helpers -------------------------------------------------

    def rank_of(self, node: int, local_rank: int) -> int:
        return self.world.topology.rank_of(node, local_rank)

    def node_of(self, rank: int) -> int:
        return self.world.topology.node_of(rank)

    def is_local_root(self) -> bool:
        return self.local_rank == 0

    def local_root_rank(self) -> int:
        return self.node * self.ppn

    def next_op_seq(self) -> int:
        """Agree on a namespace for one collective invocation.

        Valid because every rank calls the same collectives in the same
        order (an MPI correctness requirement the simulated programs obey).
        """
        self._op_seq += 1
        return self._op_seq

    def collective_tag(self, group) -> tuple:
        """A message tag scoping one collective invocation on ``group``.

        Combines the group's membership-derived ``tag_key`` with a
        per-(rank, group) call counter: all group members agree (they call
        the group's collectives in the same order) and invocations on
        different groups can never match each other — even when a rank
        participates in nested/hierarchical compositions that would make a
        single per-rank counter diverge across ranks.
        """
        seq = self._group_seqs.get(group.tag_key, 0) + 1
        self._group_seqs[group.tag_key] = seq
        return (group.tag_key, seq)

    # -- allocation (honours the world's data mode) ------------------------

    def alloc(self, dtype: DataType, count: int) -> Buffer:
        """Scratch buffer: real (zeroed) or phantom per the world's mode."""
        if self.world.phantom:
            return Buffer.phantom(count * dtype.itemsize, dtype)
        return Buffer.alloc(dtype, count)

    def alloc_bytes(self, nbytes: int) -> Buffer:
        return self.alloc(BYTE, nbytes)

    # -- point-to-point ----------------------------------------------------

    def isend(self, dst: int, buf: Buffer, tag: Hashable = 0) -> ProcGen:
        t0 = self.world.engine.now
        req = yield from self.world.transport.isend(
            self.rank, dst, buf, tag, self.world.mechanism
        )
        if self.world.tracer is not None:
            self._trace("isend", t0, f"->{dst}/{buf.nbytes}B")
        return req

    def irecv(self, src: int, buf: Buffer, tag: Hashable = 0) -> Request:
        return self.world.transport.irecv(self.rank, src, buf, tag)

    def wait(self, req: Request) -> ProcGen:
        t0 = self.world.engine.now
        msg = yield WaitEvent(req.match_event)
        if req.kind == "recv":
            yield from self.world.transport.recv_work(req, msg)
        if self.world.tracer is not None:
            self._trace(f"wait-{req.kind}", t0, f"{req.src}->{req.dst}")

    def waitall(self, reqs: Sequence[Request]) -> ProcGen:
        for req in reqs:
            yield from self.wait(req)

    def send(self, dst: int, buf: Buffer, tag: Hashable = 0) -> ProcGen:
        req = yield from self.isend(dst, buf, tag)
        yield from self.wait(req)

    def recv(self, src: int, buf: Buffer, tag: Hashable = 0) -> ProcGen:
        req = self.irecv(src, buf, tag)
        yield from self.wait(req)

    def sendrecv(
        self,
        dst: int,
        sendbuf: Buffer,
        src: int,
        recvbuf: Buffer,
        tag: Hashable = 0,
    ) -> ProcGen:
        """Simultaneous exchange (deadlock-free)."""
        rreq = self.irecv(src, recvbuf, tag)
        sreq = yield from self.isend(dst, sendbuf, tag)
        yield from self.wait(rreq)
        yield from self.wait(sreq)

    # -- local work ---------------------------------------------------------

    def copy(self, dst: Buffer, src: Buffer, extra_fixed: float = 0.0) -> ProcGen:
        """Timed local memcpy ``src -> dst``."""
        t0 = self.world.engine.now
        yield from self.mem.copy(src.nbytes, extra_fixed=extra_fixed)
        dst.copy_from(src)
        if self.world.tracer is not None:
            self._trace("copy", t0, f"{src.nbytes}B")

    def reduce_into(
        self, dst: Buffer, src: Buffer, op: ReduceOp, extra_fixed: float = 0.0
    ) -> ProcGen:
        """Timed local elementwise ``dst = op(dst, src)``."""
        t0 = self.world.engine.now
        yield from self.mem.reduce(src.nbytes, extra_fixed=extra_fixed)
        dst.reduce_from(src, op)
        if self.world.tracer is not None:
            self._trace("reduce", t0, f"{src.nbytes}B")

    def compute(self, seconds: float) -> ProcGen:
        t0 = self.world.engine.now
        yield Delay(seconds)
        self._trace("compute", t0)

    def _trace(self, kind: str, t0: float, detail: str = "") -> None:
        tracer = self.world.tracer
        if tracer is not None:
            tracer.record(
                self.rank, self.node, kind, t0, self.world.engine.now, detail,
                phase=self.phase or "",
            )


class World:
    """One simulated cluster plus its MPI machinery."""

    def __init__(
        self,
        topology: Topology,
        params: MachineParams,
        mechanism: Optional[ShmemMechanism] = None,
        phantom: bool = False,
        seed: int = 0,
        tracer: Optional[Tracer] = None,
        validate: bool = False,
    ):
        self.topology = topology
        self.params = params
        self.hw = ClusterHW(topology, params)
        self.engine: Engine = self.hw.engine
        self.transport = Transport(self.hw)
        self.mechanism = mechanism
        self.phantom = phantom
        #: optional execution tracer (see repro.sim.trace); None = off
        self.tracer = tracer
        #: semantics oracles (send-buffer reuse, non-overtaking, quiescence);
        #: see repro.mpi.validation.  Off by default: the checks copy real
        #: send payloads, so only correctness harnesses arm them.
        self.validator: Optional[SemanticsValidator] = (
            SemanticsValidator() if validate else None
        )
        self.transport.validator = self.validator
        self.pip_nodes: List[PipNode] = [
            PipNode(self.engine, params, node) for node in range(topology.nodes)
        ]
        self.rng = np.random.default_rng(seed)
        self._contexts = [RankCtx(self, r) for r in range(topology.world_size)]

    @property
    def world_size(self) -> int:
        return self.topology.world_size

    def ctx(self, rank: int) -> RankCtx:
        return self._contexts[rank]

    @gc_paused
    def run(self, body: Callable[[RankCtx], ProcGen]) -> RunResult:
        """Run ``body`` on every rank, starting now; return timings."""
        engine = self.engine
        start = engine.now
        end_times = [0.0] * self.world_size

        # Completion times are recorded from each rank's ``done`` event
        # rather than a wrapper generator: a wrapper adds one frame to the
        # yield-from delegation chain of every single engine step, which is
        # measurable across million-event sweeps.
        for rank in range(self.world_size):
            proc = engine.spawn(body(self._contexts[rank]), name=f"rank-{rank}")
            proc.done.on_trigger(
                partial(_record_end_time, end_times, rank, engine)
            )
        engine.run()
        if self.validator is not None:
            self.validator.check_quiescent(self.transport)
        elapsed = max(end_times) - start
        return RunResult(start=start, end_times=tuple(end_times), elapsed=elapsed)

    def reset_pip_boards(self) -> None:
        """Drop PiP board/counter state between independent programs."""
        for node in self.pip_nodes:
            node.clear()
