"""DAG fast-path evaluator: analytic timing of compiled schedules.

Every collective a library runs compiles to a static per-rank
:class:`~repro.sched.ir.Schedule`, so its simulated duration is fully
determined by the schedule's cross-rank dependency DAG (send/recv matching
by tag, board/counter joins) and the hardware cost closures — there is
nothing left for the event loop to *decide*, only to order.  This module
evaluates that DAG directly on a :class:`~repro.sim.timeline.Timeline`:
each rank's program is lowered once into a flat opcode list (buffer
references resolved to ``(name, offset, count)`` triples, tag expressions
compiled to slot builders, node-locality of every send decided statically)
and then interpreted by a small continuation machine whose suspension
points are plain timeline callbacks — no coroutines, no ``Buffer``
objects, no ``Transport``.

One lowering serves both fast engines: :func:`lower_column` lowers any
selection of a plan's sizes.  A batch partition is the lowering of its
sizes; a DAG point is the width-1 lowering of its size, which the batch
engine hands to :func:`evaluate_point` from its column plan.  Nothing
keeps a lowering: a sweep plans, lowers and replays each size once, so
each lowering is freed when the evaluation that built it returns.  One
continuation machine serves both too: the batch engine's world and task
subclass :class:`FastWorld` and ``_Task`` and override only what its
vector clock changes.

Bit-identity (pinned by ``tests/sched/test_fastpath.py``) rests on two
invariants:

* every float is produced by the *same shared code* as the event path —
  :meth:`NodeNic.transfer`, :meth:`MemoryModel.copy_occupy` /
  :meth:`reduce_occupy`, and the mechanisms' ``sender_occupy`` /
  ``match_fixed`` closures;
* every suspension point and scheduling call of the generator-based
  runtime maps to exactly one timeline callback scheduled in the same
  relative order, so all ``(time, seq)`` tie-breaks resolve identically.

The one deliberate event-count deviation: the event engine starts a rank
with a spawn dispatch that immediately suspends on the library's
software-overhead delay; the fast path schedules the first program slice
at ``start + overhead`` directly.  At iteration start the timeline is
empty and spawn dispatches make no observable state change, so the rank
slices still execute in rank order at the same instant.

Scope is exactly the schedule registry
(:func:`repro.sched.registry.plan_for`: every microbenchmark collective
of every library, at every size) driven with phantom data — the
microbenchmark configuration every sweep uses.  Tracing, validation
oracles, and real-data runs stay on the event loop, which remains the
semantic reference.
"""

from __future__ import annotations

import numbers
from collections import deque
from heapq import heappush
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.hw.memory import MemoryModel
from repro.hw.nic import Fabric, NodeNic
from repro.hw.params import MachineParams, bebop_broadwell
from repro.mpi.transport import RTS_HEADER_BYTES
from repro.sched.ir import (
    AllocStep,
    ComputeStep,
    CopyStep,
    HashTag,
    IntraOpStep,
    Ns,
    PhaseStep,
    RankProgram,
    RecvStep,
    ReduceStep,
    SendStep,
    Sym,
    TagOffset,
    WaitStep,
    resolve_key,
)
from repro.sched.registry import (
    PLANNER_BACKED,
    PlannedCollective,
    canonical_name,
    plan_for,
)
from repro.shmem.base import MsgInfo
from repro.sim.batchline import uniform_bool
from repro.sim.engine import DeadlockError
from repro.sim.timeline import Timeline, TimelineEvent

__all__ = [
    "check_protocol",
    "evaluate_point",
    "evaluate_tables",
    "lower_column",
    "lowering_cache_info",
    "FastpathResult",
    "FastWorld",
]


class FastpathResult(NamedTuple):
    """Timing output of :func:`evaluate_point` (fields mirror run_point)."""

    samples: Tuple[float, ...]
    internode_messages: int


# ---------------------------------------------------------------------------
# schedule lowering: RankProgram -> flat opcode list
# ---------------------------------------------------------------------------

(
    _OP_SEND_INTRA,
    _OP_SEND_INTER,
    _OP_RECV,
    _OP_WAIT,
    _OP_COPY,
    _OP_REDUCE,
    _OP_POST,
    _OP_LOOKUP,
    _OP_ADD,
    _OP_CWAIT,
    _OP_ALLOC,
    _OP_PHASE,
    _OP_COMPUTE,
) = range(13)

_MARKERS = (Ns, Sym, HashTag, TagOffset)


def _has_markers(key) -> bool:
    cls = key.__class__
    if cls is tuple:
        return any(_has_markers(k) for k in key)
    return cls in _MARKERS


def _key_builder(key):
    """Compile one tag/key expression to ``fn(ns_values, symbols) -> value``.

    Specialised per expression structure — the dominant shape (a tuple with
    one symbolic element among constants) resolves with a single closure
    call and one tuple concatenation per iteration.
    """
    cls = key.__class__
    if cls is Ns:
        i = key.index
        return lambda ns, sy: ns[i]
    if cls is Sym:
        name = key.name
        return lambda ns, sy: sy[name]
    if cls is tuple:
        dyn = [
            (i, _key_builder(k))
            for i, k in enumerate(key) if _has_markers(k)
        ]
        if len(dyn) == 1:
            pos, build = dyn[0]
            pre = tuple(
                resolve_key(k, (), {}) for k in key[:pos]
            )
            post = tuple(
                resolve_key(k, (), {}) for k in key[pos + 1:]
            )
            if not post:
                return lambda ns, sy: pre + (build(ns, sy),)
            return lambda ns, sy: pre + (build(ns, sy),) + post
        template = [
            None if _has_markers(k) else resolve_key(k, (), {})
            for k in key
        ]
        dyn_t = tuple(dyn)

        def build_tuple(ns, sy):
            out = template.copy()
            for i, b in dyn_t:
                out[i] = b(ns, sy)
            return tuple(out)

        return build_tuple
    if cls is HashTag:
        inner = _key_builder(key.key)

        def build_hash(ns, sy):
            v = inner(ns, sy)
            return v if isinstance(v, int) else hash(v) & 0x7FFFFFFF

        return build_hash
    if cls is TagOffset:
        base = _key_builder(key.base)
        delta = key.delta
        return lambda ns, sy: base(ns, sy) + delta
    return lambda ns, sy: key


class _Compiled(NamedTuple):
    """One lowered rank program."""

    ops: Tuple[tuple, ...]
    #: tag-slot prototype; dynamic slots hold None until the prologue runs
    const_tags: Tuple
    #: (slot, builder) pairs evaluated once per iteration
    dyn_tags: Tuple[Tuple[int, object], ...]
    num_handles: int


class _LoweredColumn(NamedTuple):
    """One structure's lowering over a selection of message sizes.

    Every numeric operand is a plain int where the selected sizes agree
    and an int64 ``(S,)`` vector where they differ; a DAG point is the
    width-1 case, where every operand is an int.
    """

    compiled: Tuple[_Compiled, ...]
    #: per-participant base env: name -> (buffer_id, element count)
    envs: Tuple[dict, ...]
    #: highest baked binding-buffer id (AllocStep ids continue from here)
    nbufs: int
    num_namespaces: int
    #: the group-tag symbols the schedule declares; each is bound to one
    #: fresh value per invocation
    tags: Tuple[str, ...]


def _gatherer(sel: List[int]):
    """``gather(value)``: one numeric operand at the selected sizes.

    ``value`` is an int where the operand does not depend on the size,
    else a ``SizeVec`` over the plan's sizes, of which ``sel`` picks
    entries.  The result is a plain Python value where every selected
    size agrees, else a plain int64 ndarray.
    """
    if len(sel) == 1:
        j = sel[0]

        def gather(value):
            if isinstance(value, np.ndarray):
                return value.item(j)
            return value

        return gather

    idx = np.array(sel)

    def gather(value):
        if not isinstance(value, np.ndarray):
            return value
        value = value.view(np.ndarray)[idx]
        return value.item(0) if (value == value[0]).all() else value

    return gather


def _lower_program(program: RankProgram, index: int, ppn: int,
                   gather, resolved: Dict) -> _Compiled:
    """Lower participant ``index``'s program into the opcode layout,
    every numeric operand gathered at the selected sizes.

    ``resolved`` maps tag keys to ``(constant, builder)`` and is shared by
    every participant of one lowering: most keys recur on every rank, and
    builders are pure, so each is compiled once.
    """
    node = index // ppn
    ops: list = []
    slots: Dict = {}
    const_tags: list = []
    dyn_tags: list = []

    def key_slot(key) -> int:
        slot = slots.get(key)
        if slot is None:
            slot = slots[key] = len(const_tags)
            entry = resolved.get(key)
            if entry is None:
                entry = resolved[key] = (
                    (None, _key_builder(key)) if _has_markers(key)
                    else (resolve_key(key, (), {}), None)
                )
            const_tags.append(entry[0])
            if entry[1] is not None:
                dyn_tags.append((slot, entry[1]))
        return slot

    for step in program.steps:
        cls = step.__class__
        if cls is SendStep:
            ref = step.buf
            off = gather(ref.offset)
            cnt = None if ref.count is None else gather(ref.count)
            if step.dst // ppn == node:
                ops.append((
                    _OP_SEND_INTRA, step.dst, ref.name, off, cnt,
                    key_slot(step.tag), step.handle,
                ))
            else:
                ops.append((
                    _OP_SEND_INTER, step.dst, step.dst // ppn,
                    ref.name, off, cnt, key_slot(step.tag), step.handle,
                ))
        elif cls is RecvStep:
            ops.append((
                _OP_RECV, step.src, key_slot(step.tag), step.handle,
            ))
        elif cls is WaitStep:
            if step.handles:
                ops.append((_OP_WAIT, step.handles, len(step.handles)))
        elif cls is CopyStep or cls is ReduceStep:
            ref = step.src
            ops.append((
                _OP_COPY if cls is CopyStep else _OP_REDUCE, ref.name,
                gather(ref.offset),
                None if ref.count is None else gather(ref.count),
            ))
        elif cls is IntraOpStep:
            kind = step.op
            if kind == "post":
                ref = step.value
                ops.append((
                    _OP_POST, key_slot(step.key), ref.name,
                    gather(ref.offset),
                    None if ref.count is None else gather(ref.count),
                ))
            elif kind == "lookup":
                ops.append((_OP_LOOKUP, key_slot(step.key), step.bind))
            elif kind == "add":
                ops.append((_OP_ADD, key_slot(step.key), step.n))
            elif kind == "wait":
                ops.append((_OP_CWAIT, key_slot(step.key), step.n))
            else:  # pragma: no cover - planners only emit the four ops
                raise ValueError(f"unknown intra op {kind!r}")
        elif cls is AllocStep:
            ops.append((_OP_ALLOC, step.name, gather(step.count)))
        elif cls is PhaseStep:
            ops.append((_OP_PHASE, step.name))
        elif cls is ComputeStep:
            ops.append((_OP_COMPUTE, gather(step.seconds)))
        else:  # pragma: no cover - the IR is closed
            raise TypeError(f"unknown step {step!r}")
    return _Compiled(
        tuple(ops), tuple(const_tags), tuple(dyn_tags), program.num_handles
    )


#: lowerings :func:`lower_column` has made in this process
_lowerings = 0


def lower_column(piece: Tuple[Tuple[int, ...], PlannedCollective],
                 part: Tuple[int, ...], ppn: int) -> _LoweredColumn:
    """Lower the sizes ``part`` of one plan piece.

    ``piece`` is ``(sizes, planned)``: a
    :func:`repro.sched.registry.plan_column` piece, whose numeric
    operands are ints or size vectors over ``sizes``, or a
    :func:`~repro.sched.registry.plan_for` result with its one size.
    ``part`` is any subset of ``sizes``.
    """
    global _lowerings
    _lowerings += 1
    sizes, planned = piece
    where = {s: i for i, s in enumerate(sizes)}
    gather = _gatherer([where[s] for s in part])
    resolved: Dict = {}
    compiled = tuple(
        _lower_program(prog, i, ppn, gather, resolved)
        for i, prog in enumerate(planned.schedule.programs)
    )
    # binding buffers bake their ids in participant order, so AllocStep
    # ids continue above them exactly as a fresh world would hand out
    # ids, and warm-state keys line up across engines
    nbuf = 0
    envs = []
    for binding in planned.bindings:
        env = {}
        for name, count in binding.items():
            nbuf += 1
            env[name] = (nbuf, gather(count))
        envs.append(env)
    return _LoweredColumn(
        compiled, tuple(envs), nbuf, planned.schedule.num_namespaces,
        tuple(planned.symbols),
    )


class CacheInfo(NamedTuple):
    """``functools.CacheInfo``-shaped lowering counters."""

    hits: int
    misses: int
    maxsize: Optional[int]
    currsize: int


def lowering_cache_info() -> CacheInfo:
    """The lowerings made in this process, as ``misses``.

    No lowering is kept, so ``hits`` and ``currsize`` read 0 and
    ``maxsize`` is ``None``.
    """
    return CacheInfo(0, _lowerings, None, 0)


# ---------------------------------------------------------------------------
# runtime objects
# ---------------------------------------------------------------------------


class _EngineShim:
    """Duck-typed ``engine`` for :class:`MemoryModel`/mechanisms: ``.now``
    tracks the timeline so the shared cost closures read the right clock."""

    __slots__ = ("_tl",)

    def __init__(self, tl: Timeline):
        self._tl = tl

    @property
    def now(self) -> float:
        return self._tl.now


class _Req:
    """A posted send/receive with an inlined single-waiter event.

    The live transport pairs each request with an ``Event``; here at most
    one callback (the owning rank's wait continuation) ever waits, so the
    event collapses to ``done``/``value``/``waiter`` fields.
    """

    __slots__ = ("kind", "done", "value", "waiter", "t", "wt")

    def __init__(self, kind: str):
        self.kind = kind
        self.done = False
        self.value = None
        self.waiter = None
        # max-resume stamps, written only by the batch engine's overrides
        # (repro.sched.batch): completion-time vector and the waiter's
        # wait-reach-time vector
        self.t = None
        self.wt = None


class _Msg:
    """One in-flight message (the fast path's ``Message``)."""

    __slots__ = (
        "src", "dst", "tag", "nbytes", "src_buffer_id",
        "intranode", "rendezvous", "unexpected", "src_local", "sreq", "t",
    )

    def __init__(self, src, dst, tag, nbytes, src_buffer_id, intranode,
                 rendezvous, src_local, sreq):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = nbytes
        self.src_buffer_id = src_buffer_id
        self.intranode = intranode
        self.rendezvous = rendezvous
        self.unexpected = False
        self.src_local = src_local
        self.sreq = sreq
        # arrival-time vector, written only by the batch engine's
        # overrides (repro.sched.batch)
        self.t = None


class _Counter:
    """Shared-counter state: value + ordered ``(threshold, event)`` waiters."""

    __slots__ = ("value", "waiters", "adds", "tmax", "sorted_ok")

    def __init__(self) -> None:
        self.value = 0
        self.waiters: list = []
        # add log, kept only by the batch engine's ``_add`` override
        # (repro.sched.batch): (fire-time vector, n) per add, for exact
        # per-size threshold-crossing times; ``tmax``/``sorted_ok`` track
        # whether the log is elementwise non-decreasing, in which case
        # crossings need no per-size sort
        self.adds: list = []
        self.tmax = None
        self.sorted_ok = True


class FastWorld:
    """Hardware + matching state for one sweep point's DAG evaluation.

    Owns the same resource objects the event path would — per-node
    :class:`NodeNic` and :class:`MemoryModel`, an optional shared
    :class:`Fabric` — plus lightweight stand-ins for the transport's match
    tables and the PiP boards/counters.  Like
    :class:`~repro.mpi.runtime.World`, all state persists across
    iterations (the warm-up protocol).
    """

    def __init__(self, params: MachineParams, nodes: int, ppn: int,
                 mechanism, software_overhead: float, buf_seq_start: int):
        params.validate()
        self.params = params
        self.nodes = nodes
        self.ppn = ppn
        self.size = nodes * ppn
        self.mechanism = mechanism
        self.software_overhead = software_overhead
        # per-message hot constants, denormalised off params
        self.send_overhead = params.send_overhead
        self.recv_overhead = params.recv_overhead
        self.wire_latency = params.wire_latency
        self.eager_threshold = params.eager_threshold
        self.pip_post_time = params.pip_post_time
        self.pip_flag_time = params.pip_flag_time
        self._build_hardware(params)
        #: scratch MsgInfo handed to mechanism closures; all uses are
        #: synchronous (single dispatch), so one instance suffices
        self.info = MsgInfo(
            src_rank=0, dst_rank=0, nbytes=0, src_buffer_id=0
        )
        # PiP environment: per-node board slots and counters
        self.boards: List[Dict] = [{} for _ in range(nodes)]
        self.counters: List[Dict] = [{} for _ in range(nodes)]
        # transport match tables: per dst rank, (src, tag) -> FIFO
        self.arrived: List[Dict] = [{} for _ in range(self.size)]
        self.posted: List[Dict] = [{} for _ in range(self.size)]
        # per-rank collective op counter (identical across ranks, so one
        # world-level counter stands in for all of them)
        self._op_seq = 0
        # per-symbol group-tag counters (the baselines' group collectives)
        self._group_seqs: Dict = {}
        # fresh abstract buffer ids for AllocStep temporaries, numbered
        # above the binding-buffer ids baked into the lowering
        self._buf_seq = buf_seq_start
        self.end_times: List[float] = []
        self._live = 0
        # rank tasks, reused across iterations of the same program
        self._tasks: Optional[List["_Task"]] = None
        self._tasks_compiled: Optional[Tuple[_Compiled, ...]] = None
        #: optional (rank, phase) -> 6-column volume rows (check.py layout)
        self.acct: Optional[Dict[Tuple[int, str], List[int]]] = None

    def _build_hardware(self, params: MachineParams) -> None:
        """The timeline, the optional shared fabric server and the
        per-node NICs and memories."""
        self.tl = Timeline()
        shim = _EngineShim(self.tl)
        self.fabric: Optional[Fabric] = (
            Fabric() if params.fabric_bandwidth else None
        )
        self.nics = [
            NodeNic(params, node, self.ppn, fabric=self.fabric)
            for node in range(self.nodes)
        ]
        self.mems = [
            MemoryModel(shim, params, node) for node in range(self.nodes)
        ]

    # -- identity ---------------------------------------------------------

    def next_group_tag(self, name: str) -> tuple:
        """A fresh value for group-tag symbol ``name``.

        The event loop's ``replay`` binds ``RankCtx.collective_tag`` draws,
        ``(group tag_key, seq)`` tuples; only matching depends on the
        value, so one fresh value per symbol per invocation matches the
        same messages.  Node-group symbols are shared by every node's
        group: their messages never cross nodes, so sources tell the
        groups apart.
        """
        seq = self._group_seqs.get(name, 0) + 1
        self._group_seqs[name] = seq
        return (name, seq)

    def internode_messages(self) -> int:
        return sum(nic.messages_sent for nic in self.nics)

    # -- transport matching (the fast path's _deliver/_complete_send) -----

    def _deliver(self, msg: _Msg) -> None:
        key = (msg.src, msg.tag)
        rank_posted = self.posted[msg.dst]
        queue = rank_posted.get(key)
        if queue:
            req = queue.popleft()
            if not queue:
                del rank_posted[key]
            waiter = req.waiter
            if waiter is not None:
                req.waiter = None
                self.tl._ready.append((waiter, msg))
            else:
                req.done = True
                req.value = msg
        else:
            msg.unexpected = True
            rank_arrived = self.arrived[msg.dst]
            queue = rank_arrived.get(key)
            if queue is None:
                queue = rank_arrived[key] = deque()
            queue.append(msg)

    def _complete_send(self, req: _Req) -> None:
        # collapses the live path's sender_done -> on_trigger ->
        # match_event chain: _complete_send is that event's only
        # subscriber and plain callbacks run synchronously at trigger
        waiter = req.waiter
        if waiter is not None:
            req.waiter = None
            self.tl._ready.append((waiter, None))
        else:
            req.done = True

    # -- execution --------------------------------------------------------

    def run_protocol(self, low: _LoweredColumn, warmup: int,
                     measure: int) -> list:
        """The microbenchmark protocol on this world: ``warmup``
        unrecorded iterations of ``low``, then ``measure`` recorded ones;
        returns the recorded elapsed times."""
        samples = []
        for it in range(warmup + measure):
            symbols = {name: self.next_group_tag(name) for name in low.tags}
            elapsed = self.run_schedule(
                low.compiled, low.envs, symbols, low.num_namespaces
            )
            if it >= warmup:
                samples.append(elapsed)
        return samples

    def run_schedule(self, compiled: Tuple[_Compiled, ...], envs,
                     symbols: dict, num_namespaces: int) -> float:
        """One iteration: run every program to completion, return elapsed.

        ``envs[i]`` is participant ``i``'s base environment (name ->
        ``(buffer_id, element_count)``); it is copied per iteration exactly
        like the executor rebuilds its env from the bindings each call.
        """
        tl = self.tl
        start = tl.now
        k = num_namespaces
        ns_values = tuple(range(self._op_seq + 1, self._op_seq + 1 + k))
        self._op_seq += k
        tasks = self._tasks
        if tasks is None or self._tasks_compiled is not compiled:
            tasks = [
                _Task(self, i, compiled[i]) for i in range(len(compiled))
            ]
            self._tasks = tasks
            self._tasks_compiled = compiled
        n = len(tasks)
        self.end_times = [start] * n
        self._live = n
        heap = tl._heap
        seq = tl._seq
        body_start = start + self.software_overhead
        for i in range(n):
            task = tasks[i]
            task.reset(envs[i], ns_values, symbols)
            seq += 1
            heappush(heap, (body_start, seq, task._run, None))
        tl._seq = seq
        tl.run()
        if self._live:
            raise DeadlockError(
                f"{self._live} schedule program(s) blocked at t={tl.now} — "
                f"fast-path evaluation deadlocked"
            )
        return max(self.end_times) - start

    def teardown(self) -> None:
        """Cut every reference cycle through this world; it cannot run
        again.

        Each task points back into the world (``w``, the timeline, its
        node's hardware, board, counters and match tables, its requests,
        whose waiters are task continuations) and at itself (the prebound
        ``_c_*`` continuations), and the world's task list points at the
        tasks.  A pass abandoned mid-run (a batch split) also leaves
        callbacks bound to the world in its timeline's queues.  Once the
        tasks' edges are cut, the list is dropped and the queues are
        emptied, nothing is left on a cycle, so reference counting frees
        the world, its hardware and the last iteration's requests and
        messages as soon as the caller lets go, with no work for the
        cyclic garbage collector.
        """
        tasks = self._tasks
        self._tasks = self._tasks_compiled = None
        for task in tasks or ():
            task.detach()
        self.tl._heap.clear()
        self.tl._ready.clear()


# ---------------------------------------------------------------------------
# the per-rank continuation machine
# ---------------------------------------------------------------------------


class _Task:
    """One participant's lowered program, driven by timeline callbacks.

    Each continuation method corresponds to exactly one suspension point
    of the generator runtime; :meth:`_run` is the opcode interpreter that
    executes steps until the next suspension.  A task suspends on at most
    one operation at a time, so its operands live in ``_p_*`` scratch
    slots instead of per-event argument tuples.  The batch engine's task
    (:class:`repro.sched.batch._BatchTask`) subclasses this one and
    overrides only the continuations whose bodies touch its vector clock.
    """

    __slots__ = (
        "w", "tl", "index", "rank", "node", "lr", "ops", "nops", "pc",
        "env", "handles", "num_handles", "tags", "dyn_tags", "phase",
        "mem", "nic", "mech", "board", "ctrs", "arr", "post_q",
        "wait_handles", "wait_len", "wait_idx",
        "_p_dst", "_p_node", "_p_bid", "_p_cnt", "_p_tag", "_p_req",
        "_p_key", "_p_val", "_p_bind",
        "_c_next_wait", "_c_recv_work", "_c_recv_done", "_c_send_inter",
        "_c_send_intra", "_c_post", "_c_lookup", "_c_lookup_bind",
        "_c_add", "_c_cwait",
    )

    def __init__(self, w: FastWorld, index: int, compiled: _Compiled):
        self.w = w
        self.tl = w.tl
        self.index = index
        # registry schedules are world-indexed: participant i is rank i
        self.rank = index
        self.node, self.lr = divmod(index, w.ppn)
        self.ops = compiled.ops
        self.nops = len(compiled.ops)
        self.pc = 0
        self.env: dict = {}
        self.num_handles = compiled.num_handles
        self.handles: list = []
        self.dyn_tags = compiled.dyn_tags
        # dynamic slots are refilled in place by reset(); fully constant
        # tag lists are shared with the compiled form
        self.tags = (
            list(compiled.const_tags) if compiled.dyn_tags
            else compiled.const_tags
        )
        self.phase = ""
        self.mem = w.mems[self.node]
        self.nic = w.nics[self.node]
        self.mech = w.mechanism
        self.board = w.boards[self.node]
        self.ctrs = w.counters[self.node]
        self.arr = w.arrived[index]
        self.post_q = w.posted[index]
        self.wait_handles: tuple = ()
        self.wait_len = 0
        self.wait_idx = 0
        self._p_dst = self._p_node = self._p_bid = self._p_cnt = 0
        self._p_tag = self._p_req = self._p_key = self._p_val = None
        self._p_bind = None
        # continuations are scheduled by reference many times per task;
        # prebinding beats a bound-method allocation per event
        self._c_next_wait = self._next_wait
        self._c_recv_work = self._recv_work
        self._c_recv_done = self._recv_done
        self._c_send_inter = self._send_inter
        self._c_send_intra = self._send_intra
        self._c_post = self._post
        self._c_lookup = self._lookup
        self._c_lookup_bind = self._lookup_bind
        self._c_add = self._add
        self._c_cwait = self._cwait

    def detach(self) -> None:
        """Drop every reference into the world and to this task's own
        continuations (:meth:`FastWorld.teardown`); chained stores, since
        a point of a few milliseconds tears down dozens of tasks."""
        self.w = self.tl = self.mem = self.nic = self.mech = None
        self.board = self.ctrs = self.arr = self.post_q = None
        self.handles = self._p_req = None
        self._c_next_wait = self._c_recv_work = self._c_recv_done = None
        self._c_send_inter = self._c_send_intra = self._c_post = None
        self._c_lookup = self._c_lookup_bind = self._c_add = None
        self._c_cwait = None

    def reset(self, env_base: dict, ns_values: tuple, symbols: dict) -> None:
        """Rewind for the next iteration (fresh env/handles/tags)."""
        self.pc = 0
        self.env = dict(env_base)
        self.handles = [None] * self.num_handles
        dyn = self.dyn_tags
        if dyn:
            tags = self.tags
            for slot, builder in dyn:
                tags[slot] = builder(ns_values, symbols)
        self.phase = ""

    # -- the interpreter ---------------------------------------------------

    def _run(self, _value=None) -> None:
        w = self.w
        tl = self.tl
        heap = tl._heap
        now = tl.now
        ops = self.ops
        n = self.nops
        env = self.env
        tags = self.tags
        acct = w.acct
        pc = self.pc
        while pc < n:
            op = ops[pc]
            pc += 1
            code = op[0]
            if code == _OP_LOOKUP:
                self.pc = pc
                self._p_bind = op[2]
                board = self.board
                key = tags[op[1]]
                ev = board.get(key)
                if ev is None:
                    ev = board[key] = TimelineEvent(tl)
                if ev.triggered:
                    tl._ready.append((self._c_lookup, ev.value))
                else:
                    ev._waiters.append(self._c_lookup)
                return
            if code == _OP_SEND_INTRA:
                _, dst, name, off, cnt, slot, handle = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                req = _Req("send")
                self.handles[handle] = req
                if acct is not None:
                    self._account(2, cnt, messages=True)
                self.pc = pc
                self._p_dst = dst
                self._p_bid = base[0]
                self._p_cnt = cnt
                self._p_tag = tags[slot]
                self._p_req = req
                # sender_occupy reserves lanes / mutates warm state now,
                # at the same instant the live sender_work would
                info = w.info
                info.src_rank = self.rank
                info.dst_rank = dst
                info.nbytes = cnt
                info.src_buffer_id = base[0]
                d = self.mech.sender_occupy(self.mem, info)
                tl._seq = seq = tl._seq + 1
                heappush(heap, (now + d, seq, self._c_send_intra, None))
                return
            if code == _OP_SEND_INTER:
                _, dst, dst_node, name, off, cnt, slot, handle = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                req = _Req("send")
                self.handles[handle] = req
                if acct is not None:
                    self._account(0, cnt, messages=True)
                self.pc = pc
                self._p_dst = dst
                self._p_node = dst_node
                self._p_bid = base[0]
                self._p_cnt = cnt
                self._p_tag = tags[slot]
                self._p_req = req
                tl._seq = seq = tl._seq + 1
                heappush(heap, (
                    now + w.send_overhead, seq, self._c_send_inter, None,
                ))
                return
            if code == _OP_RECV:
                _, src, slot, handle = op
                req = _Req("recv")
                self.handles[handle] = req
                key = (src, tags[slot])
                arrived = self.arr
                queue = arrived.get(key)
                if queue:
                    msg = queue.popleft()
                    if not queue:
                        del arrived[key]
                    # the request was just created: no waiter yet
                    req.done = True
                    req.value = msg
                else:
                    posted = self.post_q
                    queue = posted.get(key)
                    if queue is None:
                        queue = posted[key] = deque()
                    queue.append(req)
            elif code == _OP_WAIT:
                self.pc = pc
                self.wait_handles = op[1]
                self.wait_len = op[2]
                self.wait_idx = 0
                req = self.handles[op[1][0]]
                fn = (self._c_next_wait if req.kind == "send"
                      else self._c_recv_work)
                if req.done:
                    tl._ready.append((fn, req.value))
                else:
                    req.waiter = fn
                return
            elif code == _OP_COPY:
                _, name, off, cnt = op
                if cnt is None:
                    cnt = env[name][1] - off
                if acct is not None:
                    self._account(4, cnt)
                self.pc = pc
                d = self.mem.copy_occupy(now, cnt, 0.0)
                tl._seq = seq = tl._seq + 1
                heappush(heap, (now + d, seq, self._run, None))
                return
            elif code == _OP_REDUCE:
                _, name, off, cnt = op
                if cnt is None:
                    cnt = env[name][1] - off
                if acct is not None:
                    self._account(5, cnt)
                self.pc = pc
                d = self.mem.reduce_occupy(now, cnt, 0.0)
                tl._seq = seq = tl._seq + 1
                heappush(heap, (now + d, seq, self._run, None))
                return
            elif code == _OP_POST:
                _, slot, name, off, cnt = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                self.pc = pc
                self._p_key = tags[slot]
                self._p_val = (base[0], cnt)
                tl._seq = seq = tl._seq + 1
                heappush(heap, (
                    now + w.pip_post_time, seq, self._c_post, None,
                ))
                return
            elif code == _OP_ADD:
                self.pc = pc
                self._p_key = tags[op[1]]
                self._p_val = op[2]
                tl._seq = seq = tl._seq + 1
                heappush(heap, (
                    now + w.pip_flag_time, seq, self._c_add, None,
                ))
                return
            elif code == _OP_CWAIT:
                _, slot, threshold = op
                self.pc = pc
                ctrs = self.ctrs
                key = tags[slot]
                c = ctrs.get(key)
                if c is None:
                    c = ctrs[key] = _Counter()
                if c.value >= threshold:
                    tl._seq = seq = tl._seq + 1
                    heappush(heap, (
                        now + w.pip_flag_time, seq, self._run, None,
                    ))
                else:
                    ev = TimelineEvent(tl)
                    c.waiters.append((threshold, ev))
                    ev._waiters.append(self._c_cwait)
                return
            elif code == _OP_ALLOC:
                w._buf_seq = bid = w._buf_seq + 1
                env[op[1]] = (bid, op[2])
            elif code == _OP_PHASE:
                self.phase = op[1]
            else:  # _OP_COMPUTE
                self.pc = pc
                tl._seq = seq = tl._seq + 1
                heappush(heap, (now + op[1], seq, self._run, None))
                return
        # program finished
        w.end_times[self.index] = now
        w._live -= 1

    # -- send continuations ------------------------------------------------

    def _send_inter(self, _value=None) -> None:
        w = self.w
        tl = self.tl
        dst = self._p_dst
        cnt = self._p_cnt
        req = self._p_req
        dst_nic = w.nics[self._p_node]
        if uniform_bool(cnt <= w.eager_threshold):
            inject_done, arrival = self.nic.transfer(
                tl.now, self.lr, dst_nic, cnt
            )
            msg = _Msg(self.rank, dst, self._p_tag, cnt, self._p_bid,
                       False, False, self.lr, None)
            tl.call(arrival, w._deliver, msg)
            tl.call(inject_done, w._complete_send, req)
        else:
            _, rts_arrival = self.nic.transfer(
                tl.now, self.lr, dst_nic, RTS_HEADER_BYTES
            )
            msg = _Msg(self.rank, dst, self._p_tag, cnt, self._p_bid,
                       False, True, self.lr, req)
            tl.call(rts_arrival, w._deliver, msg)
        self._run()

    def _send_intra(self, _value=None) -> None:
        w = self.w
        cnt = self._p_cnt
        req = self._p_req
        if self.mech.eager_for(cnt):
            msg = _Msg(self.rank, self._p_dst, self._p_tag, cnt,
                       self._p_bid, True, False, self.lr, None)
            w._deliver(msg)
            w._complete_send(req)
        else:
            msg = _Msg(self.rank, self._p_dst, self._p_tag, cnt,
                       self._p_bid, True, False, self.lr, req)
            w._deliver(msg)
        self._run()

    # -- wait/receive continuations ----------------------------------------

    def _next_wait(self, _value=None) -> None:
        i = self.wait_idx + 1
        if i < self.wait_len:
            self.wait_idx = i
            req = self.handles[self.wait_handles[i]]
            fn = (self._c_next_wait if req.kind == "send"
                  else self._c_recv_work)
            if req.done:
                self.tl._ready.append((fn, req.value))
            else:
                req.waiter = fn
        else:
            self._run()

    def _recv_work(self, msg: _Msg) -> None:
        w = self.w
        tl = self.tl
        now = tl.now
        if msg.intranode:
            mech = self.mech
            mem = self.mem
            info = w.info
            info.src_rank = msg.src
            info.dst_rank = self.rank
            info.nbytes = msg.nbytes
            info.src_buffer_id = msg.src_buffer_id
            fixed = mech.match_fixed(mem, info)
            d = mem.copy_occupy(
                now, mech.receiver_copy_bytes(msg.nbytes), fixed
            )
        elif msg.rendezvous:
            # CTS header travels back, then the data path is reserved
            data_start = now + w.send_overhead + w.wire_latency
            src_nic = w.nics[msg.src // w.ppn]
            inject_done, arrival = src_nic.transfer(
                data_start, msg.src_local, self.nic, msg.nbytes, dma=True,
            )
            tl.call(inject_done, w._complete_send, msg.sreq)
            d = arrival - now + w.recv_overhead
        elif msg.unexpected:
            d = self.mem.copy_occupy(now, msg.nbytes, w.recv_overhead)
        else:
            d = w.recv_overhead
        tl._seq = seq = tl._seq + 1
        heappush(tl._heap, (now + d, seq, self._c_recv_done, msg))

    def _recv_done(self, msg: _Msg) -> None:
        if msg.intranode:
            sreq = msg.sreq
            if sreq is not None:
                self.w._complete_send(sreq)
        self._next_wait()

    # -- PiP continuations ---------------------------------------------------

    def _post(self, _value=None) -> None:
        board = self.board
        key = self._p_key
        ev = board.get(key)
        if ev is None:
            ev = board[key] = TimelineEvent(self.tl)
        ev.trigger(self._p_val)
        self._run()

    def _lookup(self, value) -> None:
        tl = self.tl
        tl.call(tl.now + self.w.pip_flag_time, self._c_lookup_bind, value)

    def _lookup_bind(self, value) -> None:
        bind = self._p_bind
        if bind is not None:
            self.env[bind] = value
        self._run()

    def _add(self, _value=None) -> None:
        ctrs = self.ctrs
        key = self._p_key
        c = ctrs.get(key)
        if c is None:
            c = ctrs[key] = _Counter()
        c.value += self._p_val
        if c.waiters:
            still = []
            value = c.value
            for threshold, ev in c.waiters:
                if value >= threshold:
                    ev.trigger(value)
                else:
                    still.append((threshold, ev))
            c.waiters = still
        self._run()

    def _cwait(self, _value=None) -> None:
        tl = self.tl
        tl.call(tl.now + self.w.pip_flag_time, self._run, None)

    # -- accounting ----------------------------------------------------------

    def _account(self, col: int, cnt: int, messages: bool = False) -> None:
        acct = self.w.acct
        row = acct.get((self.rank, self.phase))
        if row is None:
            row = acct[(self.rank, self.phase)] = [0] * 6
        if messages:
            row[col] += 1
            row[col + 1] += cnt
        else:
            row[col] += cnt


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def check_protocol(warmup: int, measure: int, sizes=()) -> None:
    """Reject a protocol or size axis no engine can evaluate.

    Every engine runs ``warmup`` unrecorded iterations, then ``measure``
    recorded ones, at integral byte counts; ``bool`` is not a size.
    """
    if measure < 1:
        raise ValueError("need at least one measured iteration")
    if warmup < 0:
        raise ValueError(f"warmup must be >= 0, got {warmup!r}")
    for s in sizes:
        if isinstance(s, bool) or not isinstance(s, numbers.Integral):
            raise ValueError(
                f"message size must be an integer number of bytes, "
                f"got {s!r}"
            )


def canonical_library(library: str,
                      thresholds) -> Tuple[str, object]:
    """``(registry name, library)`` under any spelling of the library
    name; refuses ``thresholds`` for a library that does not select by
    size."""
    from repro.baselines.registry import make_library

    canon = canonical_name(library)
    lib = make_library(PLANNER_BACKED.get(canon, library))
    if thresholds is not None and not hasattr(lib, "thresholds"):
        raise ValueError(
            f"library {library!r} has no size thresholds to override"
        )
    return canon, lib


def _prepare(library: str, collective: str, nodes: int, ppn: int,
             msg_bytes: int, params: Optional[MachineParams], thresholds,
             lowered: Optional[_LoweredColumn] = None
             ) -> Tuple[FastWorld, _LoweredColumn]:
    """Shared setup: the point's width-1 lowering and a fresh world.

    Without ``lowered`` the point is planned and lowered here.
    """
    canon, lib = canonical_library(library, thresholds)
    if lowered is None:
        point = (msg_bytes,)
        planned = plan_for(
            canon, collective, nodes, ppn, msg_bytes, thresholds=thresholds
        )
        lowered = lower_column((point, planned), point, ppn)
    # binding buffers are allocated once per point (stable identities ->
    # page-fault/attach state warms across iterations), exactly like the
    # phantom buffers _make_body allocates once in run_point; their ids
    # are baked into the lowering, so fresh ids continue above them
    world = FastWorld(
        params if params is not None else bebop_broadwell(),
        nodes, ppn, lib.make_mechanism(), lib.software_overhead,
        lowered.nbufs,
    )
    return world, lowered


def evaluate_point(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    msg_bytes: int,
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    thresholds=None,
    lowered: Optional[_LoweredColumn] = None,
) -> FastpathResult:
    """Evaluate one microbenchmark point on the DAG fast path.

    Mirrors :func:`repro.bench.microbench.run_point`'s protocol — warm-up
    iterations on the same world, then measured ones — and returns the
    per-iteration times plus the cumulative internode message count.
    ``lowered`` is the point's width-1 :func:`lower_column` lowering,
    which the batch engine builds from its column plan; without it the
    point is planned and lowered here.
    """
    check_protocol(warmup, measure, (msg_bytes,))
    world, low = _prepare(
        library, collective, nodes, ppn, int(msg_bytes), params, thresholds,
        lowered,
    )
    try:
        samples = world.run_protocol(low, warmup, measure)
        return FastpathResult(tuple(samples), world.internode_messages())
    finally:
        world.teardown()


def evaluate_tables(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    msg_bytes: int,
    params: Optional[MachineParams] = None,
    thresholds=None,
) -> Dict[Tuple[int, str], List[int]]:
    """Per-(rank, phase) traffic volumes of one cold iteration.

    Rows are the static checker's 6-column layout (``[inter-msgs,
    inter-bytes, intra-msgs, intra-bytes, copy-bytes, reduce-bytes]``), so
    the result is directly comparable to
    :func:`repro.sched.check.check_planned`'s ``per_rank`` tables.
    """
    world, low = _prepare(
        library, collective, nodes, ppn, msg_bytes, params, thresholds
    )
    world.acct = {}
    try:
        world.run_protocol(low, 0, 1)
        return world.acct
    finally:
        world.teardown()
