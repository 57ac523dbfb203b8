"""Batched sweep engine: one vectorized pass over the message-size axis.

The paper's figures sweep message size at fixed (library, collective,
topology, ppn): dozens of points that share one schedule *structure* and
differ only in the byte counts fed to the hardware cost closures.  The
scalar DAG engine (:mod:`repro.sched.fastpath`) already removed the
coroutine machinery, but still pays Python event dispatch once per
(event, size).  This module pays it once per event:

1. **Plan once per structure**
   (:func:`repro.sched.registry.plan_column`): the planners run once
   over a :class:`~repro.sim.batchline.SizeVec` of the whole axis, and a
   size-dependent planner branch (an algorithm switch, a zero-count
   block) splits the axis into pieces of uniform structure.  Each piece
   is one group; ``tests/sched/test_plan_column.py`` pins the pieces as
   exactly the structure groups per-size planning would give.
2. **Lower once per partition**
   (:func:`repro.sched.fastpath.lower_column`): the opcode program is
   built from the group's plan with every byte count/offset *selected*
   at the partition's sizes — a plain int where all sizes agree, an
   ``(S,)`` integer vector where they differ.  Every size sent to the
   DAG engine is lowered the same way as a width-1 column and handed to
   :func:`~repro.sched.fastpath.evaluate_point`, which replays it
   without planning the point again.  No lowering is kept: each is
   freed when the pass or point that replays it returns
   (:func:`lowering_cache_info` counts the lowerings made).
3. **Replay once** on a :class:`~repro.sim.batchline.BatchTimeline`: the
   scalar DAG engine's continuation machine with a vector clock, by
   subclassing.  :class:`BatchWorld` extends
   :class:`~repro.sched.fastpath.FastWorld` and :class:`_BatchTask`
   extends its ``_Task``; they inherit the matching, board and counter
   logic and every continuation that only schedules, and override only
   the code the vector clock changes (the hardware, the interpreter, and
   the continuations that stamp per-size resume times).  Every time is an
   ``(S,)`` array flowing through vectorized twins of the shared cost
   closures (:class:`~repro.hw.nic.BatchNic`,
   :class:`~repro.hw.memory.BatchMemory`) that replicate the scalar
   arithmetic operation-for-operation.
4. **Verify, then fall back where needed.**  Size-dependent *branches*
   (internode eager/rendezvous at ``eager_threshold``, hybrid intranode
   mechanism picks, zero-count short-circuits) go through
   :func:`~repro.sim.batchline.uniform_bool`, the same rule the planners
   split by: a mixed mask raises
   :class:`~repro.sim.batchline.BatchDivergence`, the pass is abandoned
   (each pass runs in a fresh :class:`BatchWorld`, so nothing leaks) and
   the partition splits at the mask.  Size-dependent *orderings* (a
   contended FIFO serviced in a different order at some size) are caught
   by the timeline's conflict-equivalence check
   (:meth:`~repro.sim.batchline.BatchTimeline.order_divergence`): every
   dispatch records the resources it touches, and a size is divergent iff
   some resource's access order under the pivot differs from that size's
   own scalar order.  Each protocol iteration is judged as it drains, and
   its verdict is final, so the pass knows after every iteration how many
   sizes it can still accept; it stops at the first iteration boundary
   where those few no longer pay for the iterations left
   (:meth:`BatchWorld.run_schedule` gives the rule), and its survivors go
   to the DAG engine.  Divergent sizes are *re-adjudicated by partition*:
   the timeline's inversion matrix clusters them by divergence signature
   (:meth:`~repro.sim.batchline.BatchTimeline.divergence_labels` — which
   conflict pairs inverted), and each cluster is re-batched as its own
   sub-partition under its own pivot, recursively up to
   :data:`_REBATCH_DEPTH` levels.  Sizes that inverted the same pairs
   the same way overwhelmingly agree with *each other*, so contention-
   bound columns converge in a handful of vectorized passes instead of
   bailing to per-size DAG evaluation.  Only clusters narrower than
   :data:`_MIN_BATCH_WIDTH`, clusters that stopped shrinking, and
   depth-bound exhaustion fall back to the scalar DAG engine, as do
   partitions narrower than that width, where a vectorized pass costs
   more than the per-size replays it replaces.

The contract is the DAG engine's, inherited transitively: for every size,
``evaluate_column``'s samples and message counts are **bit-identical** to
``fastpath.evaluate_point``'s (``tests/sched/test_batch.py`` pins this
across the registry grid, threshold-straddling axes, and randomized
shapes).  The order-invariance argument lives in
:mod:`repro.sim.batchline` and DESIGN.md section 2.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro.hw.memory import BatchMemory
from repro.hw.nic import BatchFabric, BatchNic
from repro.hw.params import MachineParams, bebop_broadwell
from repro.sched.fastpath import (
    _OP_ADD,
    _OP_ALLOC,
    _OP_COPY,
    _OP_CWAIT,
    _OP_LOOKUP,
    _OP_PHASE,
    _OP_POST,
    _OP_RECV,
    _OP_REDUCE,
    _OP_SEND_INTER,
    _OP_SEND_INTRA,
    _OP_WAIT,
    _Compiled,
    _Counter,
    _EngineShim,
    _LoweredColumn,
    _Msg,
    _Req,
    _Task,
    FastpathResult,
    FastWorld,
    canonical_library,
    check_protocol,
    lower_column,
    lowering_cache_info,
)
from repro.sched.fastpath import evaluate_point as _dag_evaluate_point
from repro.sched.registry import plan_column
from repro.sim.batchline import BatchDivergence, BatchEvent, BatchTimeline
from repro.sim.engine import DeadlockError
from repro.util.gcpause import gc_paused

__all__ = [
    "evaluate_column",
    "ColumnResult",
    "ColumnStats",
    "lowering_cache_info",
    "BatchWorld",
]


#: re-adjudication recursion bound: a divergent signature cluster may be
#: re-batched under its own pivot at most this many levels deep before
#: its sizes drop to the scalar DAG engine
_REBATCH_DEPTH = 4

#: partitions (and divergent clusters) narrower than this many sizes go
#: to the scalar DAG engine size by size: below it one vectorized pass
#: costs more than the per-size replays it replaces.  Measured on cold
#: evaluations: a pass lost to per-size DAG at every width of the
#: small-scale figure columns (2-10 sizes) and first won at 8-11 sizes on
#: the 121-size columns (DESIGN.md section 2, fallback rule 3).  It also
#: prices the rest of a running pass: with ``k`` of ``T`` iterations run,
#: the rest costs as much as ``_MIN_BATCH_WIDTH * (T - k) / T`` replays,
#: and a pass whose undivergent sizes are fewer than that stops (fallback
#: rule 4)
_MIN_BATCH_WIDTH = 11


class ColumnStats(NamedTuple):
    """How one column was evaluated (diagnostics and test hooks)."""

    #: size tuples evaluated in one completed vectorized pass each
    partitions: Tuple[Tuple[int, ...], ...]
    #: sizes flagged order-divergent and re-evaluated on the DAG engine
    #: (those of abandoned passes included), not re-batched
    fallback_sizes: Tuple[int, ...]
    #: sizes routed straight to the DAG engine: those of partitions
    #: narrower than ``_MIN_BATCH_WIDTH``, and the still-undivergent
    #: survivors of abandoned passes
    singleton_sizes: Tuple[int, ...]
    #: runtime partition splits taken at size-dependent branches
    splits: int
    #: order-divergent signature clusters re-batched under their own pivot
    retries: int
    #: deepest re-adjudication level reached (0 = no re-batching)
    rebatch_depth: int = 0
    #: always 0; kept for readers of these stats (``perfbench/spans.py``
    #: reports it as ``batch.elided_passes``)
    elided_passes: int = 0
    #: size tuples whose pass stopped at an iteration boundary, once too
    #: few sizes were still undivergent to pay for the iterations left
    abandoned: Tuple[Tuple[int, ...], ...] = ()


class ColumnResult(NamedTuple):
    """Output of :func:`evaluate_column`."""

    #: per-size timing results (every one bit-identical to the DAG engine)
    results: Dict[int, FastpathResult]
    stats: ColumnStats


# ---------------------------------------------------------------------------
# runtime: the vectorized world and continuation machine
# ---------------------------------------------------------------------------


class _PassAbandoned(Exception):
    """The pass stops at an iteration boundary: the sizes still
    undivergent cannot pay for its remaining iterations
    (:meth:`BatchWorld.run_schedule`)."""


class _BatchShim(_EngineShim):
    """Duck-typed ``engine`` for :class:`BatchMemory`: vector ``.now``
    plus the timeline's conflict recorder."""

    __slots__ = ("touch", "touch_ok")

    def __init__(self, tl: BatchTimeline):
        super().__init__(tl)
        self.touch = tl.touch
        self.touch_ok = tl.touch_ok


def _counter_crossing(ctr, threshold: int) -> np.ndarray:
    """Exact per-size time at which a shared counter reaches ``threshold``.

    ``ctr.adds`` is the counter's ordered add log, ``(fire-time vector,
    n)`` per add.  At each size the adds land in that size's own time
    order, so the crossing is an order statistic: sort the add times per
    size, accumulate the counts, and take the time of the first add at
    which the running sum reaches the threshold.  Equal-time adds
    contribute a sum that is order-independent, so any stable order among
    them yields the same crossing.  Callers guarantee the logged counts
    already sum to ``threshold`` or more.

    When the log is elementwise non-decreasing (``ctr.sorted_ok``, the
    overwhelmingly common case: arrivals land in the same order at every
    size), the stable sort is the identity at every size and the crossing
    is simply the time of the first prefix-sum hit — no per-size sort.
    """
    adds = ctr.adds
    if len(adds) == 1:
        return adds[0][0]
    if ctr.sorted_ok:
        total = 0
        for t, n in adds:
            total += n
            if total >= threshold:
                return t
    times = np.stack([t for t, _ in adds])
    ns = np.array([n for _, n in adds], dtype=np.int64)
    order = np.argsort(times, axis=0, kind="stable")
    cum = np.cumsum(ns[order], axis=0)
    first = np.argmax(cum >= threshold, axis=0)
    cols = np.arange(times.shape[1])
    return times[order[first, cols], cols]


class BatchWorld(FastWorld):
    """Hardware + matching state for one partition's vectorized pass.

    A :class:`~repro.sched.fastpath.FastWorld` whose clock is a vector:
    the per-node NICs and memories are their width-``S`` mirrors.  The
    match tables, boards, counters, tag sequencing, message counts and
    the warm-up/measure loop are inherited; the matching overrides
    (``_deliver``, ``_complete_send``) pair exactly as the scalar ones do
    but stamp per-size resume times (max-resume) and record conflict
    accesses for the per-iteration check.  Warm state (page faults, XPMEM
    expose/attach) is keyed by structural ids only, and every mutation
    happens on the single shared execution path, so it evolves exactly as
    in each size's own scalar run.
    """

    def __init__(self, params: MachineParams, nodes: int, ppn: int,
                 mechanism, software_overhead: float, width: int,
                 buf_seq_start: int, iterations: int):
        self.width = width
        super().__init__(params, nodes, ppn, mechanism, software_overhead,
                         buf_seq_start)
        # buffer-identity conflicts only exist for mechanisms with warm
        # state (page-fault regions, expose/attach caches)
        self.track_mb = getattr(mechanism, "warm_state", True)
        #: the protocol's iteration count, and how many are still to run
        self._iterations = self._iterations_left = iterations
        #: (counter, threshold, reach, resume-used) per counter-wait
        #: resume of the running iteration, validated when it drains
        self._ct_checks: List[tuple] = []
        #: sizes whose counter-wait resume failed validation
        self._ct_divergent = np.zeros(width, dtype=bool)
        #: a board key was posted twice: values are order-ambiguous, so
        #: every size must fall back (never happens for planner schedules)
        self._board_conflict = False

    def _build_hardware(self, params: MachineParams) -> None:
        width = self.width
        self.tl = BatchTimeline(width)
        shim = _BatchShim(self.tl)
        self.fabric = BatchFabric(width) if params.fabric_bandwidth else None
        self.nics = [
            BatchNic(params, node, self.ppn, width, self.tl,
                     fabric=self.fabric)
            for node in range(self.nodes)
        ]
        self.mems = [
            BatchMemory(shim, params, node, width)
            for node in range(self.nodes)
        ]

    # -- transport matching (same pairing as FastWorld; resume times are
    # -- exact per size via the max-resume overrides) ---------------------

    def _deliver(self, msg: _Msg) -> None:
        tl = self.tl
        key = (msg.src, msg.tag)
        # a deliver/post inversion is harmless when the pairing cannot
        # change (singleton queue) and the cost path does not consult the
        # posted/unexpected outcome: intranode receives cost the same
        # either way, and internode rendezvous only uses the RTS arrival
        # time, which the max-resume override reproduces exactly.  Eager
        # internode messages pay a bounce-buffer copy only when
        # unexpected, so their match order stays strict.
        cls_ok = msg.intranode or msg.rendezvous
        rank_posted = self.posted[msg.dst]
        queue = rank_posted.get(key)
        if queue:
            tl.touch_ok(("q", msg.dst, key), cls_ok and len(queue) == 1)
            req = queue.popleft()
            if not queue:
                del rank_posted[key]
            waiter = req.waiter
            if waiter is not None:
                req.waiter = None
                tl._ready.append(
                    (waiter, msg, np.maximum(tl.now, req.wt))
                )
            else:
                req.done = True
                req.value = msg
                req.t = tl.now
        else:
            msg.unexpected = True
            msg.t = tl.now
            rank_arrived = self.arrived[msg.dst]
            queue = rank_arrived.get(key)
            if queue is None:
                queue = rank_arrived[key] = deque()
            queue.append(msg)
            tl.touch_ok(("q", msg.dst, key), cls_ok and len(queue) == 1)

    def _complete_send(self, req: _Req) -> None:
        tl = self.tl
        waiter = req.waiter
        if waiter is not None:
            req.waiter = None
            tl._ready.append((waiter, None, np.maximum(tl.now, req.wt)))
        else:
            req.done = True
            req.t = tl.now

    def order_divergence(self) -> np.ndarray:
        """Per-size divergence over resource orders *and* counter checks,
        over every iteration run so far.

        The timeline's conflict-equivalence mask, widened by the counter
        crossing validation: each counter-wait resume used the exact
        crossing computed from the adds seen at trigger time, and an add
        processed later (in pivot order) firing earlier at some size
        would make that size's true crossing earlier — re-checked against
        the full add log when the iteration drains (:meth:`run_schedule`).
        Double-posted board keys flag every size (conservative; planner
        schedules post once).
        """
        if self._board_conflict:
            return np.ones(self.width, dtype=bool)
        return self.tl.order_divergence() | self._ct_divergent

    # -- execution --------------------------------------------------------

    def run_schedule(self, compiled: Tuple[_Compiled, ...], envs,
                     symbols: dict, num_namespaces: int) -> np.ndarray:
        """One iteration over the whole partition; returns elapsed ``(S,)``.

        The drained iteration is judged at once: the timeline checks its
        conflict pairs, and each of its counter-wait resumes is validated
        here, against the complete add log (a later iteration only adds
        later times, so the verdict is final).  Then, with ``k`` of the
        protocol's ``T`` iterations run and ``A`` sizes still undivergent
        (pivot included), the pass raises :class:`_PassAbandoned` iff
        ``A * T < _MIN_BATCH_WIDTH * (T - k)``: the iterations left cost
        ``(T - k) / T`` of a pass, a pass costs as much as
        ``_MIN_BATCH_WIDTH`` per-size DAG replays, and the DAG replays the
        survivors for ``A``.
        """
        tl = self.tl
        start = tl.now
        k = num_namespaces
        ns_values = tuple(range(self._op_seq + 1, self._op_seq + 1 + k))
        self._op_seq += k
        tasks = self._tasks
        if tasks is None:
            tasks = [
                _BatchTask(self, i, compiled[i])
                for i in range(len(compiled))
            ]
            self._tasks = tasks
        n = len(tasks)
        self.end_times = [start] * n
        self._live = n
        body_start = start + self.software_overhead
        for i in range(n):
            task = tasks[i]
            task.reset(envs[i], ns_values, symbols)
            tl.call(body_start, task._run, None)
        tl.run()
        if self._live:
            raise DeadlockError(
                f"{self._live} schedule program(s) blocked — batch "
                f"evaluation deadlocked"
            )
        if self._ct_checks:
            bad = self._ct_divergent
            for ctr, threshold, reach, used in self._ct_checks:
                bad |= used != np.maximum(
                    reach, _counter_crossing(ctr, threshold)
                )
            self._ct_checks = []
        left = self._iterations_left = self._iterations_left - 1
        if left:
            alive = self.width - np.count_nonzero(self.order_divergence())
            if alive * self._iterations < _MIN_BATCH_WIDTH * left:
                raise _PassAbandoned
        end = self.end_times[0]
        for v in self.end_times[1:]:
            end = np.maximum(end, v)
        return end - start


class _BatchTask(_Task):
    """One participant's lowered program over the vector clock.

    The DAG engine's continuation machine
    (:class:`repro.sched.fastpath._Task`), inherited: every suspension
    point schedules exactly one timeline callback in the same relative
    order, so the pivot size's ``(time, seq)`` tie-breaks resolve
    identically to the scalar DAG engine, and every other size inherits
    that order subject to the per-iteration divergence check.  It overrides
    only the continuations whose bodies touch the vector clock: the
    interpreter and the wait, receive, post and add continuations, which
    stamp per-size resume times (max-resume), log counter adds and record
    conflict accesses.  The size-dependent protocol branches go through
    :func:`~repro.sim.batchline.uniform_bool` on either clock: the
    inherited eager/rendezvous branch of ``_send_inter``, and the hybrid
    mechanism's pick inside the shared cost closures.
    """

    __slots__ = ()

    # -- the interpreter ---------------------------------------------------

    def _run(self, _value=None) -> None:
        w = self.w
        tl = self.tl
        now = tl.now
        ops = self.ops
        n = self.nops
        env = self.env
        tags = self.tags
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
                    ev = board[key] = BatchEvent(tl)
                if ev.triggered:
                    tl._ready.append((
                        self._c_lookup, ev.value,
                        np.maximum(now, ev.t),
                    ))
                else:
                    ev._waiters.append((self._c_lookup, now))
                return
            if code == _OP_SEND_INTRA:
                _, dst, name, off, cnt, slot, handle = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                req = _Req("send")
                self.handles[handle] = req
                self.pc = pc
                self._p_dst = dst
                self._p_bid = base[0]
                self._p_cnt = cnt
                self._p_tag = tags[slot]
                self._p_req = req
                info = w.info
                info.src_rank = self.rank
                info.dst_rank = dst
                info.nbytes = cnt
                info.src_buffer_id = base[0]
                if w.track_mb:
                    tl.touch(("mb", base[0]))
                d = self.mech.sender_occupy(self.mem, info)
                tl.call(now + d, self._c_send_intra, None)
                return
            if code == _OP_SEND_INTER:
                _, dst, dst_node, name, off, cnt, slot, handle = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                req = _Req("send")
                self.handles[handle] = req
                self.pc = pc
                self._p_dst = dst
                self._p_node = dst_node
                self._p_bid = base[0]
                self._p_cnt = cnt
                self._p_tag = tags[slot]
                self._p_req = req
                tl.call(now + w.send_overhead, self._c_send_inter, None)
                return
            if code == _OP_RECV:
                _, src, slot, handle = op
                req = _Req("recv")
                self.handles[handle] = req
                key = (src, tags[slot])
                arrived = self.arr
                queue = arrived.get(key)
                if queue:
                    # the message-class side of the commutation condition
                    # lives on the deliver access of the same pair
                    tl.touch_ok(("q", self.rank, key), len(queue) == 1)
                    msg = queue.popleft()
                    if not queue:
                        del arrived[key]
                    req.done = True
                    req.value = msg
                    req.t = msg.t
                else:
                    posted = self.post_q
                    queue = posted.get(key)
                    if queue is None:
                        queue = posted[key] = deque()
                    queue.append(req)
                    tl.touch_ok(("q", self.rank, key), len(queue) == 1)
            elif code == _OP_WAIT:
                self.pc = pc
                self.wait_handles = op[1]
                self.wait_len = op[2]
                self.wait_idx = 0
                req = self.handles[op[1][0]]
                fn = (self._c_next_wait if req.kind == "send"
                      else self._c_recv_work)
                if req.done:
                    tl._ready.append(
                        (fn, req.value, np.maximum(now, req.t))
                    )
                else:
                    req.waiter = fn
                    req.wt = now
                return
            elif code == _OP_COPY:
                _, name, off, cnt = op
                if cnt is None:
                    cnt = env[name][1] - off
                self.pc = pc
                d = self.mem.copy_occupy(now, cnt, 0.0)
                tl.call(now + d, self._run, None)
                return
            elif code == _OP_REDUCE:
                _, name, off, cnt = op
                if cnt is None:
                    cnt = env[name][1] - off
                self.pc = pc
                d = self.mem.reduce_occupy(now, cnt, 0.0)
                tl.call(now + d, self._run, None)
                return
            elif code == _OP_POST:
                _, slot, name, off, cnt = op
                base = env[name]
                if cnt is None:
                    cnt = base[1] - off
                self.pc = pc
                self._p_key = tags[slot]
                self._p_val = (base[0], cnt)
                tl.call(now + w.pip_post_time, self._c_post, None)
                return
            elif code == _OP_ADD:
                self.pc = pc
                self._p_key = tags[op[1]]
                self._p_val = op[2]
                tl.call(now + w.pip_flag_time, self._c_add, None)
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
                    # already crossed at the pivot; each size resumes at
                    # its own exact crossing (or its wait arrival, if
                    # later), validated against late adds when the
                    # iteration drains
                    used = np.maximum(
                        now, _counter_crossing(c, threshold)
                    )
                    w._ct_checks.append((c, threshold, now, used))
                    tl.call(used + w.pip_flag_time, self._run, None)
                else:
                    ev = BatchEvent(tl)
                    c.waiters.append((threshold, ev))
                    ev._waiters.append((self._c_cwait, now))
                return
            elif code == _OP_ALLOC:
                # the id sequence is deliberately not a conflict resource:
                # an alloc-order inversion renames ids bijectively, and
                # ids are opaque warm-state keys (see batchline docstring)
                w._buf_seq = bid = w._buf_seq + 1
                env[op[1]] = (bid, op[2])
            elif code == _OP_PHASE:
                pass
            else:  # _OP_COMPUTE
                self.pc = pc
                tl.call(now + op[1], self._run, None)
                return
        # program finished
        w.end_times[self.index] = now
        w._live -= 1

    # -- wait/receive continuations ----------------------------------------

    def _next_wait(self, _value=None) -> None:
        i = self.wait_idx + 1
        if i < self.wait_len:
            self.wait_idx = i
            tl = self.tl
            req = self.handles[self.wait_handles[i]]
            fn = (self._c_next_wait if req.kind == "send"
                  else self._c_recv_work)
            if req.done:
                tl._ready.append(
                    (fn, req.value, np.maximum(tl.now, req.t))
                )
            else:
                req.waiter = fn
                req.wt = tl.now
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
            if w.track_mb:
                tl.touch(("mb", msg.src_buffer_id))
            fixed = mech.match_fixed(mem, info)
            d = mem.copy_occupy(
                now, mech.receiver_copy_bytes(msg.nbytes), fixed
            )
        elif msg.rendezvous:
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
        tl.call(now + d, self._c_recv_done, msg)

    # -- PiP continuations -------------------------------------------------

    def _post(self, _value=None) -> None:
        board = self.board
        key = self._p_key
        ev = board.get(key)
        if ev is None:
            ev = board[key] = BatchEvent(self.tl)
        if ev.triggered:
            # double post: the bound value depends on post order
            self.w._board_conflict = True
        ev.trigger(self._p_val)
        self._run()

    def _add(self, _value=None) -> None:
        w = self.w
        tl = self.tl
        ctrs = self.ctrs
        key = self._p_key
        c = ctrs.get(key)
        if c is None:
            c = ctrs[key] = _Counter()
        n = self._p_val
        c.value += n
        now = tl.now
        c.adds.append((now, n))
        # track whether the log stays elementwise non-decreasing — the
        # fast no-sort path in _counter_crossing
        tm = c.tmax
        if tm is None:
            c.tmax = now
        elif (now >= tm).all():
            c.tmax = now
        else:
            c.sorted_ok = False
        if c.waiters:
            still = []
            value = c.value
            checks = w._ct_checks
            for threshold, ev in c.waiters:
                if value >= threshold:
                    crossing = _counter_crossing(c, threshold)
                    for fn, reach in ev._waiters:
                        checks.append((
                            c, threshold, reach,
                            np.maximum(reach, crossing),
                        ))
                    ev.trigger_at(value, crossing)
                else:
                    still.append((threshold, ev))
            c.waiters = still
        self._run()


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def _evaluate_partition(
    lowered: _LoweredColumn, nodes: int, ppn: int,
    part: Tuple[int, ...], lib, params: MachineParams, warmup: int,
    measure: int,
) -> Tuple[List[FastpathResult], np.ndarray, Optional[np.ndarray]]:
    """One vectorized pass over ``part``; may raise :class:`BatchDivergence`.

    Returns per-size results (partition order), the order-divergence
    mask, and — when anything diverged — the per-size divergence
    signature labels; divergent entries' results are garbage and must be
    recomputed.  The results are None when the pass was abandoned at an
    iteration boundary; the mask and labels then cover the iterations it
    ran.
    """
    world = BatchWorld(
        params, nodes, ppn, lib.make_mechanism(), lib.software_overhead,
        len(part), lowered.nbufs, warmup + measure,
    )
    try:
        samples = world.run_protocol(lowered, warmup, measure)
    except _PassAbandoned:
        samples = None
    finally:
        # a pass split at a BatchDivergence is freed too
        world.teardown()
    divergent = world.order_divergence()
    labels = (
        world.tl.divergence_labels(divergent) if divergent.any() else None
    )
    if samples is None:
        return None, divergent, labels
    msgs = world.internode_messages()
    results = [
        FastpathResult(tuple(float(v[j]) for v in samples), msgs)
        for j in range(len(part))
    ]
    return results, divergent, labels


@gc_paused
def evaluate_column(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    sizes: Sequence[int],
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    thresholds=None,
) -> ColumnResult:
    """Evaluate a whole message-size column in vectorized passes.

    The batch counterpart of :func:`repro.sched.fastpath.evaluate_point`:
    same microbenchmark protocol (fresh world per point, ``warmup``
    unrecorded iterations, ``measure`` recorded ones), applied to every
    size in ``sizes`` at once.  Results are bit-identical to per-size DAG
    evaluation; sizes the vector pass cannot prove order-invariant — and
    partitions narrower than ``_MIN_BATCH_WIDTH`` — are evaluated on the
    DAG engine directly.
    """
    sizes = list(sizes)
    check_protocol(warmup, measure, sizes)
    canon, lib = canonical_library(library, collective, thresholds)
    sizes = [int(s) for s in sizes]
    if not sizes:
        raise ValueError("empty size axis")
    if params is None:
        params = bebop_broadwell()

    # plan the column once per structure; each piece is one group, and
    # groups run in the order of their smallest size
    groups = sorted(
        plan_column(canon, collective, nodes, ppn, sorted(set(sizes)),
                    thresholds),
        key=lambda piece: piece[0][0],
    )
    group_of = {s: g for g in groups for s in g[0]}

    def _lower(part: Tuple[int, ...]) -> _LoweredColumn:
        return lower_column(group_of[part[0]], part, ppn)

    def _dag(s: int) -> FastpathResult:
        # the DAG engine replays the size's width-1 lowering of the
        # column plan instead of planning the point again
        return _dag_evaluate_point(
            library, collective, nodes, ppn, s, params=params,
            warmup=warmup, measure=measure, thresholds=thresholds,
            lowered=_lower((s,)),
        )

    results: Dict[int, FastpathResult] = {}
    partitions: List[Tuple[int, ...]] = []
    abandoned: List[Tuple[int, ...]] = []
    fallback: List[int] = []
    singles: List[int] = []
    splits = 0
    retries = 0
    max_depth = 0
    # (partition, re-adjudication depth); a group's sub-partitions are
    # pushed on top of the later groups, so each group finishes first
    stack: List[Tuple[Tuple[int, ...], int]] = [
        (axis, 0) for axis, _ in reversed(groups)
    ]

    def handle_divergent(part, depth, divergent, labels):
        # event order at these sizes differed from the pivot's.  Sizes
        # whose runs inverted the *same* conflict pairs (equal divergence
        # signatures) overwhelmingly agree with each other, so each
        # signature cluster is re-batched under its own pivot,
        # recursively up to _REBATCH_DEPTH levels.  A cluster as large as
        # its partition cannot make progress (the pass is deterministic),
        # so it — like clusters narrower than _MIN_BATCH_WIDTH and depth
        # exhaustion — goes to the DAG engine.
        nonlocal retries, max_depth
        if depth >= _REBATCH_DEPTH:
            for s, bad in zip(part, divergent):
                if bad:
                    fallback.append(s)
                    results[s] = _dag(s)
            return
        clusters: Dict[int, List[int]] = {}
        for s, lab, bad in zip(part, labels, divergent):
            if bad:
                clusters.setdefault(int(lab), []).append(s)
        for sub in clusters.values():
            if len(sub) < _MIN_BATCH_WIDTH or len(sub) == len(part):
                for s in sub:
                    fallback.append(s)
                    results[s] = _dag(s)
            else:
                retries += 1
                if depth + 1 > max_depth:
                    max_depth = depth + 1
                stack.append((tuple(sub), depth + 1))

    while stack:
        part, depth = stack.pop()
        if len(part) < _MIN_BATCH_WIDTH:
            for s in part:
                results[s] = _dag(s)
                singles.append(s)
            continue
        try:
            part_results, divergent, labels = _evaluate_partition(
                _lower(part), nodes, ppn, part, lib, params, warmup, measure,
            )
        except BatchDivergence as d:
            # a size-dependent branch was not uniform: split the partition
            # at the mask and retry both halves
            splits += 1
            mask = d.mask
            a = tuple(s for s, m in zip(part, mask) if m)
            b = tuple(s for s, m in zip(part, mask) if not m)
            if not a or not b:  # pragma: no cover - raisers check this
                raise RuntimeError(
                    "BatchDivergence with a uniform mask"
                ) from d
            stack.append((a, depth))
            stack.append((b, depth))
            continue
        if part_results is None:
            # stopped at an iteration boundary: its few survivors go to
            # the DAG engine, its divergent sizes are re-adjudicated as a
            # completed pass's are
            abandoned.append(part)
            for s, bad in zip(part, divergent):
                if not bad:
                    results[s] = _dag(s)
                    singles.append(s)
        else:
            partitions.append(part)
            for s, r, bad in zip(part, part_results, divergent):
                if not bad:
                    results[s] = r
        if divergent.any():
            handle_divergent(part, depth, divergent, labels)
    stats = ColumnStats(
        tuple(partitions), tuple(sorted(fallback)), tuple(sorted(singles)),
        splits, retries, max_depth, abandoned=tuple(abandoned),
    )
    return ColumnResult(results, stats)
