"""A vector-valued timeline for batched (whole-size-axis) evaluation.

:class:`BatchTimeline` is :class:`repro.sim.timeline.Timeline` with the
clock widened from one float to a numpy vector over the message-size axis:
every scheduled callback carries an ``(S,)`` array of fire times, one per
size in the current partition, and the queues are ordered by the *pivot*
size (index 0).  One dispatch of the batch engine therefore advances all
``S`` simulations at once — the per-event Python dispatch that caps the
scalar DAG engine (see DESIGN.md section 2) is paid once per event instead
of once per (event, size).

Correctness rests on a conflict-equivalence argument, not on per-size
replay.  The pivot size is simulated *exactly* (its component of every
time vector is the scalar arithmetic of the DAG engine, and the queues are
ordered by it).  For every other size ``s`` the dispatch order is the
pivot's; that is harmless as long as it is **conflict-equivalent** to the
order size ``s``'s own scalar run would use:

* every mutable piece of simulation state is owned by exactly one
  *resource* — a process's NIC injection lane, a node's transmit or
  receive pipeline, a node's memory-lane pool, one ``(dst, src, tag)``
  match queue, a buffer's warm-fault state.  Dispatches record which
  resources they touch via :meth:`BatchTimeline.touch`;
* a dispatch's outputs depend only on its inputs and on the access order
  of the resources it touches.  Two executions that perform the same
  per-resource access sequences therefore compute identical values — the
  standard conflict-serializability argument, applied to a deterministic
  simulator;
* as each protocol iteration drains, the timeline checks, for every
  resource and every adjacent pair of accesses from *different* pops, that
  the two pops are ordered the same way size ``s``'s scalar run would
  order them (by fire time; ties by the scalar engine's push sequence,
  reconstructed from the recorded push parents — see below).  Sizes with
  any conflicting inversion are flagged *divergent*
  (:meth:`BatchTimeline.order_divergence`) and re-evaluated on the scalar
  DAG engine.  No result computed under a non-equivalent order is ever
  reported.

A checked iteration's verdict is final.  A full drain separates two
iterations, so no conflict pair spans them: each pair is judged exactly
once, right after its iteration, and later iterations can only add
divergent sizes, never clear one.  The batch engine reads the growing
mask at every iteration boundary and abandons a pass whose remaining
iterations can no longer pay for the sizes still undivergent (see
:mod:`repro.sched.batch`).

Max-resume semantics.  Synchronization resources — send/recv requests,
board posts, counter thresholds — are *not* order-sensitive at all once
the waiter's resume time is computed as the elementwise maximum of the
waiter's arrival time and the trigger's fire time: in every scalar run
the continuation runs at exactly ``max(reach, trigger)``, whichever side
arrived first.  Ready-queue entries therefore carry an optional ``now``
override vector (pivot component always equal to the dispatching pop's
time, so pivot arithmetic and dispatch order are untouched), and those
resources need no conflict tracking: the batch run computes every size's
exact scalar resume time directly.  Counter waits additionally need the
exact per-size *crossing* time (which add pushed the counter over the
threshold differs per size); the batch engine computes it as an
order statistic over the recorded add times and validates it when the
iteration drains (see :mod:`repro.sched.batch`).

Commuting accesses.  Some genuinely order-sensitive resources are
order-insensitive for *particular* access pairs: two memory-lane-pool
reservations that both started without waiting remove the same two
smallest lane-free times and add the same two end times in either order
(the pool is an indistinguishable-server multiset), and a match-queue
deliver/post pair whose message class makes both match orders cost the
same (intranode, or internode rendezvous, where the unexpected flag does
not enter the cost path) commutes when the queue never holds more than
one entry.  Such accesses are recorded via :meth:`BatchTimeline.touch_ok`
with a per-size ``ok`` mask; an inverted adjacent pair is divergent only
at sizes where either side was *not* ok — the classical commuting-movers
refinement of conflict equivalence.

Tie adjudication.  The scalar engines break equal-time heap entries by
push sequence number, and push order is itself execution-order dependent,
so the batch run cannot just reuse its own seq numbers for other sizes.
It can, however, *reconstruct* the scalar order: each heap entry records
the pop during whose dispatch segment it was pushed (its *parent*; -1 for
the per-iteration root pushes).  In the scalar run at ``s``, entry ``a``
was pushed before entry ``b`` iff ``a``'s parent pop dispatched before
``b``'s (recursively, by fire time at ``s``, then parents), with fixed
push order inside one segment and roots pushed first.  The comparison
walks the two parent chains in lock-step — and since parents are strictly
earlier pops, the chains are finite.  All tie pairs are resolved in one
bulk pass: the chains of every pair advance together as index arrays, the
``t[pa] < t[pb]`` contributions accumulate under the running equal-time
gate, and pairs drop out as their chain hits a structurally-decided case
(same segment, parent-of-the-other, root).  A defensive level cap keeps
the loop bounded even if the parent invariant were violated; capped ties
are simply declared divergent (conservative, never unsound).

Divergence signatures.  :meth:`BatchTimeline.divergence_labels` exposes
*which* conflict pairs are inverted per size: two divergent sizes with the
same inversion signature disagree with the pivot's dispatch order in
exactly the same places, which makes them strong candidates to agree with
*each other* — the batch engine re-batches each signature cluster under
its own pivot instead of falling back per size (see
:mod:`repro.sched.batch`).

Two deliberate non-resources.  Buffer ids (the ``_OP_ALLOC`` sequence)
are opaque keys: a run that interleaves allocations differently assigns
ids by a *bijective renaming*, and renamed keys index the same warm-state
sets, so alloc-order inversions cannot change any computed time and the
id sequence is not tracked.  Data handed from one dispatch to another
(e.g. message fields written before a queue append and read after the
pop) is ordered *transitively*: each scalar order is a total order, so
verifying every directly-shared resource pairwise already pins every
mediated write-before-read.

Branches on message size (eager/rendezvous protocol choice, hybrid
intranode mechanisms, warm/cold fault state) cannot be captured by an
order check because they change *which* callbacks run.  Cost closures and
the batch interpreter therefore pass every size-dependent predicate
through :func:`uniform_bool`, which collapses a uniform mask to one bool
and raises :class:`BatchDivergence` with a mixed one; the batch engine
splits the partition at that boundary and retries.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List

import numpy as np

__all__ = [
    "BatchDivergence", "BatchTimeline", "BatchEvent", "SizeVec",
    "uniform_bool",
]


class BatchDivergence(Exception):
    """A size-dependent branch split the current partition.

    ``mask`` is a boolean ``(S,)`` array over the partition's size axis,
    marking the sizes that took the branch the pivot did not (or, for
    symmetric predicates, one side of the split — the batch engine only
    needs the two subsets).  Raised only for genuinely mixed masks.
    """

    def __init__(self, mask: np.ndarray):
        super().__init__("size-dependent branch is not uniform")
        self.mask = mask


def uniform_bool(mask) -> bool:
    """Collapse a size-axis predicate to one bool, or split.

    ``mask`` is either a plain bool (count uniform across the partition)
    or a boolean ``(S,)`` array; a mixed array raises
    :class:`BatchDivergence` so the caller's partition splits there.
    """
    if isinstance(mask, np.ndarray):
        # one count decides it: ``.all()``/``.any()`` each pay numpy's
        # Python-level reduction wrappers, and this runs on every vector
        # dispatch and every planner branch of a column
        n = np.count_nonzero(mask)
        if n == len(mask):
            return True
        if not n:
            return False
        raise BatchDivergence(mask)
    return mask


class SizeVec(np.ndarray):
    """A column's message sizes, planned as one integer value.

    The planners run unchanged on a ``SizeVec`` in place of their
    ``count``: element-wise ``+ - * // % divmod`` give every size its own
    value, and every place the planner *branches* on a size (``if``,
    ``and``/``or``, ``min``/``max``, ``range``, ``int``) collapses the
    vector to one plain Python value when all sizes agree, or raises
    :class:`BatchDivergence` with the mask to split the column at — the
    same rule as :func:`uniform_bool` applies to the runtime branches.

    In-place operators return new arrays instead of writing through: a
    planner's ``acc += c`` must never change an array an emitted step
    already holds.  Like every ndarray, a ``SizeVec`` is unhashable, so
    it can never enter a planner's ``lru_cache`` by accident.
    """

    def __new__(cls, sizes) -> "SizeVec":
        return np.asarray(sizes, dtype=np.int64).view(cls)

    def __bool__(self) -> bool:
        return uniform_bool(self.view(np.ndarray) != 0)

    def __index__(self) -> int:
        values = self.view(np.ndarray)
        same = values == values[0]
        if not same.all():
            raise BatchDivergence(same)
        return int(values[0])

    __int__ = __index__

    __iadd__ = np.ndarray.__add__
    __isub__ = np.ndarray.__sub__
    __imul__ = np.ndarray.__mul__
    __ifloordiv__ = np.ndarray.__floordiv__
    __imod__ = np.ndarray.__mod__
    __ilshift__ = np.ndarray.__lshift__
    __irshift__ = np.ndarray.__rshift__


class BatchTimeline:
    """A :class:`~repro.sim.timeline.Timeline` over a vector clock.

    Heap entries are ``(pivot_time, seq, fn, value, time_vec, parent)``;
    ``now`` is the ``(S,)`` fire-time vector of the entry being
    dispatched.  Ties at equal pivot time resolve by ``seq`` exactly like
    the scalar engines.  Every pop of the running iteration is recorded,
    and resource accesses are logged against the current pop, for the
    conflict check that judges the iteration once it drains.
    """

    __slots__ = ("width", "now", "_heap", "_ready", "_seq",
                 "_pop_times", "_pop_seqs", "_pop_pars", "_res", "_res_ok",
                 "_cur", "_divergent", "_inverted")

    def __init__(self, width: int):
        self.width = width
        self.now: np.ndarray = np.zeros(width)
        self._heap: list = []
        self._ready: deque = deque()
        self._seq = 0
        # the current iteration's records, indexed by pop
        self._pop_times: list = []
        self._pop_seqs: list = []
        #: per pop: index of the pop during whose segment it was pushed
        self._pop_pars: list = []
        #: resource key -> ordered list of accessing pop indices
        self._res: Dict[Any, List[int]] = {}
        #: resource key -> (pop indices, per-access ok masks) for
        #: conditionally-commuting resources (see touch_ok)
        self._res_ok: Dict[Any, tuple] = {}
        #: pop whose dispatch segment is currently executing (-1 = root)
        self._cur = -1
        #: sizes inverted on some conflict pair of a drained iteration
        self._divergent = np.zeros(width, dtype=bool)
        #: per drained iteration, the ``(pairs, S)`` inversion rows of
        #: its conflict pairs that are inverted at some size
        self._inverted: list = []

    def call(self, time: np.ndarray, fn: Callable[[Any], None],
             value: Any = None) -> None:
        """Schedule ``fn(value)`` at the absolute time vector ``time``.

        ``time`` must be an ``(S,)`` array and must not be mutated after
        scheduling (the cost closures always build fresh arrays).
        """
        self._seq += 1
        heappush(self._heap, (time[0], self._seq, fn, value, time,
                              self._cur))

    def touch(self, key) -> None:
        """Record that the current dispatch segment accessed resource
        ``key``; consecutive touches by the same segment collapse."""
        res = self._res
        lst = res.get(key)
        if lst is None:
            res[key] = [self._cur]
        elif lst[-1] != self._cur:
            lst.append(self._cur)

    def touch_ok(self, key, ok) -> None:
        """Like :meth:`touch`, with a commutation mask.

        ``ok`` is True / a boolean ``(S,)`` array marking sizes at which
        this access commutes with an adjacent inverted neighbour *that is
        also ok* (zero-wait lane reservations, class-uniform singleton
        match-queue operations).  An inverted pair is counted divergent
        only where either side is not ok.  Collapsed same-segment touches
        AND their masks.
        """
        res = self._res_ok
        rec = res.get(key)
        if rec is None:
            res[key] = ([self._cur], [ok])
        elif rec[0][-1] != self._cur:
            rec[0].append(self._cur)
            rec[1].append(ok)
        else:
            rec[1][-1] = rec[1][-1] & ok

    def run(self) -> np.ndarray:
        """Run one iteration until both queues drain; returns the final
        time vector.

        Mirrors ``Timeline.run``: the ready deque is drained completely
        before each single heap pop.  Ready callbacks execute inside the
        segment of the pop that (transitively) appended them, so their
        resource touches anchor to that pop; entries carrying a ``now``
        override (max-resume continuations) see their exact per-size
        resume vector, and the segment's own clock is restored afterwards.
        The drain ends the iteration: its conflict pairs are judged then
        (no pair spans two iterations), and its records are dropped.
        """
        heap = self._heap
        ready = self._ready
        pop = heappop
        pop_times = self._pop_times
        pop_seqs = self._pop_seqs
        pop_pars = self._pop_pars
        tvec = self.now
        while heap or ready:
            while ready:
                fn, value, over = ready.popleft()
                if over is None:
                    fn(value)
                else:
                    self.now = over
                    fn(value)
                    self.now = tvec
            if not heap:
                break
            entry = pop(heap)
            tvec = entry[4]
            self.now = tvec
            self._cur = len(pop_times)
            pop_times.append(tvec)
            pop_seqs.append(entry[1])
            pop_pars.append(entry[5])
            entry[2](entry[3])
        if pop_times:
            tmat = np.asarray(pop_times)
            # a scalar run ends at its own latest pop time, and which pop
            # is latest varies with size; the iteration's final clock must
            # therefore be the elementwise max over its pops, not the
            # pivot-order last pop's vector — it seeds the next iteration's
            # start and any per-size skew there leaks into carried
            # resource state
            self.now = tmat.max(axis=0)
            self._check(tmat)
        # the next iteration starts from fresh records, at the root
        self._cur = -1
        self._pop_times = []
        self._pop_seqs = []
        self._pop_pars = []
        self._res = {}
        self._res_ok = {}
        return self.now

    def _check(self, tmat: np.ndarray) -> None:
        """Judge the drained iteration's conflict pairs, once.

        ``tmat`` is the iteration's ``(pops, S)`` fire-time matrix.  For
        every distinct conflict pair the batch ran as pop ``i`` then pop
        ``j``, size ``s`` is *inverted* when its own scalar run would have
        dispatched the pair the other way — by fire time, equal-time ties
        broken by the reconstructed push order.  The inverted sizes join
        the running divergence mask, and the pairs inverted at some size
        join the signature rows :meth:`divergence_labels` clusters by.
        """
        if len(tmat) < 2 or not (self._res or self._res_ok):
            return
        # collect the distinct conflict pairs (batch ran i, then j), each
        # with its commutation mask: None = strict, else an ok mask under
        # which an inversion is harmless.  A pair reached through several
        # resources must be harmless under every one.
        pairs: Dict[tuple, Any] = {}
        for accesses in self._res.values():
            i = accesses[0]
            for j in accesses[1:]:
                if j != i and j != -1 and i != -1:
                    pairs[(i, j)] = None
                i = j
        for pops, oks in self._res_ok.values():
            i = pops[0]
            oki = oks[0]
            for j, okj in zip(pops[1:], oks[1:]):
                if j != i and j != -1 and i != -1:
                    p = (i, j)
                    both = oki & okj
                    if p not in pairs:
                        pairs[p] = both
                    else:
                        cur = pairs[p]
                        if cur is not None:
                            pairs[p] = cur & both
                i = j
                oki = okj
        # pairs that commute at every size can never flag anything
        kept = [
            (ij, relax) for ij, relax in pairs.items()
            if not (relax is True
                    or (isinstance(relax, np.ndarray) and relax.all()))
        ]
        if not kept:
            return
        n = len(kept)
        idx = np.fromiter(
            (k for ij, _ in kept for k in ij), np.int64, 2 * n
        ).reshape(n, 2)
        ti = tmat[idx[:, 0]]
        tj = tmat[idx[:, 1]]
        # bulk fire-time pass: j strictly before i at size s is an
        # inversion; equal-time pairs fall through to the tie pass
        wrong = tj < ti
        ties = ti == tj
        tie_rows = np.nonzero(ties.any(axis=1))[0]
        if len(tie_rows):
            order_ok = self._push_order_bulk(idx[tie_rows], tmat)
            wrong[tie_rows] |= ties[tie_rows] & ~order_ok
        for r, (_, relax) in enumerate(kept):
            # scalar-False masks are fully strict: nothing to clear
            if isinstance(relax, np.ndarray):
                wrong[r] &= ~relax
        inverted = wrong[wrong.any(axis=1)]
        if len(inverted):
            self._divergent |= inverted.any(axis=0)
            self._inverted.append(inverted)

    def _push_order_bulk(self, pairs: np.ndarray,
                         tmat: np.ndarray) -> np.ndarray:
        """Bulk push-order reconstruction for equal-time tie pairs.

        Returns an ``(n, S)`` mask: at size ``s``, pair ``r``'s first pop
        was pushed before its second in ``s``'s scalar run.  All pairs'
        parent chains advance together; per level, the structurally
        decided cases (same segment, pushed-during-the-other, root) peel
        off as resolved rows, and for the rest the comparison becomes
        ``precedes(parent_a, parent_b)``: earlier fire time wins where the
        running equal-time gate is still open, and still-tied positions
        carry to the next level.
        """
        pars = np.asarray(self._pop_pars, dtype=np.int64)
        seqs = np.asarray(self._pop_seqs, dtype=np.int64)
        n = len(pairs)
        out = np.zeros((n, self.width), dtype=bool)
        rows = np.arange(n, dtype=np.int64)
        a = pairs[:, 0].copy()
        b = pairs[:, 1].copy()
        #: lt-contributions accumulated along the chain, gated by all ties
        acc = np.zeros((n, self.width), dtype=bool)
        gate = np.ones((n, self.width), dtype=bool)
        # parents are strictly earlier pops, so every chain shortens each
        # level; the cap is purely defensive — capped ties resolve to
        # "not before", i.e. divergent (conservative, never unsound)
        for _ in range(len(pars) + 2):
            if not len(rows):
                break
            pa = pars[a]
            pb = pars[b]
            m_same = pa == pb
            m_in_b = pa == b   # a pushed during b's segment: after b
            m_in_a = pb == a   # b pushed during a's segment: after a
            m_root_a = pa == -1  # roots are pushed before any segment
            m_root_b = pb == -1
            resolved = m_same | m_in_b | m_in_a | m_root_a | m_root_b
            if resolved.any():
                # same-segment push order is code order (the recorded
                # seqs); the cross cases are mutually exclusive with it
                val = np.where(
                    m_same, seqs[a] < seqs[b],
                    m_in_a | (m_root_a & ~m_in_b),
                )
                out[rows[resolved]] = (
                    acc[resolved] | (gate[resolved] & val[resolved, None])
                )
                keep = ~resolved
                rows = rows[keep]
                a = pa[keep]
                b = pb[keep]
                acc = acc[keep]
                gate = gate[keep]
                if not len(rows):
                    break
            else:
                a = pa
                b = pb
            ta = tmat[a]
            tb = tmat[b]
            acc |= gate & (ta < tb)
            gate &= ta == tb
            alive = gate.any(axis=1)
            if not alive.all():
                out[rows[~alive]] = acc[~alive]
                rows = rows[alive]
                a = a[alive]
                b = b[alive]
                acc = acc[alive]
                gate = gate[alive]
        return out

    def order_divergence(self) -> np.ndarray:
        """Per-size conflict-divergence mask over every drained iteration.

        ``divergent[s]`` is True when some resource was accessed by two
        pops in an order different from the one size ``s``'s own scalar
        run would have used — i.e. the batch dispatch order is *not*
        conflict-equivalent to ``s``'s scalar order, so ``s``'s results
        must be recomputed on the scalar engine.  The pivot (index 0) is
        never divergent: the queues are ordered by it.  Each iteration is
        judged once, when it drains, and its verdict is final, so the
        mask only grows from one iteration to the next.
        """
        return self._divergent.copy()

    def divergence_labels(self, divergent: np.ndarray) -> np.ndarray:
        """Cluster the flagged sizes by inversion signature.

        ``divergent`` is a boolean ``(S,)`` mask (normally the
        :meth:`order_divergence` result, but callers may widen it).
        Returns an int64 ``(S,)`` array: unflagged sizes get ``-1``, and
        two flagged sizes share a label iff exactly the same conflict
        pairs are inverted for them — the same resources serviced in the
        same "wrong" order, hence the same candidate dispatch order when
        re-batched together.
        """
        labels = np.full(self.width, -1, dtype=np.int64)
        cols = np.nonzero(divergent)[0]
        if not len(cols):
            return labels
        rows = self._inverted
        if not rows:
            labels[cols] = 0
            return labels
        sub = np.concatenate(rows)[:, cols]
        active = sub.any(axis=1)
        if not active.any():
            # flagged from outside with no recorded inversion: one cluster
            labels[cols] = 0
            return labels
        sig = np.packbits(sub[active], axis=0)
        _, inverse = np.unique(sig, axis=1, return_inverse=True)
        labels[cols] = inverse.reshape(-1)
        return labels


class BatchEvent:
    """One-shot event with the engine's trigger ordering (vector clock).

    Dispatch positions match :class:`~repro.sim.timeline.TimelineEvent` —
    waiters are appended to the ready deque in registration order at
    trigger time, and a replay task waiting on an already-triggered event
    appends its callback to the ready deque itself — but every resume
    carries the elementwise ``max(reach, trigger)`` of the waiter's
    arrival and the trigger time as its ``now`` override: exactly the time
    each size's own scalar run would resume at, whichever side arrived
    first there.  The pivot component equals the dispatching pop's time,
    so pivot arithmetic is untouched.
    """

    __slots__ = ("_tl", "triggered", "value", "t", "_waiters")

    def __init__(self, tl: BatchTimeline):
        self._tl = tl
        self.triggered = False
        self.value: Any = None
        #: trigger-time vector (valid once triggered)
        self.t: Any = None
        #: (callback, reach-time vector) pairs
        self._waiters: list = []

    def trigger(self, value: Any = None) -> None:
        self.trigger_at(value, self._tl.now)

    def trigger_at(self, value: Any, t: np.ndarray) -> None:
        """Trigger with an explicit fire-time vector ``t``.

        ``t``'s pivot component must equal the current pivot time (the
        caller is the dispatch that logically fires the event); non-pivot
        components may be earlier — e.g. a counter's exact per-size
        crossing time.
        """
        self.triggered = True
        self.value = value
        self.t = t
        waiters = self._waiters
        if waiters:
            ready = self._tl._ready
            for fn, reach in waiters:
                ready.append((fn, value, np.maximum(reach, t)))
            self._waiters = []
