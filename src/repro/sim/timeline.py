"""A coroutine-free replica of the event engine's scheduling core.

:class:`Timeline` reproduces :class:`repro.sim.engine.Engine`'s execution
order *exactly* — same heap keyed by ``(time, seq)``, same ready deque
drained fully before each heap pop, same FIFO trigger semantics — but
drives plain callbacks instead of generator processes.  The DAG fast-path
evaluator (:mod:`repro.sched.fastpath`) lowers each rank's compiled
schedule into a small state machine whose ``advance`` method is scheduled
through a timeline; because every suspension point of the generator-based
runtime maps to exactly one timeline callback scheduled in the same
relative order, all ``(time, seq)`` tie-breaks resolve identically and the
evaluated completion times are bit-identical to event-loop replay
(``tests/sched/test_fastpath.py`` pins this across the registry grid).

What makes this fast is what it *doesn't* do: no generator frames, no
``Command`` objects allocated per step, no ``Process``/``Event`` dataclass
machinery, no send/throw protocol — just tuples on a heap.
"""

from __future__ import annotations

from collections import deque
from heapq import heappop, heappush
from typing import Any, Callable

__all__ = ["Timeline", "TimelineEvent"]


class Timeline:
    """Minimal deterministic scheduler: heap + ready deque + seq counter.

    Entries are ``(time, seq, fn, value)`` tuples; ``fn(value)`` runs when
    the entry is popped.  Ties at equal ``time`` resolve by ``seq`` —
    scheduling order — exactly like the engine's heap.
    """

    __slots__ = ("now", "_heap", "_ready", "_seq")

    def __init__(self) -> None:
        self.now: float = 0.0
        self._heap: list = []
        self._ready: deque = deque()
        self._seq = 0

    def call(self, time: float, fn: Callable[[Any], None], value: Any = None) -> None:
        """Schedule ``fn(value)`` at absolute simulated ``time``."""
        self._seq += 1
        heappush(self._heap, (time, self._seq, fn, value))

    def run(self) -> float:
        """Dispatch until both queues drain; returns the final time.

        Mirrors ``Engine.run``: the ready deque is drained completely
        before each single heap pop, so callbacks scheduled "now" always
        run before simulated time can advance.
        """
        heap = self._heap
        ready = self._ready
        pop = heappop
        while heap or ready:
            while ready:
                fn, value = ready.popleft()
                fn(value)
            if not heap:
                break
            entry = pop(heap)
            self.now = entry[0]
            entry[2](entry[3])
        return self.now


class TimelineEvent:
    """One-shot event with the engine's trigger ordering.

    Waiters are callbacks (a rank task's ``advance`` method); they are
    appended to the timeline's ready deque in registration order at
    trigger time — byte-for-byte the ordering :class:`~repro.sim.engine.Event`
    gives suspended processes.  The replay tasks wait inline: on an
    already-triggered event they append the callback with the stored value
    to the ready deque (the engine's ready hop), otherwise to
    ``_waiters``.
    """

    __slots__ = ("_tl", "triggered", "value", "_waiters")

    def __init__(self, tl: Timeline):
        self._tl = tl
        self.triggered = False
        self.value: Any = None
        self._waiters: list = []

    def trigger(self, value: Any = None) -> None:
        self.triggered = True
        self.value = value
        waiters = self._waiters
        if waiters:
            ready = self._tl._ready
            for fn in waiters:
                ready.append((fn, value))
            self._waiters = []
