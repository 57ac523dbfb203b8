"""Automatic garbage collection paused for the length of an evaluation.

CPython's cyclic collector runs on allocation counts, and a replay
allocates a tracked tuple per timeline event, so an evaluation left to
it triggers a collection every few hundred events, and each full
collection re-scans every live object of the process.  The fast engines
leave no cycles (:meth:`repro.sched.fastpath.FastWorld.teardown`), so
reference counting frees their state and the collector has nothing to
find; :data:`gc_paused` keeps it from looking, the way :mod:`timeit`
does around its timing loop.  The event engine's cycles wait for the
first collection after the pause.
"""

from __future__ import annotations

import gc
import threading
from contextlib import ContextDecorator

__all__ = ["gc_paused"]


class _Pause(ContextDecorator):
    """Reentrant, thread-safe pause of automatic collection.

    The outermost entry, on any thread, disables the collector and
    remembers whether it was enabled; the matching last exit restores
    that state, also when the body raised.  A nested or overlapping entry
    only counts: while one evaluation runs on a worker thread, another
    thread's entry and exit leave the pause alone.  Usable as ``with
    gc_paused:`` and as a function decorator.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._depth = 0
        self._was_enabled = False

    def __enter__(self) -> None:
        with self._lock:
            if not self._depth:
                self._was_enabled = gc.isenabled()
                gc.disable()
            self._depth += 1

    def __exit__(self, *exc) -> None:
        with self._lock:
            self._depth -= 1
            if not self._depth and self._was_enabled:
                gc.enable()


#: ``with gc_paused:`` (or ``@gc_paused``) runs its body with automatic
#: collection off
gc_paused = _Pause()
