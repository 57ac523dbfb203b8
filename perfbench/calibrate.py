"""Host-speed calibration: rescale wall times to a nominal host speed.

The benchmark runs on a shared virtual machine whose vCPU speed drifts
with load from outside the machine.  With a single process busy, a
fixed pure-Python loop ran 40% slower in some stretches than in others,
and those stretches lasted from seconds to minutes.  That is far wider
than any regression bound, and medians within a run cannot remove it.

So every timed unit of work is bracketed by a short run of
:func:`kernel`, which is the benchmark's own code and shares nothing with
the program.  A unit's reported time is its wall time times
``NOMINAL_S / k``, where ``k`` is the mean of the two kernel readings
around it (:func:`nominal`).  That is the unit's time on a host where the kernel takes
:data:`NOMINAL_S`.  A change that makes the program faster or slower
moves the reported time exactly as it moves the wall time; only the
host's drift divides out.  The kernel is shaped like the simulator's hot
loop (a heap of timed events, dict state, float arithmetic), so the
drift hits both alike.
"""

from __future__ import annotations

import heapq
import time

#: the kernel's time, in seconds, on the host speed times are scaled to
NOMINAL_S = 0.025
#: kernel runs per calibration reading; the reading is the fastest of
#: them, because a run that a neighbour interrupts reads up to 70% slow
#: while the runs around it read normal, and a sustained slowdown slows
#: all of them alike
RUNS = 3


def kernel(events: int = 12000) -> float:
    heap = [(0.0, 0, 0)]
    state = {}
    seq = 1
    for _ in range(events):
        t, _s, key = heapq.heappop(heap)
        state[key] = state.get(key, 0.0) + t * 0.5 + 1e-6
        for j in (1, 2):
            heapq.heappush(
                heap, (t + (key * 7 + j) % 13 * 1e-6, seq, (key * 31 + j) % 997))
            seq += 1
        if len(heap) > 2000:
            heap = heap[:1000]
            heapq.heapify(heap)
    return sum(state.values())


def reading() -> float:
    """The shortest wall time of :data:`RUNS` kernel runs, in seconds."""
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        kernel()
        times.append(time.perf_counter() - start)
    return min(times)


def nominal(wall_s: float, before: float, after: float) -> float:
    """``wall_s``, measured between the readings ``before`` and
    ``after``, at nominal host speed."""
    return wall_s * 2 * NOMINAL_S / (before + after)
