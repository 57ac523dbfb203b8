"""Pinned settings and seeded inputs of the repository benchmark.

Everything a run depends on is fixed here, so two runs of the same code
with the same seed feed the program the same inputs.  The program itself
never sees the seed: it only drives the order in which the cold
workloads submit their figures and columns (rotated from one repetition
to the next), and the request stream of ``serve-mixed``.

This module imports nothing from ``repro``: the driver uses it before it
has checked that the program's sources are present.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple

#: every point runs on this engine, set explicitly (``record.py`` defaults
#: to ``event`` and ``Point`` does too, so relying on defaults would
#: measure the event loop only)
ENGINE = "auto"
#: one process evaluates everything: the runner's serial path, and one
#: resident worker behind the daemon
JOBS = 1
#: the reference engine every result is compared with, bit for bit
REFERENCE_ENGINE = "event"

WORKLOADS = ("figures-small", "columns-dense", "serve-mixed")
COLD_WORKLOADS = ("figures-small", "columns-dense")

# -- figures-small ---------------------------------------------------------

SCALE = "small"
FIGURES = (
    "fig01", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12",
    "fig13", "fig14",
)
#: reduced figure set of ``--tiny`` runs (the benchmark's own tests)
TINY_FIGURES = ("fig06", "fig09")

# -- columns-dense ---------------------------------------------------------

#: (library, collective, nodes, ppn): one column per registry library plus
#: the collective spread on PiP-MColl (the batch-engine columns of
#: ``benchmarks/bench_speed.py``, pinned here so the benchmark does not
#: move when that script does)
COLUMNS = (
    ("PiP-MColl", "scatter", 4, 8),
    ("PiP-MColl", "allgather", 4, 8),
    ("PiP-MColl", "allreduce", 4, 8),
    ("PiP-MPICH", "allgather", 2, 8),
    ("OpenMPI", "allgather", 2, 16),
)
#: eighth-octave axis, 16 B .. 512 KB (121 sizes)
AXIS = tuple(sorted({int(16 * 2 ** (k / 8)) for k in range(121)}))
TINY_COLUMNS = COLUMNS[1:3]
TINY_AXIS = AXIS[::15]

# -- serve-mixed -----------------------------------------------------------

SERVE_LIBRARIES = (
    "PiP-MColl", "PiP-MColl-small", "PiP-MPICH", "IntelMPI", "OpenMPI",
    "MVAPICH2",
)
SERVE_COLLECTIVES = ("scatter", "allgather", "allreduce")
SERVE_SHAPES = ((2, 4), (4, 4), (8, 4))
#: the two size axes of the figures: 16-512 B and 1-512 kB
SERVE_AXES = {
    "small": (16, 32, 64, 128, 256, 512),
    "large": tuple(1024 * (1 << i) for i in range(10)),
}
#: requests per stream; p99 needs at least 1000 so ten samples lie beyond
STREAM_REQUESTS = 1000
TINY_STREAM_REQUESTS = 40
#: closed loop: each connection sends its next request when the previous
#: one is answered
CONNECTIONS = 2
#: the stream runs in this many equal segments, each bracketed by a
#: host-speed reading (calibrate.py), so drift is tracked within a stream
SEGMENTS = 4
#: request mix: ``P_NEW`` of the requests ask for a column not seen yet
#: (at 1000 requests that is every unseen column exactly once, so every
#: stream does the same miss work, in a seeded order), ``P_EXTEND``
#: extend a seen column; the rest repeat a seeded or requested column
P_NEW = 0.054
P_EXTEND = 0.015
#: share of the repeats that ask for a small-axis column, fixed per
#: stream: a hit on the small axis answers in about 0.45 ms, on the large
#: one in about 0.65 ms, so with a drawn share the median latency sat in
#: the gap and jumped with it from stream to stream; at a quarter it sits
#: inside the large mode
P_REPEAT_SMALL = 0.25
#: sizes of the other axis an extension request appends
EXTEND_SIZES = 3
#: per-request daemon deadline; a request that hits it counts as failed
REQUEST_TIMEOUT_S = 60.0

#: fresh-process repetitions (cold) or daemon streams (serve) per run are
#: added while they fit in ``--seconds``; at least this many always run
#: (five columns-dense repetitions rotate through every column position)
MIN_REPS = 5

Column = Tuple[str, str, int, int, str]  # library, collective, nodes, ppn, axis


def rep_seed(seed: int, rep: int) -> int:
    """The request-stream seed of one ``serve-mixed`` stream in a run."""
    return seed * 1009 + rep


def _rotated(items: list, seed: int, rep: int) -> list:
    """``items`` in a seeded order, rotated by ``rep`` places.

    Peak RSS and some timings of a cold run depend on the submission
    order: process-wide caches grow as units run, so a heavy unit peaks
    higher when it runs late (columns-dense ranged from 171 to 197 MB
    over 30 orders).  Rotating one seeded order across the repetitions
    of a run puts every unit at a different position in each, so the
    run's median does not hinge on where one heavy unit landed.
    """
    random.Random(seed).shuffle(items)
    k = rep % len(items)
    return items[k:] + items[:k]


def figure_order(seed: int, rep: int = 0, tiny: bool = False) -> List[str]:
    return _rotated(list(TINY_FIGURES if tiny else FIGURES), seed, rep)


def column_order(seed: int, rep: int = 0,
                 tiny: bool = False) -> List[Tuple[str, str, int, int]]:
    return _rotated(list(TINY_COLUMNS if tiny else COLUMNS), seed, rep)


def dense_axis(tiny: bool = False) -> Tuple[int, ...]:
    return TINY_AXIS if tiny else AXIS


def serve_universe() -> List[Column]:
    """Every column the serve stream may touch, in a fixed order."""
    return [
        (lib, coll, nodes, ppn, axis)
        for lib in SERVE_LIBRARIES
        for coll in SERVE_COLLECTIVES
        for nodes, ppn in SERVE_SHAPES
        for axis in SERVE_AXES
    ]


def seeded_columns() -> List[Column]:
    """The fixed half of the universe written to the store before timing
    (a fixed random half, so libraries, shapes and axes mix on both the
    hit and the miss side; it does not depend on the run's seed)."""
    universe = serve_universe()
    picked = random.Random(0).sample(range(len(universe)), len(universe) // 2)
    return [universe[i] for i in sorted(picked)]


def request_stream(seed: int, n: int) -> List[Dict]:
    """The seeded request list of one serve stream.

    Each request is ``{"kind": "repeat"|"new"|"extend", "column": Column,
    "sizes": [...]}``.  ``repeat`` asks again for a seeded or earlier
    requested column; ``new`` asks for a column not seen yet; ``extend``
    asks for a seen column plus the first sizes of its other axis.  The
    counts of each kind, and of repeats per axis, are fixed; the seed
    fixes which request is which and what each asks for (which
    connection sends it depends on timing).
    """
    rng = random.Random(seed)
    seen = seeded_columns()
    seeded = set(seen)
    unseen = [c for c in serve_universe() if c not in seeded]
    rng.shuffle(unseen)
    new = min(len(unseen), round(n * P_NEW))
    extend = round(n * P_EXTEND)
    repeat = n - new - extend
    small = round(repeat * P_REPEAT_SMALL)
    repeats = ["small"] * small + ["large"] * (repeat - small)
    rng.shuffle(repeats)
    misses = ["new"] * new + ["extend"] * extend
    rng.shuffle(misses)
    # one miss at a seeded place in each of len(misses) equal slots: two
    # misses in flight at once queue on the one worker, and where misses
    # fell at random those collisions set the stream's p99
    bounds = [i * n // len(misses) for i in range(len(misses) + 1)]
    at = {rng.randrange(lo, hi): kind
          for lo, hi, kind in zip(bounds, bounds[1:], misses)}
    kinds = [at[i] if i in at else repeats.pop() for i in range(n)]
    extended = set()
    out: List[Dict] = []
    for kind in kinds:
        if kind == "new":
            col = unseen.pop()
            seen.append(col)
            sizes = list(SERVE_AXES[col[4]])
        elif kind == "extend":
            col = rng.choice([c for c in seen if c not in extended])
            extended.add(col)
            other = "large" if col[4] == "small" else "small"
            sizes = (list(SERVE_AXES[col[4]])
                     + list(SERVE_AXES[other][:EXTEND_SIZES]))
        else:
            col = rng.choice([c for c in seen if c[4] == kind])
            sizes = list(SERVE_AXES[kind])
            kind = "repeat"
        out.append({"kind": kind, "column": col, "sizes": sizes})
    return out
