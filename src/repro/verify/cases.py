"""The differential campaign's case space and deterministic sampler.

A campaign of ``N`` points cycles round-robin through :data:`ENTRIES` — the
registry of every verifiable collective surface: the six modelled libraries'
collectives, the flat classical algorithms, the vector collectives, and
every registry schedule (each library's seven microbenchmark collectives,
empty messages included) replayed directly through
:func:`~repro.baselines.base.replay`.  Each visit *rotates*
dtype, intranode mechanism, eager/rendezvous regime, and threshold variant
(guaranteed coverage), and draws shape, counts, reduction op, root, and
subgroup from an rng seeded by ``(seed, point)`` (randomized breadth).

Everything about point ``K`` derives from ``(seed, K)``, so a failed
campaign point is reproduced exactly by
``python -m repro.verify --seed S --point K``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.mpi.datatypes import BYTE, DOUBLE, FLOAT32, INT32, INT64
from repro.mpi.datatypes import MAX, MIN, PROD, SUM
from repro.sched.registry import registry_combinations
from repro.shmem.mechanisms import (
    HybridMechanism,
    KernelCopy,
    PipShmem,
    PosixShmem,
    Xpmem,
)

__all__ = ["Entry", "Case", "ENTRIES", "build_case", "DTYPES", "MECHANISMS"]


@dataclass(frozen=True)
class Entry:
    """One verifiable collective surface."""

    #: "library" | "flat" | "vector" | "schedule"
    kind: str
    #: canonical collective name (coverage is tracked per this name)
    collective: str
    #: library name, flat algorithm name, or "library:collective" combo
    algo: str
    #: group sizes restricted to powers of two (algorithm requirement)
    pow2_group: bool = False


_LIBRARY_COLLECTIVES = (
    "scatter", "allgather", "allreduce", "alltoall",
    "bcast", "gather", "reduce", "barrier",
)
_LIBRARIES = (
    "PiP-MColl", "PiP-MColl-small", "PiP-MPICH",
    "OpenMPI", "MVAPICH2", "IntelMPI",
)

#: flat algorithm -> canonical collective name
_FLAT_ALGORITHMS = {
    "allgather_bruck": "allgather",
    "allgather_recursive_doubling": "allgather",
    "allgather_ring": "allgather",
    "allreduce_recursive_doubling": "allreduce",
    "allreduce_rabenseifner": "allreduce",
    "alltoall_bruck": "alltoall",
    "alltoall_pairwise": "alltoall",
    "bcast_binomial": "bcast",
    "gather_binomial": "gather",
    "reduce_binomial": "reduce",
    "reduce_scatter_halving": "reduce_scatter",
    "reduce_scatter_pairwise": "reduce_scatter",
    "scatter_binomial": "scatter",
    "barrier_dissemination": "barrier",
}
_POW2_ONLY = {"allgather_recursive_doubling", "reduce_scatter_halving"}

_VECTOR = ("scatterv", "gatherv", "allgatherv")

#: the schedule surfaces of the first planner registry, in their original
#: order; pairs the registry gained later are appended after every
#: existing entry, so no entry's index (and rotation phase) moves
_PAPER_COLLECTIVES = ("scatter", "allgather", "allreduce")
_FIRST_SCHEDULE_PAIRS = (
    ("pip-mcoll", "scatter"),
    ("pip-mcoll", "allgather"),
    ("pip-mcoll", "allreduce"),
    ("pip-mcoll-small", "scatter"),
    ("pip-mcoll-small", "allgather"),
    ("pip-mcoll-small", "allreduce"),
    ("pip-mpich", "allgather"),
    ("openmpi", "allgather"),
)


def _build_entries() -> Tuple[Entry, ...]:
    entries = [
        Entry("library", coll, lib)
        for lib in _LIBRARIES
        for coll in _LIBRARY_COLLECTIVES
    ]
    entries += [
        Entry("flat", coll, algo, pow2_group=algo in _POW2_ONLY)
        for algo, coll in _FLAT_ALGORITHMS.items()
    ]
    entries += [Entry("vector", v, v) for v in _VECTOR]
    # the registry covered the paper's three collectives before the
    # extensions, so their pairs come first
    pairs = registry_combinations()
    later = [
        pair for pair in (
            [p for p in pairs if p[1] in _PAPER_COLLECTIVES]
            + [p for p in pairs if p[1] not in _PAPER_COLLECTIVES]
        )
        if pair not in _FIRST_SCHEDULE_PAIRS
    ]
    entries += [
        Entry("schedule", coll, f"{lib}:{coll}")
        for lib, coll in _FIRST_SCHEDULE_PAIRS + tuple(later)
    ]
    return tuple(entries)


#: the fixed, ordered case-space registry (order feeds the rotations —
#: append only)
ENTRIES: Tuple[Entry, ...] = _build_entries()

DTYPES = (BYTE, INT32, INT64, FLOAT32, DOUBLE)
OPS = (SUM, PROD, MAX, MIN)

#: intranode mechanism factories for flat/vector cases (library cases use
#: the library's own mechanism)
MECHANISMS = {
    "posix-shmem": PosixShmem,
    "pip": PipShmem,
    "kernel-copy": KernelCopy,
    "xpmem": Xpmem,
    "hybrid": lambda: HybridMechanism(PosixShmem(), KernelCopy(), 4096),
}
_MECH_NAMES = tuple(MECHANISMS)

#: (nodes, ppn) pool; 16 simulated ranks max keeps a 200-point campaign
#: comfortably inside a CI minute
_SHAPES = (
    (1, 2), (2, 1), (2, 2), (1, 4), (4, 1), (3, 2),
    (2, 3), (4, 2), (2, 4), (3, 3), (4, 4), (1, 1),
)

#: element counts: zero, ones, primes/non-divisible, block sizes
_COUNTS = (0, 1, 2, 3, 5, 8, 13, 17, 32, 96, 256, 1000)

#: eager-threshold regimes: machine default (64 kB: everything eager at
#: these counts) and a 64-byte override that forces most internode traffic
#: through the rendezvous path
_EAGER_REGIMES = (None, None, 64)

#: PiP-MColl threshold variants (algorithm switch coverage independent of
#: message size)
_THRESHOLD_VARIANTS = ("default", "small", "large")


@dataclass(frozen=True)
class Case:
    """One fully-determined campaign point."""

    index: int
    entry: Entry
    nodes: int
    ppn: int
    count: int
    dtype_name: str
    op_name: str
    mechanism: str
    #: group indices are used for roots; this is the root's group index
    root_index: int
    #: None = machine default
    eager_threshold: Optional[int]
    #: "default" | "small" | "large" (PiP-MColl surfaces only)
    thresholds: str
    #: participant global ranks, in group order (library/schedule cases
    #: always span the whole world)
    group_ranks: Tuple[int, ...]
    #: per-rank element counts (vector collectives only)
    counts: Optional[Tuple[int, ...]] = None
    #: per-rank element displacements (vector collectives only)
    displs: Optional[Tuple[int, ...]] = None

    @property
    def world_size(self) -> int:
        return self.nodes * self.ppn

    def describe(self) -> str:
        bits = [
            f"{self.entry.kind}:{self.entry.algo}",
            f"{self.nodes}x{self.ppn}",
            f"count={self.count}" if self.counts is None
            else f"counts={list(self.counts)}",
            self.dtype_name,
            f"op={self.op_name}",
            f"mech={self.mechanism}",
            f"root={self.root_index}",
        ]
        if self.eager_threshold is not None:
            bits.append(f"eager<={self.eager_threshold}B")
        if self.thresholds != "default":
            bits.append(f"thresholds={self.thresholds}")
        if len(self.group_ranks) != self.world_size:
            bits.append(f"group={list(self.group_ranks)}")
        return " ".join(bits)


def _pow2_floor(n: int) -> int:
    p = 1
    while p * 2 <= n:
        p *= 2
    return p


def build_case(seed: int, index: int) -> Case:
    """The fully-determined parameters of campaign point ``index``."""
    entry = ENTRIES[index % len(ENTRIES)]
    occ = index // len(ENTRIES)          # how often this entry came up
    ei = index % len(ENTRIES)            # rotation phase offset per entry
    rng = np.random.default_rng((seed, index))

    dtype = DTYPES[(occ + ei) % len(DTYPES)]
    mechanism = _MECH_NAMES[(occ + 2 * ei) % len(_MECH_NAMES)]
    eager = _EAGER_REGIMES[(occ + ei) % len(_EAGER_REGIMES)]
    thresholds = _THRESHOLD_VARIANTS[(occ + ei) % len(_THRESHOLD_VARIANTS)]
    op = OPS[int(rng.integers(len(OPS)))]

    nodes, ppn = _SHAPES[int(rng.integers(len(_SHAPES)))]
    world_size = nodes * ppn
    world = tuple(range(world_size))

    count = int(_COUNTS[int(rng.integers(len(_COUNTS)))])

    group_ranks = world
    if entry.kind in ("flat", "vector"):
        gsize = world_size
        if rng.random() < 0.5 and world_size > 1:
            gsize = int(rng.integers(1, world_size + 1))
        if entry.pow2_group:
            gsize = _pow2_floor(gsize)
        members = rng.permutation(world_size)[:gsize]
        group_ranks = tuple(int(r) for r in members)

    counts = displs = None
    if entry.kind == "vector":
        per_rank = rng.integers(0, 13, size=len(group_ranks))
        # force zero-count members in about half the layouts
        if rng.random() < 0.5 and len(group_ranks) > 1:
            zero_at = rng.integers(0, len(group_ranks), size=1 + len(group_ranks) // 3)
            per_rank[zero_at] = 0
        counts = tuple(int(c) for c in per_rank)
        gaps = rng.integers(0, 3, size=len(group_ranks))  # gapped layouts
        d, acc = [], 0
        for c, g in zip(counts, gaps):
            acc += int(g)
            d.append(acc)
            acc += c
        displs = tuple(d)

    root_index = int(rng.integers(len(group_ranks)))

    return Case(
        index=index,
        entry=entry,
        nodes=nodes,
        ppn=ppn,
        count=count,
        dtype_name=dtype.name,
        op_name=op.name,
        mechanism=mechanism,
        root_index=root_index,
        eager_threshold=eager,
        thresholds=thresholds,
        group_ranks=group_ranks,
        counts=counts,
        displs=displs,
    )
