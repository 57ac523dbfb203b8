"""The schedule registry: every (library, collective) pair, planned.

Maps the benchmark-facing library/collective names to the schedule the
library would execute for a given shape and message size — by asking the
library itself (:meth:`repro.baselines.base.MpiLibrary.select`, the one
selection its event-loop methods also read) — and describes the buffer
environment each participant starts with (the element counts of
:func:`repro.baselines.base.buffer_counts`, which the libraries'
collective methods check), so :mod:`repro.sched.check` can verify the
schedule without running the simulator and the DAG and batch replays
can evaluate it.  :func:`plan_column` runs the same
selection once over a whole message-size column, for the batch engine.

Coverage is every microbenchmark collective (scatter, allgather,
allreduce, alltoall, bcast, gather, reduce) of all six libraries, at
every size, 0 B included: PiP-MColl and its forced-small variant; the
flat baselines (PiP-MPICH, Open MPI), which run MPICH's group algorithms
over the world; and the leader-based baselines (MVAPICH2, Intel MPI),
which run the two-level compositions of
:mod:`repro.sched.plans.hierarchical`.  Every plan roots at rank 0, as
the benchmarks do.

Buffer sizes are in *elements*; the microbenchmarks drive every collective
with byte elements, so element counts equal byte counts throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.baselines.base import buffer_counts
from repro.sched.ir import Schedule
from repro.sched.plans import (
    plan_allgather_large,
    plan_allgather_small,
    plan_allreduce_large,
    plan_allreduce_small,
    plan_alltoall,
    plan_bcast,
    plan_gather,
    plan_group,
    plan_hier_allgather,
    plan_hier_allreduce,
    plan_hier_bcast,
    plan_hier_reduce,
    plan_hier_scatter,
    plan_reduce_large,
    plan_reduce_small,
    plan_scatter,
)

__all__ = [
    "PlannedCollective",
    "plan_for",
    "plan_column",
    "planner_cache_info",
    "registry_combinations",
    "canonical_name",
    "PLANNER_BACKED",
    "LIBRARIES",
    "COLLECTIVES",
]

#: the microbenchmark collectives: the paper's three, then the extensions
COLLECTIVES = (
    "scatter", "allgather", "allreduce", "alltoall", "bcast", "gather",
    "reduce",
)

#: canonical library name -> benchmark-facing library name; the registry
#: plans every one of :data:`COLLECTIVES` for each
PLANNER_BACKED: Dict[str, str] = {
    "pip-mcoll": "PiP-MColl",
    "pip-mcoll-small": "PiP-MColl-small",
    "pip-mpich": "PiP-MPICH",
    "openmpi": "OpenMPI",
    "mvapich2": "MVAPICH2",
    "intelmpi": "IntelMPI",
}

#: checker-facing library names (canonical, lowercase)
LIBRARIES = tuple(PLANNER_BACKED)


@dataclass(frozen=True)
class PlannedCollective:
    """One checkable schedule plus its execution environment.

    ``ranks[i]`` is the global rank running ``schedule.programs[i]``;
    ``bindings[i]`` maps that participant's input buffer names to element
    counts; ``symbols`` resolves the schedule's ``Sym`` markers (shared by
    all participants, as at execution time).
    """

    label: str
    schedule: Schedule
    ranks: Tuple[int, ...]
    bindings: Tuple[Dict[str, int], ...]
    symbols: dict = field(default_factory=dict)


def canonical_name(library: str) -> str:
    """The registry spelling of a library name (``"PiP_MColl"`` ->
    ``"pip-mcoll"``)."""
    return library.lower().replace("_", "-").replace(" ", "-")


def _validate(library: str, collective: str, nodes: int, ppn: int,
              sizes) -> str:
    """Canonical library name, after rejecting what no planner covers."""
    canon = canonical_name(library)
    if canon not in PLANNER_BACKED:
        raise ValueError(
            f"no planner-backed library {library!r}; known: {list(LIBRARIES)}"
        )
    if collective not in COLLECTIVES:
        raise ValueError(
            f"no planner-backed {collective!r}; known: {list(COLLECTIVES)}"
        )
    if nodes < 1 or ppn < 1 or min(sizes) < 0:
        raise ValueError(
            "nodes and ppn must be positive and nbytes non-negative"
        )
    return canon


def plan_for(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    nbytes: int,
    thresholds: Optional["Thresholds"] = None,
) -> PlannedCollective:
    """The schedule the named library would execute for this point.

    ``nbytes`` is the per-process message size in bytes (byte elements),
    matching the microbenchmark convention.
    """
    library = _validate(library, collective, nodes, ppn, (nbytes,))
    return _select(library, collective, nodes, ppn, nbytes, thresholds,
                   cached=True)


def plan_column(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    sizes: Sequence[int],
    thresholds: Optional["Thresholds"] = None,
) -> List[Tuple[Tuple[int, ...], PlannedCollective]]:
    """Plan a whole message-size column once per schedule structure.

    Runs :func:`plan_for`'s selection and planners once over a
    :class:`~repro.sim.batchline.SizeVec` of ``sizes``, so every count,
    offset and binding in the returned schedules is a plain int where it
    does not depend on the size and a ``SizeVec`` over the piece's sizes
    where it does.  A planner branch that goes different ways at
    different sizes raises :class:`~repro.sim.batchline.BatchDivergence`;
    the column splits at its mask and both halves are planned again.
    Returns ``[(sizes, planned)]`` pieces, each of uniform structure.
    Single-size pieces plan through the cached :func:`plan_for` with a
    plain int; vector plans bypass the planners' ``lru_cache`` (a
    ``SizeVec`` is unhashable) and are never cached.
    """
    from repro.sim.batchline import BatchDivergence, SizeVec

    library = _validate(library, collective, nodes, ppn, sizes)
    pieces: List[Tuple[Tuple[int, ...], PlannedCollective]] = []
    stack = [tuple(sizes)]
    while stack:
        part = stack.pop()
        if len(part) == 1:
            planned = plan_for(library, collective, nodes, ppn, part[0],
                               thresholds=thresholds)
        else:
            try:
                planned = _select(library, collective, nodes, ppn,
                                  SizeVec(part), thresholds, cached=False)
            except BatchDivergence as d:
                stack.append(tuple(s for s, m in zip(part, d.mask) if not m))
                stack.append(tuple(s for s, m in zip(part, d.mask) if m))
                continue
        pieces.append((part, planned))
    return pieces


def _select(library: str, collective: str, nodes: int, ppn: int, nbytes,
            thresholds, cached: bool) -> PlannedCollective:
    """The library's own selection, for one size or a size vector.

    ``cached`` picks the planners' ``lru_cache`` or, for size vectors,
    their uncached bodies.
    """
    from repro.baselines.registry import make_library

    lib = make_library(PLANNER_BACKED[library])
    if thresholds is not None:
        lib.thresholds = thresholds
    planner, args, tags = lib.select(collective, nodes, ppn, nbytes, nbytes)
    schedule = (planner if cached else planner.__wrapped__)(*args)

    size = nodes * ppn
    # the root's (rank 0's) input buffers and everyone else's, in elements
    root, other = buffer_counts(collective, size, nbytes)
    world = tuple(range(size))
    bindings = tuple(dict(root if rank == 0 else other) for rank in world)
    return PlannedCollective(
        label=f"{library} {collective} {nodes}x{ppn} {nbytes}B "
              f"[{schedule.label}]",
        schedule=schedule,
        ranks=world,
        bindings=bindings,
        symbols={name: ("check-tag", name) for name in tags},
    )


def planner_cache_info() -> Dict[str, "object"]:
    """``lru_cache`` counters of every registered planner, by name.

    Each value is the planner's ``functools.CacheInfo`` (hits, misses,
    maxsize, currsize).  Sweeps hit the same (shape, size) plan once per
    point per process; anything beyond one miss per distinct signature
    means re-planning, which ``tests/sched/test_fastpath.py`` guards
    against.  Column planning (:func:`plan_column`) bypasses these
    caches, so batch columns leave them untouched.  Lowerings are not
    cached; :func:`repro.sched.fastpath.lowering_cache_info` counts them.
    """
    planners = (
        plan_scatter,
        plan_allgather_small,
        plan_allgather_large,
        plan_allreduce_small,
        plan_allreduce_large,
        plan_alltoall,
        plan_bcast,
        plan_gather,
        plan_reduce_small,
        plan_reduce_large,
        plan_group,
        plan_hier_scatter,
        plan_hier_allgather,
        plan_hier_allreduce,
        plan_hier_bcast,
        plan_hier_reduce,
    )
    return {fn.__name__: fn.cache_info() for fn in planners}


def registry_combinations() -> List[Tuple[str, str]]:
    """Every (library, collective) pair the registry plans."""
    return [(lib, coll) for lib in PLANNER_BACKED for coll in COLLECTIVES]
