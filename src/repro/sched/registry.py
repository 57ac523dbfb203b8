"""Planner-backed (library, collective) registry for static checking.

Maps the benchmark-facing library/collective names to the planner that the
live wrapper would execute for a given shape and message size — honouring
the same selection logic (:class:`~repro.core.tuning.Thresholds` for
PiP-MColl, MPICH's ``mpich_*`` selectors for the baselines) — and
describes the buffer environment each participant starts with, so
:mod:`repro.sched.check` can verify the schedule without running the
simulator.  :func:`plan_column` runs the same selection once over a whole
message-size column, for the batch engine.

Coverage is the paper's three collectives (scatter, allgather,
allreduce) for all six libraries: PiP-MColl and its forced-small variant;
the flat baselines (PiP-MPICH, Open MPI), which run MPICH's group
algorithms over the world; and the leader-based baselines (MVAPICH2,
Intel MPI), which run the two-level compositions of
:mod:`repro.sched.plans.hierarchical`.  Every plan roots at rank 0, as the
benchmarks do.

Buffer sizes are in *elements*; the microbenchmarks drive every collective
with byte elements, so element counts equal byte counts throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.sched.ir import Schedule
from repro.sched.plans.baseline import (
    mpich_allgather,
    mpich_allreduce,
    mpich_scatter,
    plan_group,
)
from repro.sched.plans.hierarchical import (
    COMPOSE_TAGS,
    SCATTER_TAGS,
    plan_hier_allgather,
    plan_hier_allreduce,
    plan_hier_scatter,
)
from repro.sched.plans.mcoll import (
    plan_allgather_large,
    plan_allgather_small,
    plan_allreduce_large,
    plan_allreduce_small,
    plan_scatter,
)

__all__ = [
    "PlannedCollective",
    "plan_for",
    "plan_column",
    "planner_cache_info",
    "registry_combinations",
    "canonical_name",
    "planner_backed",
    "PLANNER_BACKED",
    "LIBRARIES",
    "COLLECTIVES",
]

COLLECTIVES = ("scatter", "allgather", "allreduce")

#: the planner-backed pairs: canonical library name -> (benchmark-facing
#: library name, collectives with a planner).  Every engine's coverage
#: check and the planners' own argument check read this one table.
PLANNER_BACKED: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "pip-mcoll": ("PiP-MColl", COLLECTIVES),
    "pip-mcoll-small": ("PiP-MColl-small", COLLECTIVES),
    "pip-mpich": ("PiP-MPICH", COLLECTIVES),
    "openmpi": ("OpenMPI", COLLECTIVES),
    "mvapich2": ("MVAPICH2", COLLECTIVES),
    "intelmpi": ("IntelMPI", COLLECTIVES),
}

#: checker-facing library names (canonical, lowercase)
LIBRARIES = tuple(PLANNER_BACKED)

#: the PiP-MColl variants
MCOLL_VARIANTS = ("pip-mcoll", "pip-mcoll-small")
#: the leader-based libraries; the rest run MPICH's flat selection
HIERARCHICAL = ("mvapich2", "intelmpi")


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


def planner_backed(library: str, collective: str) -> bool:
    """Whether the registry plans this (library, collective) pair, under
    any spelling of the library name."""
    entry = PLANNER_BACKED.get(canonical_name(library))
    return entry is not None and collective in entry[1]


def _mcoll_thresholds(library: str, thresholds) -> "Thresholds":
    """The thresholds a PiP-MColl variant selects by: ``thresholds``, or
    the variant's defaults when it is None."""
    from repro.core.tuning import Thresholds

    if thresholds is not None:
        return thresholds
    if library == "pip-mcoll-small":
        return Thresholds.always_small()
    return Thresholds()


def _validate(library: str, collective: str, nodes: int, ppn: int,
              sizes) -> str:
    """Canonical library name, after rejecting what no planner covers."""
    canon = canonical_name(library)
    if canon not in PLANNER_BACKED:
        raise ValueError(
            f"no planner-backed library {library!r}; known: {list(LIBRARIES)}"
        )
    collectives = PLANNER_BACKED[canon][1]
    if collective not in collectives:
        raise ValueError(
            f"no planner-backed {collective!r} for {canon}; "
            f"known: {list(collectives)}"
        )
    if nodes < 1 or ppn < 1 or min(sizes) < 1:
        raise ValueError("nodes, ppn and nbytes must be positive")
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
    """The library's algorithm selection, for one size or a size vector.

    ``cached`` picks the planners' ``lru_cache`` or, for size vectors,
    their uncached bodies.
    """

    def plan(planner, *args) -> Schedule:
        return (planner if cached else planner.__wrapped__)(*args)

    size = nodes * ppn
    world = tuple(range(size))
    # the group tags the schedule binds (symbolic; the checker resolves
    # them to distinct constants)
    tags: Tuple[str, ...] = ()

    if library in MCOLL_VARIANTS:
        thr = _mcoll_thresholds(library, thresholds)
        if collective == "scatter":
            schedule = plan(plan_scatter, nodes, ppn, nbytes, 0, True)
        elif collective == "allgather":
            if nbytes < thr.allgather_large_bytes:
                schedule = plan(plan_allgather_small, nodes, ppn, nbytes)
            else:
                schedule = plan(plan_allgather_large, nodes, ppn, nbytes)
        elif nbytes < thr.allreduce_large_bytes:
            schedule = plan(plan_allreduce_small, nodes, ppn, nbytes)
        else:
            schedule = plan(plan_allreduce_large, nodes, ppn, nbytes)
    elif library in HIERARCHICAL:
        # the leader phase selects on the leader count and the bytes the
        # libraries' wrappers hand MPICH's selectors
        if collective == "scatter":
            leader = mpich_scatter(nodes, ppn * nbytes)
            schedule = plan(plan_hier_scatter, nodes, ppn, nbytes, 0, leader)
            tags = SCATTER_TAGS
        elif collective == "allgather":
            leader = mpich_allgather(nodes, size * nbytes)
            schedule = plan(plan_hier_allgather, nodes, ppn, nbytes, leader)
            tags = COMPOSE_TAGS
        else:
            leader = mpich_allreduce(nodes, nbytes)
            schedule = plan(plan_hier_allreduce, nodes, ppn, nbytes, leader)
            tags = COMPOSE_TAGS
    else:
        # flat: MPICH's group algorithms over the world communicator
        if collective == "scatter":
            schedule = plan(plan_group, mpich_scatter(size, nbytes),
                            world, nbytes, 0)
        elif collective == "allgather":
            schedule = plan(plan_group, mpich_allgather(size, size * nbytes),
                            world, nbytes)
        else:
            schedule = plan(plan_group, mpich_allreduce(size, nbytes),
                            world, nbytes)
        tags = ("tag",)

    if collective == "scatter":
        bindings = tuple(
            {"send": size * nbytes, "recv": nbytes} if rank == 0
            else {"recv": nbytes}
            for rank in world
        )
    elif collective == "allgather":
        bindings = tuple(
            {"send": nbytes, "recv": size * nbytes} for _ in world
        )
    else:  # allreduce
        bindings = tuple({"send": nbytes, "recv": nbytes} for _ in world)
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
        plan_group,
        plan_hier_scatter,
        plan_hier_allgather,
        plan_hier_allreduce,
    )
    return {fn.__name__: fn.cache_info() for fn in planners}


def registry_combinations() -> List[Tuple[str, str]]:
    """Every (library, collective) pair with planner-backed coverage."""
    return [
        (lib, coll)
        for lib, (_, collectives) in PLANNER_BACKED.items()
        for coll in collectives
    ]
