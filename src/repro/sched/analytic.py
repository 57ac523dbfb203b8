"""The ``engine="analytic"`` tier: closed-form column evaluation.

The approximate engine.  Where ``auto``'s DAG and batch replays run the
compiled schedule exactly (bit-identical to the event loop), the analytic
engine never executes a schedule at all: it lowers the registry's
algorithm selection to the refined closed-form LogGP/Hockney cost
expressions in :mod:`repro.models.formulas` and evaluates the whole
message-size axis as one vectorized numpy expression — O(1) work per
size, no simulation state.

Accuracy contract
-----------------
The analytic tier is **approximate by design**.  It carries no
bit-identity claim; instead it carries a measured error bound against the
exact engines: :data:`ERROR_BOUND` (relative error on per-iteration time,
currently 50%) across the registry grid.  ``python -m
repro.models.calibrate`` measures the actual error and persists it to
``results/analytic_error.json``; ``tests/sched/test_analytic.py`` asserts
the measured maximum stays below the documented bound.  Use the analytic
engine to scan large parameter spaces cheaply and the exact engines to
confirm anything that matters.

Message counts are *logical*: the static per-iteration internode message
count of the compiled schedule (:func:`static_internode_messages`, which
counts its off-node sends without running the static checker) times the
iteration count.  Rendezvous control traffic (RTS/CTS) is not
modelled, so counts can undercount the exact engines' totals for
above-threshold messages.

Coverage is :data:`ANALYTIC_PAIRS`, the eight pairs with a closed form:
the PiP-MColl variants' three collectives and the flat baselines'
allgather.  It is a subset of the registry surface
(:func:`repro.sched.registry.registry_combinations`) the DAG and batch
engines cover; :func:`analytic_supported` reports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.core.tuning import Thresholds
from repro.hw.params import MachineParams, bebop_broadwell
from repro.models.formulas import (
    MPICH_RING_TOTAL_BYTES,
    AnalyticParams,
    allgather_refined,
    allreduce_large_refined,
    allreduce_small_refined,
    flat_allgather_refined,
    scatter_refined,
)
from repro.sched.ir import SendStep
from repro.sched.registry import PlannedCollective, canonical_name

__all__ = [
    "ANALYTIC_PAIRS",
    "ERROR_BOUND",
    "AnalyticEstimate",
    "AnalyticColumn",
    "analytic_supported",
    "evaluate_axis",
    "evaluate_point",
    "static_internode_messages",
]

#: documented maximum relative error of the analytic tier vs the exact
#: engines on per-iteration times, across the registry grid (see module
#: docstring; measured headroom lives in results/analytic_error.json)
ERROR_BOUND = 0.5

#: the (canonical library, collective) pairs with a closed-form lowering
ANALYTIC_PAIRS: Tuple[Tuple[str, str], ...] = (
    ("pip-mcoll", "scatter"),
    ("pip-mcoll", "allgather"),
    ("pip-mcoll", "allreduce"),
    ("pip-mcoll-small", "scatter"),
    ("pip-mcoll-small", "allgather"),
    ("pip-mcoll-small", "allreduce"),
    ("pip-mpich", "allgather"),
    ("openmpi", "allgather"),
)


def analytic_supported(library: str, collective: str) -> bool:
    """Whether a pair has a closed-form lowering, under any spelling of
    the library name."""
    return (canonical_name(library), collective) in ANALYTIC_PAIRS


@dataclass(frozen=True)
class AnalyticEstimate:
    """One point's closed-form estimate (plain primitives, like
    ``MicrobenchResult`` — crosses process boundaries)."""

    msg_bytes: int
    #: estimated seconds per iteration (identical every iteration: the
    #: closed forms model the steady state; warm-up is already absorbed)
    time: float
    #: ``measure`` copies of :attr:`time`
    samples: Tuple[float, ...]
    #: logical internode messages over all iterations (static schedule
    #: count x (warmup + measure); excludes rendezvous control traffic)
    internode_messages: int


@dataclass(frozen=True)
class AnalyticColumn:
    """A whole size axis evaluated in one vectorized pass."""

    library: str
    collective: str
    nodes: int
    ppn: int
    results: Dict[int, AnalyticEstimate]


@lru_cache(maxsize=None)
def _analytic_params(params: MachineParams) -> AnalyticParams:
    return AnalyticParams.from_machine(params)


def static_internode_messages(piece: PlannedCollective, ppn: int) -> int:
    """Internode messages per iteration of one planned schedule: its sends
    to a rank on another node than the sender's.

    Equal to :func:`repro.sched.check.check_planned`'s
    ``internode_messages`` for every schedule the checker accepts (each
    send is matched, so each counts once), without its per-rank replay of
    buffers, matching and deadlock detection.
    """
    return sum(
        1
        for rank, program in zip(piece.ranks, piece.schedule.programs)
        for step in program.steps
        if step.__class__ is SendStep and step.dst // ppn != rank // ppn
    )


@lru_cache(maxsize=None)
def _static_messages(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    rep_size: int,
    thresholds: Optional[Thresholds],
) -> int:
    """Static per-iteration internode message count of the compiled
    schedule, one count per algorithm regime (the count depends on the
    selected algorithm, not on the byte size within a regime)."""
    from repro.sched.registry import plan_for

    piece = plan_for(
        library, collective, nodes, ppn, rep_size, thresholds=thresholds
    )
    return static_internode_messages(piece, ppn)


def _regime_ids(
    collective: str,
    nodes: int,
    ppn: int,
    sizes: np.ndarray,
    thr: Optional[Thresholds],
) -> np.ndarray:
    """Algorithm-regime id per size, mirroring ``plan_for``'s selection
    (``thr`` is a PiP-MColl variant's thresholds, None for the flat
    baselines)."""
    if thr is not None:
        if collective == "allgather":
            return (sizes >= thr.allgather_large_bytes).astype(int)
        if collective == "allreduce":
            return (sizes >= thr.allreduce_large_bytes).astype(int)
        return np.zeros(len(sizes), dtype=int)
    total = nodes * ppn * sizes
    ring = total >= MPICH_RING_TOTAL_BYTES
    return ring.astype(int)


def evaluate_axis(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    sizes: Sequence[int],
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    thresholds: Optional[Thresholds] = None,
) -> AnalyticColumn:
    """Closed-form estimates for a whole message-size axis.

    One vectorized numpy pass over ``sizes``; algorithm selection mirrors
    :func:`repro.sched.registry.plan_for` exactly (thresholded PiP-MColl
    variants, MPICH total-size/power-of-two switching for the flat
    baselines).  See the module docstring for the accuracy contract.
    """
    library = canonical_name(library)
    if not analytic_supported(library, collective):
        raise ValueError(
            f"no closed-form lowering for {library!r}/{collective!r}"
        )
    from repro.sched.fastpath import canonical_library, check_protocol

    # the replay engines' front check: a library that does not select by
    # size refuses a thresholds override instead of ignoring it
    _, lib = canonical_library(library, thresholds)
    # the PiP-MColl variants select by thresholds: the override, or the
    # variant's own
    thr = thresholds if thresholds is not None else getattr(
        lib, "thresholds", None)
    check_protocol(warmup, measure, sizes)
    if not sizes:
        raise ValueError("empty size axis")
    if any(s < 1 for s in sizes):
        raise ValueError("message sizes must be positive")
    machine = params or bebop_broadwell()
    machine.validate()
    ap = _analytic_params(machine)
    cb = np.asarray(list(sizes), dtype=float)

    if thr is not None:
        if collective == "scatter":
            times = scatter_refined(ap, cb, nodes, ppn)
        elif collective == "allgather":
            times = allgather_refined(ap, cb, nodes, ppn)
        else:
            small = allreduce_small_refined(ap, cb, nodes, ppn)
            large = allreduce_large_refined(ap, cb, nodes, ppn)
            times = np.where(cb < thr.allreduce_large_bytes, small, large)
    else:
        times = flat_allgather_refined(ap, cb, nodes, ppn)
    times = np.atleast_1d(np.asarray(times, dtype=float))

    # logical message counts: one static count per algorithm regime,
    # broadcast across the sizes that share it
    regimes = _regime_ids(
        collective, nodes, ppn, np.asarray(list(sizes)), thr
    )
    iters = warmup + measure
    counts = np.empty(len(cb), dtype=int)
    for rid in np.unique(regimes):
        mask = regimes == rid
        rep = int(np.asarray(list(sizes))[mask][0])
        counts[mask] = _static_messages(
            library, collective, nodes, ppn, rep, thresholds
        ) * iters

    results: Dict[int, AnalyticEstimate] = {}
    for i, s in enumerate(sizes):
        t = float(times[i])
        results[int(s)] = AnalyticEstimate(
            msg_bytes=int(s),
            time=t,
            samples=(t,) * measure,
            internode_messages=int(counts[i]),
        )
    return AnalyticColumn(
        library=library,
        collective=collective,
        nodes=nodes,
        ppn=ppn,
        results=results,
    )


def evaluate_point(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    msg_bytes: int,
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    thresholds: Optional[Thresholds] = None,
) -> AnalyticEstimate:
    """Scalar convenience wrapper around :func:`evaluate_axis`."""
    col = evaluate_axis(
        library, collective, nodes, ppn, [msg_bytes],
        params=params, warmup=warmup, measure=measure,
        thresholds=thresholds,
    )
    return col.results[int(msg_bytes)]
