"""The microbenchmark protocol of §IV-A, adapted to a deterministic world.

The paper runs a warm-up stage and an execution stage with equal iteration
counts (10 000 / 1 000 / 100 / 10 by size class) and averages, because
hardware runs are noisy.  The simulator is deterministic, so one warm-up
iteration (which absorbs page-fault/attach warm-up exactly like the paper's
warm-up stage does) and a couple of measured iterations give the same
answer the full protocol would; :func:`paper_iterations` documents the
original counts and is exercised by the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.baselines.base import MpiLibrary
from repro.baselines.registry import make_library
from repro.core.tuning import Thresholds
from repro.hw.params import MachineParams, bebop_broadwell
from repro.hw.topology import Topology
from repro.mpi.buffer import Buffer
from repro.mpi.datatypes import SUM
from repro.mpi.runtime import RankCtx, World
from repro.sched.fastpath import check_protocol
from repro.sched.fastpath import evaluate_point as _dag_evaluate_point
from repro.sched.registry import planner_backed
from repro.sim.engine import ProcGen
from repro.sim.trace import Tracer
from repro.util.gcpause import gc_paused
from repro.util.units import KB

__all__ = [
    "paper_iterations", "MicrobenchResult", "run_point", "COLLECTIVES",
    "ENGINES", "resolve_engine",
]

#: the paper's three primary collectives first, then the extensions
COLLECTIVES = (
    "scatter", "allgather", "allreduce", "alltoall", "bcast", "gather",
    "reduce",
)

#: how a point is evaluated: the coroutine event loop (authoritative),
#: ``auto`` (one of the two exact replays wherever they apply — every
#: figure point but fig01's p2p worlds — and the event loop otherwise:
#: the DAG replay of :mod:`repro.sched.fastpath` for a point, the batch
#: engine of :mod:`repro.sched.batch` for a sweep's multi-size column;
#: both bit-identical to the event loop), or the analytic tier
#: (closed-form estimates — approximate, error-bounded, never picked by
#: ``auto``; see :mod:`repro.sched.analytic`)
ENGINES = ("event", "auto", "analytic")


def resolve_engine(
    engine: str, library: str, collective: str, tracing: bool = False,
    msg_bytes: int = 1,
) -> str:
    """Resolve ``auto`` to the engine that will actually run.

    ``auto`` picks the DAG fast path exactly when the (library,
    collective) pair is planner-backed, the message is at least one byte
    (the planners refuse empty messages; the event loop answers them) and
    no tracer is attached (phantom data is implied: :func:`run_point`
    worlds are always phantom).  For a *single* point the result is
    always ``"event"`` or ``"dag"``; the sweep runner upgrades ``auto``
    columns to the batch engine itself, where the whole size axis is in
    hand (see :mod:`repro.bench.runner.pool`).
    """
    if engine not in ENGINES:
        raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
    if engine == "auto":
        if (not tracing and msg_bytes >= 1
                and planner_backed(library, collective)):
            return "dag"
        return "event"
    return engine


def paper_iterations(nbytes: int) -> int:
    """Iteration counts of §IV-A, by message-size class."""
    if nbytes < 0:
        raise ValueError(f"negative message size: {nbytes}")
    if nbytes <= 1 * KB:
        return 10_000
    if nbytes <= 8 * KB:
        return 1_000
    if nbytes < 128 * KB:
        return 100
    return 10


@dataclass(frozen=True)
class MicrobenchResult:
    """One measured point.

    Crosses process boundaries (pool workers return it) and round-trips
    through the JSON result cache, so it must stay a plain frozen
    dataclass of primitives — no references to ``World`` or ``Engine``.
    ``tests/bench/test_runner.py`` pins the pickle round-trip.
    """

    library: str
    collective: str
    nodes: int
    ppn: int
    msg_bytes: int
    #: mean simulated seconds per iteration over the execution stage
    time: float
    #: per-iteration simulated times (warm-up excluded)
    samples: Tuple[float, ...]
    #: internode messages summed over every warm-up and measured
    #: iteration (diagnostics)
    internode_messages: int


def _make_body(
    lib: MpiLibrary, world: World, collective: str, nbytes: int
) -> Callable[[RankCtx], ProcGen]:
    size = world.world_size
    if collective == "scatter":
        sendbuf = Buffer.phantom(nbytes * size)
        recvs = [Buffer.phantom(nbytes) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            sb = sendbuf if ctx.rank == 0 else None
            yield from lib.scatter(ctx, sb, recvs[ctx.rank], root=0)

    elif collective == "allgather":
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvs = [Buffer.phantom(nbytes * size) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            yield from lib.allgather(ctx, sends[ctx.rank], recvs[ctx.rank])

    elif collective == "allreduce":
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvs = [Buffer.phantom(nbytes) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            yield from lib.allreduce(ctx, sends[ctx.rank], recvs[ctx.rank], SUM)

    elif collective == "alltoall":
        sends = [Buffer.phantom(nbytes * size) for _ in range(size)]
        recvs = [Buffer.phantom(nbytes * size) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            yield from lib.alltoall(ctx, sends[ctx.rank], recvs[ctx.rank])

    elif collective == "bcast":
        bufs = [Buffer.phantom(nbytes) for _ in range(size)]

        def body(ctx: RankCtx) -> ProcGen:
            yield from lib.bcast(ctx, bufs[ctx.rank], root=0)

    elif collective == "gather":
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvbuf = Buffer.phantom(nbytes * size)

        def body(ctx: RankCtx) -> ProcGen:
            rb = recvbuf if ctx.rank == 0 else None
            yield from lib.gather(ctx, sends[ctx.rank], rb, root=0)

    elif collective == "reduce":
        sends = [Buffer.phantom(nbytes) for _ in range(size)]
        recvbuf = Buffer.phantom(nbytes)

        def body(ctx: RankCtx) -> ProcGen:
            rb = recvbuf if ctx.rank == 0 else None
            yield from lib.reduce(ctx, sends[ctx.rank], rb, SUM, root=0)

    else:
        raise ValueError(
            f"unknown collective {collective!r}; known: {COLLECTIVES}"
        )
    return body


#: what an evaluator returns per size: (mean simulated seconds per
#: iteration, per-iteration samples, internode messages)
Timing = Tuple[float, Tuple[float, ...], int]


def _timing(fast) -> Timing:
    """A replay engine's result as :data:`Timing` (mean of the samples)."""
    return (
        sum(fast.samples) / len(fast.samples), fast.samples,
        fast.internode_messages,
    )


def _eval_dag(library, collective, nodes, ppn, sizes,
              **kw) -> Dict[int, Timing]:
    # _dag_evaluate_point is looked up here, at call time, so a wrapper
    # installed on this module's binding sees every DAG evaluation
    return {
        size: _timing(
            _dag_evaluate_point(library, collective, nodes, ppn, size, **kw)
        )
        for size in sizes
    }


def _eval_batch(library, collective, nodes, ppn, sizes,
                **kw) -> Dict[int, Timing]:
    from repro.sched.batch import evaluate_column

    col = evaluate_column(library, collective, nodes, ppn, sizes, **kw)
    return {size: _timing(fast) for size, fast in col.results.items()}


def _eval_analytic(library, collective, nodes, ppn, sizes,
                   **kw) -> Dict[int, Timing]:
    from repro.sched.analytic import evaluate_axis

    col = evaluate_axis(library, collective, nodes, ppn, sizes, **kw)
    # the closed-form time, not the mean of its ``measure`` copies (the
    # two differ in the last bit for some counts)
    return {
        size: (est.time, est.samples, est.internode_messages)
        for size, est in col.results.items()
    }


#: the engines that evaluate without the event loop, each taking
#: run_point's point arguments with a list of sizes in place of
#: ``msg_bytes`` (``params``, ``warmup``, ``measure`` and ``thresholds``
#: by keyword) and returning :data:`Timing` by size; none can trace.
#: ``run_point`` passes one size; the sweep runner passes a whole column
#: to ``batch`` (``auto``'s) and ``analytic`` (see repro.bench.runner.pool)
_EVALUATORS: Dict[str, Callable[..., Dict[int, Timing]]] = {
    "analytic": _eval_analytic,
    "batch": _eval_batch,
    "dag": _eval_dag,
}


@gc_paused
def run_point(
    library: str,
    collective: str,
    nodes: int,
    ppn: int,
    msg_bytes: int,
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    tracer: Optional[Tracer] = None,
    thresholds: Optional[Thresholds] = None,
    engine: str = "event",
) -> MicrobenchResult:
    """Measure one (library, collective, shape, size) point.

    Builds a fresh phantom-data world, runs ``warmup`` unrecorded
    iterations followed by ``measure`` recorded ones, and returns the mean
    simulated per-iteration time.

    With a ``tracer`` attached, spans are recorded throughout but the
    tracer is cleared before the final measured iteration, so it ends up
    holding exactly one steady-state iteration of the collective.

    ``thresholds`` overrides the library's algorithm switch points
    (ablations); only libraries that select by size accept it.

    ``engine`` selects how the point is evaluated (see :data:`ENGINES`).
    ``"event"`` runs the coroutine event loop, the reference every other
    engine is checked against.  ``"auto"`` replays the point's compiled
    schedule on the DAG fast path (:func:`resolve_engine`) — bit-identical
    samples, no coroutines — and falls back to the event loop for a pair
    without a planner, an empty message or a tracer.  ``"analytic"``
    skips simulation entirely and returns the closed-form estimate
    (approximate — see :mod:`repro.sched.analytic` for the error
    contract); ``auto`` never selects it, and it cannot trace.
    """
    check_protocol(warmup, measure, (msg_bytes,))
    engine = resolve_engine(
        engine, library, collective, tracing=tracer is not None,
        msg_bytes=msg_bytes,
    )
    evaluate = _EVALUATORS.get(engine)
    if evaluate is not None:
        if tracer is not None:
            raise ValueError(
                f"engine={engine!r} cannot record traces; use engine='event'"
            )
        time, samples, messages = evaluate(
            library, collective, nodes, ppn, [msg_bytes],
            params=params, warmup=warmup, measure=measure,
            thresholds=thresholds,
        )[msg_bytes]
    else:
        lib = make_library(library)
        if thresholds is not None:
            if not hasattr(lib, "thresholds"):
                raise ValueError(
                    f"library {library!r} has no size thresholds to override"
                )
            lib.thresholds = thresholds
        world = lib.make_world(
            Topology(nodes, ppn), params or bebop_broadwell(), phantom=True,
            tracer=tracer,
        )
        body = _make_body(lib, world, collective, msg_bytes)

        for _ in range(warmup):
            world.run(body)
        runs = []
        for i in range(measure):
            if tracer is not None and i == measure - 1:
                tracer.clear()
            runs.append(world.run(body).elapsed)
        samples = tuple(runs)
        time = sum(samples) / len(samples)
        messages = world.hw.total_internode_messages()
    return MicrobenchResult(
        library=library,
        collective=collective,
        nodes=nodes,
        ppn=ppn,
        msg_bytes=msg_bytes,
        time=time,
        samples=samples,
        internode_messages=messages,
    )
