"""Replay a compiled schedule on the live runtime.

:class:`ScheduleExecutor` is the single generator that drives every
collective, called by :func:`repro.baselines.base.replay`: it walks one rank's :class:`~repro.sched.ir.RankProgram`
and performs each step through the same :class:`~repro.mpi.runtime.RankCtx`
primitives the hand-written generators used, in the same order.  All
simulated time is charged inside those primitives, and step dispatch is
pure Python between yields, so replay is *bit-identical* in simulated time
to the generator a planner transcribed (pinned by
``tests/sched/test_equivalence.py`` and ``tests/data/golden_sched.json``).

Namespace draws happen up front: a generator interleaved
``ctx.next_op_seq()`` calls with its communication, but the counter is
per-rank pure Python, so drawing all ``num_namespaces`` values before the
first step yields the identical values — and costs nothing.

:class:`~repro.sched.ir.PhaseStep` markers set ``ctx.phase``, which the
runtime threads into every trace span recorded while the phase is active.
"""

from __future__ import annotations

from typing import Any, Dict, Optional

from repro.mpi.buffer import Buffer
from repro.mpi.datatypes import ReduceOp
from repro.mpi.runtime import RankCtx
from repro.sched.ir import (
    AllocStep,
    BufRef,
    ComputeStep,
    CopyStep,
    IntraOpStep,
    PhaseStep,
    RecvStep,
    ReduceStep,
    Schedule,
    SendStep,
    WaitStep,
    resolve_key,
)
from repro.sim.engine import ProcGen

__all__ = ["ScheduleExecutor"]

_NO_SYMBOLS: dict = {}


def _buf(env: Dict[str, Buffer], ref: BufRef) -> Buffer:
    """Resolve a :class:`BufRef` against the rank's environment."""
    buf = env[ref.name]
    if ref.count is None:
        if ref.offset == 0:
            return buf
        return buf.view(ref.offset, buf.count - ref.offset)
    return buf.view(ref.offset, ref.count)


class ScheduleExecutor:
    """Executes one participant's program of a :class:`Schedule`."""

    __slots__ = ("schedule",)

    def __init__(self, schedule: Schedule):
        self.schedule = schedule

    def run(
        self,
        ctx: RankCtx,
        bindings: Dict[str, Optional[Buffer]],
        op: Optional[ReduceOp] = None,
        symbols: Optional[Dict[str, Any]] = None,
        program_index: Optional[int] = None,
    ) -> ProcGen:
        """Replay program ``program_index`` (default: ``ctx.rank``).

        ``bindings`` maps the schedule's input buffer names (``"send"``,
        ``"recv"``, ...) to this rank's live buffers; ``op`` is the
        reduction operator :class:`~repro.sched.ir.ReduceStep`\\ s apply;
        ``symbols`` resolves :class:`~repro.sched.ir.Sym` markers.
        """
        sched = self.schedule
        # all ranks draw the same count in the same order — see module doc
        ns_values = tuple(
            ctx.next_op_seq() for _ in range(sched.num_namespaces)
        )
        syms = symbols if symbols is not None else _NO_SYMBOLS
        index = ctx.rank if program_index is None else program_index
        program = sched.programs[index]
        env: Dict[str, Buffer] = {
            name: buf for name, buf in bindings.items() if buf is not None
        }
        handles: list = [None] * program.num_handles
        board = ctx.pip.board
        prev_phase = ctx.phase
        for step in program.steps:
            cls = step.__class__
            if cls is SendStep:
                handles[step.handle] = yield from ctx.isend(
                    step.dst,
                    _buf(env, step.buf),
                    resolve_key(step.tag, ns_values, syms),
                )
            elif cls is RecvStep:
                handles[step.handle] = ctx.irecv(
                    step.src,
                    _buf(env, step.buf),
                    resolve_key(step.tag, ns_values, syms),
                )
            elif cls is WaitStep:
                for h in step.handles:
                    yield from ctx.wait(handles[h])
            elif cls is CopyStep:
                yield from ctx.copy(_buf(env, step.dst), _buf(env, step.src))
            elif cls is ReduceStep:
                yield from ctx.reduce_into(
                    _buf(env, step.dst), _buf(env, step.src), op
                )
            elif cls is IntraOpStep:
                key = resolve_key(step.key, ns_values, syms)
                kind = step.op
                if kind == "post":
                    yield from board.post(key, _buf(env, step.value))
                elif kind == "lookup":
                    value = yield from board.lookup(key)
                    if step.bind is not None:
                        env[step.bind] = value
                elif kind == "add":
                    yield from ctx.pip.counter(key).add(step.n)
                elif kind == "wait":
                    yield from ctx.pip.counter(key).wait_at_least(step.n)
                else:  # pragma: no cover - planners only emit the four ops
                    raise ValueError(f"unknown intra op {kind!r}")
            elif cls is AllocStep:
                env[step.name] = ctx.alloc(
                    env[step.dtype_of].dtype, step.count
                )
            elif cls is PhaseStep:
                ctx.phase = step.name
            elif cls is ComputeStep:
                yield from ctx.compute(step.seconds)
            else:  # pragma: no cover - the IR is closed
                raise TypeError(f"unknown step {step!r}")
        ctx.phase = prev_phase
