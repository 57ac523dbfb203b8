"""Step-stream builder used by every planner.

An :class:`Emitter` accumulates one rank's steps in program order; planners
transcribe the control flow of the algorithm they compile (the same loops
the original generators ran) and call the emitter where the generator
performed a primitive.  ``isend``/``irecv`` hand out consecutive request
handle slots exactly like request variables in the generator code.
"""

from __future__ import annotations

from typing import Any, List, Optional

from repro.sched.ir import (
    AllocStep,
    BufRef,
    ComputeStep,
    CopyStep,
    IntraOpStep,
    PhaseStep,
    RankProgram,
    RecvStep,
    ReduceStep,
    SendStep,
    Step,
    WaitStep,
)

__all__ = ["Emitter"]


class Emitter:
    """Builds one :class:`~repro.sched.ir.RankProgram` step by step."""

    def __init__(self) -> None:
        self.steps: List[Step] = []
        self._num_handles = 0

    # -- markers / local work ----------------------------------------------

    def phase(self, name: str) -> None:
        self.steps.append(PhaseStep(name))

    def alloc(self, name: str, count: int, dtype_of: str = "send") -> BufRef:
        self.steps.append(AllocStep(name, count, dtype_of))
        return BufRef(name)

    def copy(self, dst: BufRef, src: BufRef) -> None:
        self.steps.append(CopyStep(dst, src))

    def reduce(self, dst: BufRef, src: BufRef) -> None:
        self.steps.append(ReduceStep(dst, src))

    def compute(self, seconds: float) -> None:
        self.steps.append(ComputeStep(seconds))

    # -- point-to-point ------------------------------------------------------

    def isend(self, dst: int, buf: BufRef, tag: Any) -> int:
        handle = self._num_handles
        self._num_handles += 1
        self.steps.append(SendStep(dst, buf, tag, handle))
        return handle

    def irecv(self, src: int, buf: BufRef, tag: Any) -> int:
        handle = self._num_handles
        self._num_handles += 1
        self.steps.append(RecvStep(src, buf, tag, handle))
        return handle

    def wait(self, *handles: int) -> None:
        self.steps.append(WaitStep(tuple(handles)))

    # -- PiP intranode primitives -------------------------------------------

    def post(self, key: Any, value: BufRef) -> None:
        self.steps.append(IntraOpStep("post", key, value=value))

    def lookup(self, key: Any, bind: str) -> BufRef:
        self.steps.append(IntraOpStep("lookup", key, bind=bind))
        return BufRef(bind)

    def counter_add(self, key: Any, n: int = 1) -> None:
        self.steps.append(IntraOpStep("add", key, n=n))

    def counter_wait(self, key: Any, n: int) -> None:
        self.steps.append(IntraOpStep("wait", key, n=n))

    def barrier(self, key: Any, ppn: int) -> None:
        """Counter barrier among the node's ``ppn`` ranks: add one, wait
        for all ``ppn``."""
        self.counter_add(key, 1)
        self.counter_wait(key, ppn)

    # -- finish --------------------------------------------------------------

    def build(self) -> RankProgram:
        return RankProgram(tuple(self.steps), self._num_handles)
