"""The per-rank schedule IR: typed steps a collective compiles to.

A *schedule* is the fully static description of one collective invocation:
one :class:`RankProgram` (a tuple of steps) per participating rank.  The
steps mirror the primitive operations the simulated runtime exposes —
point-to-point sends/receives, local copies and reductions, and the PiP
address-board/counter intranode primitives — so a
:class:`~repro.sched.executor.ScheduleExecutor` can replay a program on the
existing :class:`~repro.mpi.runtime.RankCtx` machinery with *bit-identical*
simulated timing to the hand-rolled generator it replaced
(``tests/sched/test_equivalence.py`` pins this), while static tooling
(:mod:`repro.sched.check`) can prove match-completeness, deadlock-freedom
and buffer bounds without running the simulator at all.

Symbolic values
---------------
A schedule is planned once per ``(shape, size, ...)`` and replayed for many
invocations, so anything invocation-specific stays symbolic:

* buffers are :class:`BufRef` element ranges of *named* buffers — input
  bindings (``"send"``/``"recv"``), :class:`AllocStep` temporaries, or
  peers' buffers bound by an address-board lookup;
* collective namespaces are :class:`Ns` markers (the ``i``-th per-rank
  operation sequence number this collective draws); the executor resolves
  them through :meth:`RankCtx.next_op_seq` exactly like the generators did;
* externally supplied values (e.g. a communicator-scoped tag) are
  :class:`Sym` markers resolved from the executor's ``symbols`` mapping;
* :class:`HashTag` reproduces the ``int | hash(...) & 0x7FFFFFFF`` tag
  derivation the ring building block uses for tuple namespaces.

The reduction operator is deliberately *not* in the IR: every algorithm
here applies one operator per invocation, bound at execution time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional, Tuple

__all__ = [
    "Ns",
    "Sym",
    "HashTag",
    "TagOffset",
    "BufRef",
    "Step",
    "PhaseStep",
    "AllocStep",
    "CopyStep",
    "ReduceStep",
    "ComputeStep",
    "SendStep",
    "RecvStep",
    "WaitStep",
    "IntraOpStep",
    "RankProgram",
    "Schedule",
    "resolve_key",
]


# ---------------------------------------------------------------------------
# symbolic values
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Ns:
    """The ``index``-th collective namespace this schedule draws.

    Resolved by the executor to consecutive :meth:`RankCtx.next_op_seq`
    values — all ranks draw the same count in the same order, so the
    resolved keys agree across ranks exactly as in the generator code.
    """

    index: int


@dataclass(frozen=True, slots=True)
class Sym:
    """An externally bound symbol (e.g. ``"tag"`` for group collectives)."""

    name: str


@dataclass(frozen=True, slots=True)
class HashTag:
    """A message tag derived from a (possibly tuple) namespace key.

    Resolves to the key itself when it is an ``int``, else to
    ``hash(key) & 0x7FFFFFFF`` — the derivation the multi-object ring
    (:func:`~repro.sched.plans.ring.emit_ring_allgather_blocks`) has
    always used.
    """

    key: Any


@dataclass(frozen=True, slots=True)
class TagOffset:
    """An integer tag at a constant offset from a symbolic base.

    The small-message allreduce derives its remainder-phase tags as
    ``tag + 1 + idx`` from the collective's namespace; this marker keeps
    that arithmetic exact in the IR (``base`` must resolve to an int).
    """

    base: Any
    delta: int


def resolve_key(key: Any, ns_values: Tuple[int, ...], symbols: dict) -> Any:
    """Substitute :class:`Ns`/:class:`Sym`/:class:`HashTag` markers in
    ``key`` (recursing through tuples) with their runtime values."""
    cls = key.__class__
    if cls is tuple:
        return tuple(resolve_key(k, ns_values, symbols) for k in key)
    if cls is Ns:
        return ns_values[key.index]
    if cls is Sym:
        return symbols[key.name]
    if cls is HashTag:
        inner = resolve_key(key.key, ns_values, symbols)
        return inner if isinstance(inner, int) else hash(inner) & 0x7FFFFFFF
    if cls is TagOffset:
        return resolve_key(key.base, ns_values, symbols) + key.delta
    return key


# ---------------------------------------------------------------------------
# buffer references
# ---------------------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class BufRef:
    """An element range ``[offset, offset + count)`` of the named buffer.

    ``count=None`` means "the whole buffer from ``offset``"; a bare
    ``BufRef(name)`` resolves to the bound buffer object itself (no view),
    preserving object identity for whole-buffer operations.
    """

    name: str
    offset: int = 0
    count: Optional[int] = None

    def view(self, offset: int, count: int) -> "BufRef":
        """A sub-range of this reference (offsets compose)."""
        return BufRef(self.name, self.offset + offset, count)


# ---------------------------------------------------------------------------
# steps
# ---------------------------------------------------------------------------

class Step:
    """Base class for schedule steps (purely for isinstance grouping)."""

    __slots__ = ()


@dataclass(frozen=True, slots=True)
class PhaseStep(Step):
    """Marker: subsequent steps belong to the named algorithm phase.

    Costs nothing at execution; the executor threads the name into trace
    spans and the checker groups its accounting tables by it.
    """

    name: str


@dataclass(frozen=True, slots=True)
class AllocStep(Step):
    """Bind ``name`` to a fresh scratch buffer of ``count`` elements.

    The element type is taken from the buffer bound to ``dtype_of`` (the
    planner mirrors whichever input the generator derived its dtype from).
    Allocation is free in simulated time, as it always was.
    """

    name: str
    count: int
    dtype_of: str = "send"


@dataclass(frozen=True, slots=True)
class CopyStep(Step):
    """Timed local memcpy ``src -> dst`` (:meth:`RankCtx.copy`)."""

    dst: BufRef
    src: BufRef


@dataclass(frozen=True, slots=True)
class ReduceStep(Step):
    """Timed local ``dst = op(dst, src)`` with the invocation's operator."""

    dst: BufRef
    src: BufRef


@dataclass(frozen=True, slots=True)
class ComputeStep(Step):
    """Plain computation delay (:meth:`RankCtx.compute`)."""

    seconds: float


@dataclass(frozen=True, slots=True)
class SendStep(Step):
    """Post a nonblocking send to global rank ``dst``; the request is
    stored in handle slot ``handle`` for a later :class:`WaitStep`."""

    dst: int
    buf: BufRef
    tag: Any
    handle: int


@dataclass(frozen=True, slots=True)
class RecvStep(Step):
    """Post a nonblocking receive from global rank ``src`` into ``buf``."""

    src: int
    buf: BufRef
    tag: Any
    handle: int


@dataclass(frozen=True, slots=True)
class WaitStep(Step):
    """Complete previously posted requests, in handle order."""

    handles: Tuple[int, ...]


@dataclass(frozen=True, slots=True)
class IntraOpStep(Step):
    """One PiP intranode primitive on the rank's node.

    ``op`` selects the primitive:

    * ``"post"`` — publish the buffer referenced by ``value`` under ``key``
      on the node's address board;
    * ``"lookup"`` — wait for ``key`` on the board and bind the posted
      buffer to ``bind`` in the rank's environment;
    * ``"add"`` — add ``n`` to the shared counter named ``key``;
    * ``"wait"`` — block until that counter reaches ``n``.
    """

    op: str
    key: Any
    value: Optional[BufRef] = None
    bind: Optional[str] = None
    n: int = 0


# ---------------------------------------------------------------------------
# programs and schedules
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RankProgram:
    """The step sequence one rank executes, plus its handle-slot count."""

    steps: Tuple[Step, ...]
    num_handles: int = 0


@dataclass(frozen=True)
class Schedule:
    """One collective invocation, compiled: a program per participant.

    ``programs[i]`` is the program of participant ``i`` — a global rank for
    world collectives, a group index for group collectives (a *local* rank
    for one node's group); :func:`repro.baselines.base.replay` picks the
    program from the participating group it is given.  ``num_namespaces`` is how many :class:`Ns` markers each program
    resolves (identical across ranks by construction).
    """

    programs: Tuple[RankProgram, ...]
    num_namespaces: int = 0
    #: free-form description, e.g. "pip-mcoll allreduce-small 4x3 64B"
    label: str = ""
    meta: dict = field(default_factory=dict, compare=False)

    @property
    def nranks(self) -> int:
        return len(self.programs)
