"""Static schedule checker: prove a compiled collective sound without
running the simulator.

The checker abstractly executes every rank's program round-robin with
*conservative* blocking semantics — a rank stops at the first step that
could block in the real runtime:

* ``WaitStep`` blocks until the awaited send/receive has a matching
  counterpart posted on the peer (FIFO per ``(src, dst, tag)`` channel,
  exactly the transport's matching rule);
* a board ``lookup`` blocks until the key is posted on the rank's node;
* a counter ``wait`` blocks until the node counter reaches its threshold.

Under these semantics, "no rank can advance but some are unfinished" is
precisely a cyclic wait dependency — reported with every blocked rank's
position.  Along the way the checker verifies:

* every send is matched by exactly one receive (and vice versa) with equal
  byte counts;
* every buffer reference stays in bounds of the buffer it views,
  including views of peers' buffers obtained through board lookups;
* board keys are posted at most once per node and every lookup/alloc/copy
  resolves;

and it accounts exact per-rank, per-phase byte and message counts
(internode vs intranode payload, local copy and reduction traffic).

Element counts equal byte counts (the benchmarks drive collectives with
byte elements), so the tables below read directly as bytes.

CLI::

    python -m repro.sched.check --library pip-mcoll --collective allreduce \\
        --np 8x16 --nbytes 64K

prints the per-phase volume/message table and exits non-zero if any check
fails.  ``--grid`` sweeps the full registry (every library and
microbenchmark collective) instead.
"""

from __future__ import annotations

import argparse
import sys
from collections import defaultdict, deque
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

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
from repro.sched.registry import (
    COLLECTIVES,
    LIBRARIES,
    PlannedCollective,
    plan_for,
    registry_combinations,
)

__all__ = ["CheckError", "CheckReport", "check_schedule", "check_planned",
           "main"]

#: concrete namespace values substituted for Ns markers — arbitrary, but
#: identical across ranks, exactly like the live per-rank counters agree
_NS_BASE = 1001


class CheckError(Exception):
    """A schedule failed static verification."""


@dataclass(frozen=True)
class _View:
    """An element range of one abstract buffer."""

    buf: int  # abstract buffer id
    off: int
    cnt: int


@dataclass
class CheckReport:
    """Checker output: per-phase and per-rank traffic accounting.

    ``phases[phase]`` and ``per_rank[(rank, phase)]`` both map to
    ``[internode_msgs, internode_bytes, intranode_msgs, intranode_bytes,
    copy_bytes, reduce_bytes]``.
    """

    label: str
    nranks: int
    phases: Dict[str, List[int]] = field(default_factory=dict)
    per_rank: Dict[Tuple[int, str], List[int]] = field(default_factory=dict)

    _COLS = ("inter-msgs", "inter-bytes", "intra-msgs", "intra-bytes",
             "copy-bytes", "reduce-bytes")

    def totals(self) -> List[int]:
        out = [0] * 6
        for row in self.phases.values():
            for i, v in enumerate(row):
                out[i] += v
        return out

    @property
    def internode_bytes(self) -> int:
        return self.totals()[1]

    @property
    def internode_messages(self) -> int:
        return self.totals()[0]

    def format_table(self) -> str:
        width = max([len("TOTAL"), len("phase")]
                    + [len(p) or len("(untagged)") for p in self.phases])
        head = f"{'phase':<{width}}" + "".join(
            f"  {c:>12}" for c in self._COLS
        )
        lines = [f"schedule: {self.label}  ({self.nranks} ranks)", head,
                 "-" * len(head)]
        for phase in self.phases:
            name = phase or "(untagged)"
            row = self.phases[phase]
            lines.append(
                f"{name:<{width}}" + "".join(f"  {v:>12}" for v in row)
            )
        lines.append("-" * len(head))
        lines.append(
            f"{'TOTAL':<{width}}"
            + "".join(f"  {v:>12}" for v in self.totals())
        )
        return "\n".join(lines)


class _Rank:
    """One participant's abstract execution state."""

    __slots__ = ("idx", "rank", "node", "program", "pc", "env", "handles",
                 "phase", "phase_order")

    def __init__(self, idx, rank, node, program, env):
        self.idx = idx
        self.rank = rank
        self.node = node
        self.program = program
        self.pc = 0
        self.env: Dict[str, _View] = env
        self.handles: List[Optional[dict]] = [None] * program.num_handles
        self.phase = ""
        self.phase_order: List[str] = []

    @property
    def done(self) -> bool:
        return self.pc >= len(self.program.steps)


def _check_view(st: _Rank, ref: BufRef, sizes: Dict[int, int]) -> _View:
    """Resolve ``ref`` in ``st``'s environment, verifying bounds."""
    base = st.env.get(ref.name)
    if base is None:
        raise CheckError(
            f"rank {st.rank}: step {st.pc} references unbound buffer "
            f"{ref.name!r}"
        )
    cnt = (base.cnt - ref.offset) if ref.count is None else ref.count
    if ref.offset < 0 or cnt < 0 or ref.offset + cnt > base.cnt:
        raise CheckError(
            f"rank {st.rank}: step {st.pc} view [{ref.offset}, "
            f"{ref.offset + cnt}) exceeds buffer {ref.name!r} "
            f"of {base.cnt} elements"
        )
    view = _View(base.buf, base.off + ref.offset, cnt)
    if view.off + view.cnt > sizes[view.buf]:
        raise CheckError(
            f"rank {st.rank}: step {st.pc} view of {ref.name!r} exceeds "
            f"the underlying allocation"
        )
    return view


def check_schedule(
    schedule: Schedule,
    ranks: Tuple[int, ...],
    bindings: Tuple[Dict[str, int], ...],
    ppn: int,
    symbols: Optional[dict] = None,
    label: str = "",
) -> CheckReport:
    """Verify ``schedule`` and return its traffic accounting.

    ``ranks[i]``/``bindings[i]`` give participant ``i``'s global rank and
    initial buffer environment (name -> element count); ``ppn`` maps ranks
    to nodes for board/counter placement and the internode/intranode
    traffic split.  Raises :class:`CheckError` on any violation.
    """
    if len(ranks) != schedule.nranks or len(bindings) != schedule.nranks:
        raise CheckError(
            f"schedule has {schedule.nranks} programs but {len(ranks)} "
            f"ranks / {len(bindings)} bindings were supplied"
        )
    ns_values = tuple(
        _NS_BASE + i for i in range(schedule.num_namespaces)
    )
    syms = symbols or {}

    sizes: Dict[int, int] = {}  # abstract buffer id -> element count
    next_buf = [0]

    def fresh_buf(count: int) -> _View:
        buf_id = next_buf[0]
        next_buf[0] += 1
        sizes[buf_id] = count
        return _View(buf_id, 0, count)

    states: List[_Rank] = []
    for i, (rank, binding) in enumerate(zip(ranks, bindings)):
        env = {name: fresh_buf(count) for name, count in binding.items()}
        states.append(_Rank(i, rank, rank // ppn, schedule.programs[i], env))

    boards: Dict[int, Dict[Any, _View]] = defaultdict(dict)
    counters: Dict[Tuple[int, Any], int] = defaultdict(int)
    # FIFO channels, the transport's matching rule
    pending_sends: Dict[tuple, deque] = defaultdict(deque)
    pending_recvs: Dict[tuple, deque] = defaultdict(deque)

    acct: Dict[Tuple[int, str], List[int]] = defaultdict(lambda: [0] * 6)
    phase_seen: Dict[str, None] = {}

    def account_message(sender: dict, recv_cnt: int) -> None:
        if sender["view"].cnt != recv_cnt:
            raise CheckError(
                f"rank {sender['rank']} sends {sender['view'].cnt} elements "
                f"to rank {sender['dst']} (tag {sender['tag']!r}) but the "
                f"receive buffer holds {recv_cnt}"
            )
        row = acct[(sender["rank"], sender["phase"])]
        col = 0 if sender["src_node"] != sender["dst_node"] else 2
        row[col] += 1
        row[col + 1] += sender["view"].cnt
        phase_seen.setdefault(sender["phase"], None)

    def exec_step(st: _Rank, step) -> bool:
        """Execute one step; return False when it blocks."""
        cls = step.__class__
        if cls is SendStep:
            view = _check_view(st, step.buf, sizes)
            tag = resolve_key(step.tag, ns_values, syms)
            chan = (st.rank, step.dst, tag)
            rec = {
                "kind": "send", "rank": st.rank, "dst": step.dst,
                "tag": tag, "view": view, "phase": st.phase,
                "src_node": st.node, "dst_node": step.dst // ppn,
                "paired": False,
            }
            if pending_recvs[chan]:
                peer = pending_recvs[chan].popleft()
                rec["paired"] = peer["paired"] = True
                account_message(rec, peer["view"].cnt)
            else:
                pending_sends[chan].append(rec)
            st.handles[step.handle] = rec
        elif cls is RecvStep:
            view = _check_view(st, step.buf, sizes)
            tag = resolve_key(step.tag, ns_values, syms)
            chan = (step.src, st.rank, tag)
            rec = {
                "kind": "recv", "rank": st.rank, "src": step.src,
                "tag": tag, "view": view, "paired": False,
            }
            if pending_sends[chan]:
                peer = pending_sends[chan].popleft()
                rec["paired"] = peer["paired"] = True
                account_message(peer, view.cnt)
            else:
                pending_recvs[chan].append(rec)
            st.handles[step.handle] = rec
        elif cls is WaitStep:
            for h in step.handles:
                rec = st.handles[h]
                if rec is None:
                    raise CheckError(
                        f"rank {st.rank}: step {st.pc} waits on handle {h} "
                        f"that was never posted"
                    )
                if not rec["paired"]:
                    return False
        elif cls is CopyStep:
            dst = _check_view(st, step.dst, sizes)
            src = _check_view(st, step.src, sizes)
            if dst.cnt != src.cnt:
                raise CheckError(
                    f"rank {st.rank}: step {st.pc} copies {src.cnt} "
                    f"elements into a {dst.cnt}-element destination"
                )
            acct[(st.rank, st.phase)][4] += src.cnt
            phase_seen.setdefault(st.phase, None)
        elif cls is ReduceStep:
            dst = _check_view(st, step.dst, sizes)
            src = _check_view(st, step.src, sizes)
            if dst.cnt != src.cnt:
                raise CheckError(
                    f"rank {st.rank}: step {st.pc} reduces {src.cnt} "
                    f"elements into a {dst.cnt}-element destination"
                )
            acct[(st.rank, st.phase)][5] += src.cnt
            phase_seen.setdefault(st.phase, None)
        elif cls is IntraOpStep:
            key = resolve_key(step.key, ns_values, syms)
            if step.op == "post":
                board = boards[st.node]
                if key in board:
                    raise CheckError(
                        f"rank {st.rank}: step {st.pc} re-posts board key "
                        f"{key!r} on node {st.node}"
                    )
                board[key] = _check_view(st, step.value, sizes)
            elif step.op == "lookup":
                view = boards[st.node].get(key)
                if view is None:
                    return False
                if step.bind is not None:
                    st.env[step.bind] = view
            elif step.op == "add":
                counters[(st.node, key)] += step.n
            elif step.op == "wait":
                if counters[(st.node, key)] < step.n:
                    return False
            else:
                raise CheckError(f"unknown intra op {step.op!r}")
        elif cls is AllocStep:
            if step.dtype_of not in st.env:
                raise CheckError(
                    f"rank {st.rank}: step {st.pc} allocates {step.name!r} "
                    f"with dtype of unbound buffer {step.dtype_of!r}"
                )
            st.env[step.name] = fresh_buf(step.count)
        elif cls is PhaseStep:
            st.phase = step.name
            st.phase_order.append(step.name)
            phase_seen.setdefault(step.name, None)
        elif cls is ComputeStep:
            pass
        else:
            raise CheckError(f"rank {st.rank}: unknown step {step!r}")
        return True

    # round-robin to fixpoint; no progress + unfinished ranks = deadlock
    while True:
        progress = False
        all_done = True
        for st in states:
            while not st.done:
                if not exec_step(st, st.program.steps[st.pc]):
                    break
                st.pc += 1
                progress = True
            if not st.done:
                all_done = False
        if all_done:
            break
        if not progress:
            stuck = [
                f"rank {st.rank} at step {st.pc}: "
                f"{st.program.steps[st.pc]!r}"
                for st in states if not st.done
            ]
            raise CheckError(
                "deadlock (cyclic wait dependency); blocked ranks:\n  "
                + "\n  ".join(stuck)
            )

    unmatched = [
        f"send rank {r['rank']} -> {r['dst']} tag {r['tag']!r}"
        for q in pending_sends.values() for r in q
    ] + [
        f"recv rank {r['rank']} <- {r['src']} tag {r['tag']!r}"
        for q in pending_recvs.values() for r in q
    ]
    if unmatched:
        raise CheckError(
            "unmatched point-to-point operations:\n  "
            + "\n  ".join(unmatched)
        )

    report = CheckReport(label or schedule.label, schedule.nranks)
    report.per_rank = dict(acct)
    for phase in phase_seen:
        report.phases[phase] = [0] * 6
    for (rank, phase), row in acct.items():
        for i, v in enumerate(row):
            report.phases[phase][i] += v
    return report


def check_planned(piece: PlannedCollective, ppn: int) -> CheckReport:
    """Check one registry entry."""
    return check_schedule(
        piece.schedule, piece.ranks, piece.bindings, ppn,
        symbols=piece.symbols, label=piece.label,
    )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _parse_bytes(text: str) -> int:
    text = text.strip().upper()
    factor = 1
    if text.endswith(("K", "M", "G")):
        factor = {"K": 1024, "M": 1024**2, "G": 1024**3}[text[-1]]
        text = text[:-1]
    try:
        value = int(text) * factor
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad byte size {text!r}") from None
    if value < 0:
        raise argparse.ArgumentTypeError("byte size must be non-negative")
    return value


def _parse_shape(text: str) -> Tuple[int, int]:
    try:
        nodes, ppn = (int(p) for p in text.lower().split("x"))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad shape {text!r}; expected NODESxPPN, e.g. 8x16"
        ) from None
    if nodes < 1 or ppn < 1:
        raise argparse.ArgumentTypeError("shape dimensions must be positive")
    return nodes, ppn


#: the CI verification grid (shapes x sizes over every registry combo)
GRID_SHAPES = ((2, 2), (4, 8), (8, 16))
GRID_SIZES = (1024, 64 * 1024, 1024 * 1024)


def _run_grid() -> int:
    failures = 0
    for library, collective in registry_combinations():
        for nodes, ppn in GRID_SHAPES:
            for nbytes in GRID_SIZES:
                piece = plan_for(library, collective, nodes, ppn, nbytes)
                try:
                    report = check_planned(piece, ppn)
                except CheckError as exc:
                    failures += 1
                    print(f"FAIL {piece.label}: {exc}")
                    continue
                totals = report.totals()
                print(
                    f"ok   {piece.label}: {totals[0]} internode msgs, "
                    f"{totals[1]} internode bytes"
                )
    if failures:
        print(f"{failures} grid point(s) FAILED")
        return 1
    print("all grid points passed")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.sched.check",
        description="Statically verify a compiled collective schedule and "
                    "print its per-phase volume/message table.",
    )
    parser.add_argument("--library", help=", ".join(LIBRARIES))
    parser.add_argument("--collective", choices=COLLECTIVES)
    parser.add_argument("--np", type=_parse_shape, metavar="NODESxPPN",
                        help="cluster shape, e.g. 8x16")
    parser.add_argument("--nbytes", type=_parse_bytes, metavar="SIZE",
                        help="per-process message size, e.g. 64K")
    parser.add_argument("--grid", action="store_true",
                        help="check the full registry x shape x size grid")
    args = parser.parse_args(argv)

    if args.grid:
        return _run_grid()
    missing = [flag for flag, val in (
        ("--library", args.library), ("--collective", args.collective),
        ("--np", args.np), ("--nbytes", args.nbytes),
    ) if val is None]
    if missing:
        parser.error(f"missing {', '.join(missing)} (or use --grid)")

    nodes, ppn = args.np
    try:
        piece = plan_for(args.library, args.collective, nodes, ppn,
                         args.nbytes)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        report = check_planned(piece, ppn)
    except CheckError as exc:
        print(f"CHECK FAILED: {piece.label}\n{exc}", file=sys.stderr)
        return 1
    print(report.format_table())
    print("checker: OK (sends matched, no deadlock, buffers in bounds)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
