"""Unit tests for :mod:`repro.sched.check` — the static schedule checker.

Hand-built miniature schedules exercise each failure class the checker
exists to catch (unmatched sends, cyclic waits, out-of-bounds buffer
views, size mismatches, duplicate board posts), plus the accounting
split between internode and intranode traffic.  The CLI surface is
covered at the bottom.
"""

import pytest

from repro.sched.check import CheckError, check_schedule, main
from repro.sched.emit import Emitter
from repro.sched.ir import BufRef, Schedule


def _two_rank_schedule(build0, build1, label="test"):
    e0, e1 = Emitter(), Emitter()
    build0(e0)
    build1(e1)
    return Schedule(programs=(e0.build(), e1.build()), label=label)


BINDINGS = ({"buf": 64}, {"buf": 64})
RANKS = (0, 1)


# -- the happy path --------------------------------------------------------


def test_matched_send_recv_passes_and_counts_internode_bytes():
    def send(e):
        e.phase("exchange")
        e.wait(e.isend(1, BufRef("buf"), tag=7))

    def recv(e):
        e.phase("exchange")
        e.wait(e.irecv(0, BufRef("buf"), tag=7))

    sched = _two_rank_schedule(send, recv)
    # ppn=1: ranks 0 and 1 sit on different nodes -> internode traffic
    report = check_schedule(sched, RANKS, BINDINGS, ppn=1)
    assert report.internode_messages == 1
    assert report.internode_bytes == 64
    assert "exchange" in report.phases


def test_same_node_traffic_counts_as_intranode():
    def send(e):
        e.wait(e.isend(1, BufRef("buf"), tag=7))

    def recv(e):
        e.wait(e.irecv(0, BufRef("buf"), tag=7))

    sched = _two_rank_schedule(send, recv)
    # ppn=2: both ranks share node 0 -> no internode traffic at all
    report = check_schedule(sched, RANKS, BINDINGS, ppn=2)
    assert report.internode_messages == 0
    assert report.internode_bytes == 0
    totals = report.totals()
    assert totals[2] == 1  # intranode messages
    assert totals[3] == 64  # intranode bytes


def test_format_table_mentions_phases_and_columns():
    def send(e):
        e.phase("p2p")
        e.wait(e.isend(1, BufRef("buf"), tag=0))

    def recv(e):
        e.phase("p2p")
        e.wait(e.irecv(0, BufRef("buf"), tag=0))

    report = check_schedule(
        _two_rank_schedule(send, recv), RANKS, BINDINGS, ppn=1
    )
    table = report.format_table()
    assert "p2p" in table
    assert "inter-bytes" in table


# -- failure classes -------------------------------------------------------


def test_unmatched_send_is_an_error():
    def send(e):
        # fire-and-forget: the program completes, but the message is
        # never received anywhere
        e.isend(1, BufRef("buf"), tag=7)

    def idle(e):
        pass

    sched = _two_rank_schedule(send, idle)
    with pytest.raises(CheckError, match="unmatched"):
        check_schedule(sched, RANKS, BINDINGS, ppn=1)


def test_waiting_on_an_unreceived_send_reports_deadlock():
    def send(e):
        # the wait can never complete: nobody posts the matching receive
        e.wait(e.isend(1, BufRef("buf"), tag=7))

    def idle(e):
        pass

    sched = _two_rank_schedule(send, idle)
    with pytest.raises(CheckError, match="[Dd]eadlock"):
        check_schedule(sched, RANKS, BINDINGS, ppn=1)


def test_cyclic_wait_reports_deadlock():
    def recv_from_other(src):
        def build(e):
            e.wait(e.irecv(src, BufRef("buf"), tag=7))
        return build

    # both ranks block on a receive that nobody will ever send
    sched = _two_rank_schedule(recv_from_other(1), recv_from_other(0))
    with pytest.raises(CheckError, match="[Dd]eadlock"):
        check_schedule(sched, RANKS, BINDINGS, ppn=1)


def test_out_of_bounds_view_is_an_error():
    def send(e):
        # buf holds 64 elements; this view reads past the end
        e.wait(e.isend(1, BufRef("buf").view(32, 64), tag=7))

    def recv(e):
        e.wait(e.irecv(0, BufRef("buf"), tag=7))

    sched = _two_rank_schedule(send, recv)
    with pytest.raises(CheckError, match="bounds|past|exceeds"):
        check_schedule(sched, RANKS, BINDINGS, ppn=1)


def test_send_recv_size_mismatch_is_an_error():
    def send(e):
        e.wait(e.isend(1, BufRef("buf"), tag=7))

    def recv(e):
        e.wait(e.irecv(0, BufRef("buf").view(0, 32), tag=7))

    sched = _two_rank_schedule(send, recv)
    with pytest.raises(CheckError, match="receive buffer holds"):
        check_schedule(sched, RANKS, BINDINGS, ppn=1)


def test_duplicate_board_post_on_one_node_is_an_error():
    def post(e):
        e.post(("k",), BufRef("buf"))

    # ppn=2 puts both ranks on the same node -> same board, same key
    sched = _two_rank_schedule(post, post)
    with pytest.raises(CheckError, match="post|duplicate"):
        check_schedule(sched, RANKS, BINDINGS, ppn=2)


def test_lookup_of_never_posted_key_deadlocks():
    def lookup(e):
        e.lookup(("missing",), bind="stage")

    def idle(e):
        pass

    sched = _two_rank_schedule(lookup, idle)
    with pytest.raises(CheckError, match="[Dd]eadlock"):
        check_schedule(sched, RANKS, BINDINGS, ppn=2)


# -- CLI -------------------------------------------------------------------


def test_cli_single_point_prints_table_and_exits_zero(capsys):
    rc = main([
        "--library", "pip-mcoll", "--collective", "allreduce",
        "--np", "2x2", "--nbytes", "4K",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "inter-bytes" in out
    assert "checker: OK" in out


def test_cli_accepts_issue_invocation_verbatim(capsys):
    # the documented invocation: 8x16 at 64K
    rc = main([
        "--library", "pip-mcoll", "--collective", "allreduce",
        "--np", "8x16", "--nbytes", "64K",
    ])
    assert rc == 0


def test_cli_checks_empty_messages(capsys):
    # every planner answers 0 B, so the command line takes it too
    rc = main([
        "--library", "mvapich2", "--collective", "reduce",
        "--np", "2x3", "--nbytes", "0",
    ])
    assert rc == 0
    assert "checker: OK" in capsys.readouterr().out
    with pytest.raises(SystemExit) as exc:
        main([
            "--library", "mvapich2", "--collective", "reduce",
            "--np", "2x3", "--nbytes", "-1",
        ])
    assert exc.value.code == 2


def test_cli_unplanned_library_exits_nonzero(capsys):
    rc = main([
        "--library", "mpich-ch3", "--collective", "allreduce",
        "--np", "2x2", "--nbytes", "4K",
    ])
    assert rc == 2
    assert "error" in capsys.readouterr().err


def test_cli_baseline_collective_without_planner_exits_nonzero(capsys):
    # every library plans the seven collectives the CLI offers; a
    # collective no microbenchmark runs is refused at the command line
    with pytest.raises(SystemExit) as exc:
        main([
            "--library", "pip-mpich", "--collective", "barrier",
            "--np", "2x2", "--nbytes", "4K",
        ])
    assert exc.value.code == 2


def test_cli_missing_arguments_rejected():
    with pytest.raises(SystemExit):
        main(["--library", "pip-mcoll"])


def test_cli_bad_shape_rejected():
    with pytest.raises(SystemExit):
        main([
            "--library", "pip-mcoll", "--collective", "allreduce",
            "--np", "eight-by-two", "--nbytes", "4K",
        ])
