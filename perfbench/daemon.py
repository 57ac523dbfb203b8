"""Run ``repro.serve``'s daemon the way the ``serve-mixed`` fixture needs it.

``python3 perfbench/daemon.py [--spans DIR] [daemon arguments...]``

This is ``python -m repro.serve`` plus one setting: the pool worker the
daemon forks runs at the lowest CPU priority (nice 19).  The benchmark
pins itself to one CPU (``run.py``), and there a hit that the daemon
answers waited for the scheduler to preempt a worker busy with a miss.
How long it waited changed from run to run: over ten runs the median
request latency spread by 14% of its value, and by 1% with the worker
niced.  On a host with a CPU to spare for the worker, hits do not wait
for it either.

With ``--spans DIR`` the layer wrappers of ``spans.py`` go in before the
daemon starts, so its forked workers inherit them.  Each process writes
its span log to ``DIR/spans-<pid>.json`` as it exits: the daemon after
its main returns, a worker from a ``multiprocessing`` finalizer, which
runs when the pool shuts the worker down.  Store counters come from the
daemon's ``stats`` op instead.
"""

from __future__ import annotations

import multiprocessing.util
import os
import sys


def main() -> int:
    args = sys.argv[1:]
    spans_dir = None
    if args[:1] == ["--spans"]:
        spans_dir, args = args[1], args[2:]
    os.register_at_fork(
        after_in_child=lambda: os.setpriority(os.PRIO_PROCESS, 0, 19))
    if spans_dir is None:
        from repro.serve.daemon import main as daemon_main

        return daemon_main(args)

    import spans

    recorder = spans.SpanRecorder()
    spans.install(recorder)

    from repro.serve.daemon import main as daemon_main

    def dump() -> None:
        path = os.path.join(spans_dir, f"spans-{os.getpid()}.json")
        recorder.dump(path, spans.process_counters())

    def in_worker(rec) -> None:
        rec.reset()
        multiprocessing.util.Finalize(rec, dump, exitpriority=10)

    multiprocessing.util.register_after_fork(recorder, in_worker)
    rc = daemon_main(args)
    dump()
    return rc


if __name__ == "__main__":
    sys.exit(main())
