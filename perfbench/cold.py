"""One fresh-interpreter repetition of a cold workload.

Started by ``run.py`` as ``python3 perfbench/cold.py --workload W --seed S
--rep R --store DIR --spawned T [--spans FILE] [--tiny]`` with the program's
sources on ``PYTHONPATH``.  ``--spawned`` is the launcher's monotonic
clock reading just before it started this interpreter (the clock is
shared by every process on the host), so set-up time covers interpreter
start, imports and input construction up to the first submitted point.

Prints one JSON object: set-up and per-unit wall times, the host-speed
readings taken after set-up and after each unit, peak RSS, the reference check, a digest
of every result (traced and untraced repetitions must agree on it) and
any error messages.  With ``--spans`` the layer wrappers are installed
before the first submission and the span log is written to that file
when the work is done.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
import traceback


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rep", type=int, required=True)
    parser.add_argument("--store", required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)

    import calibrate
    import reference
    import settings
    from repro.bench.config import SCALES
    from repro.bench.figures import ALL_FIGURES, figure_points
    from repro.bench.runner import Point, SweepRunner
    from repro.bench.runner.cache import ResultCache

    recorder = None
    if args.spans:
        import spans

        recorder = spans.SpanRecorder()
        spans.install(recorder)

    class RecordingRunner(SweepRunner):
        """Keeps every result so it can be checked after timing."""

        log = []

        def run(self, points):
            results = super().run(points)
            self.log.extend(results)
            return results

    cache = ResultCache(args.store)
    runner = RecordingRunner(jobs=settings.JOBS, use_cache=True,
                             engine=settings.ENGINE, cache=cache)
    scale = SCALES[settings.SCALE]
    fig01_series = {}

    # (label, expected result count, thunk)
    units = []
    if args.workload == "figures-small":
        for name in settings.figure_order(args.seed, args.rep, args.tiny):
            pts = figure_points(name, scale)
            expected = len(pts) if pts is not None else None

            def unit(name=name):
                result = ALL_FIGURES[name](scale=scale, runner=runner)
                if name == "fig01":
                    fig01_series.update(result.series)

            units.append((name, expected, unit))
    elif args.workload == "columns-dense":
        axis = settings.dense_axis(args.tiny)
        order = settings.column_order(args.seed, args.rep, args.tiny)
        for lib, coll, nodes, ppn in order:
            pts = [Point(lib, coll, nodes, ppn, size) for size in axis]
            units.append((f"{lib}/{coll}/{nodes}x{ppn}", len(pts),
                          lambda pts=pts: runner.run(pts)))
    else:
        parser.error(f"not a cold workload: {args.workload}")

    errors = []
    raised = 0
    unit_s = []
    setup_s = time.monotonic() - args.spawned
    # host-speed readings between units (see calibrate.py); the kernel
    # runs outside every timed interval
    readings = [calibrate.reading()]
    for label, expected, unit in units:
        t = time.perf_counter()
        try:
            unit()
        except Exception:  # a failing unit is counted, the run goes on
            errors.append(f"{label}: {traceback.format_exc(limit=3)}")
            raised += expected if expected is not None else 1
        unit_s.append(time.perf_counter() - t)
        readings.append(calibrate.reading())

    if recorder is not None:
        recorder.dump(args.spans, spans.process_counters(cache))

    ref = reference.load()
    attempted = len(runner.log) + raised
    failed = raised
    for result in runner.log:
        why = reference.mismatch(ref, result)
        if why is not None:
            failed += 1
            errors.append(why)
    if "fig01" in [u[0] for u in units] and fig01_series:
        attempted += reference.fig01_values(ref)
        failed += reference.fig01_mismatches(ref, fig01_series)

    digest = hashlib.sha256(json.dumps(
        [[reference.result_key(r), list(r.samples), r.internode_messages]
         for r in runner.log] + [fig01_series],
        sort_keys=True,
    ).encode()).hexdigest()

    print(json.dumps({
        "setup_s": setup_s,
        "unit_s": unit_s,
        "readings": readings,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "errors": errors[:5],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
