"""The repository benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload figures-small --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py reference      # regenerate reference.json

Workloads, metrics and bounds are declared in ``BENCHMARK.json``; the
pinned settings live in ``settings.py`` and are described in
``perfbench/README.md``.  A run repeats its workload (a fresh interpreter
per repetition for the cold workloads, a fresh daemon per stream for
``serve-mixed``) while the repetitions fit in ``--seconds``, and reports
medians, with times rescaled to nominal host speed (``calibrate.py``).
``--trace 1`` runs each repetition twice, untraced and with the
layer wrappers of ``spans.py``, checks that both produced identical
results, and reports the per-layer metrics.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

import calibrate
import reference
import serve_mixed
import settings
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
REP_TIMEOUT_S = 150


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile (numpy's default method)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _prepare_environment() -> None:
    """Children see the sources, a fixed hash seed and no PIPMCOLL_*
    overrides from the caller's shell, and everything runs on one CPU.

    Pinning makes the run independent of how many CPUs the host has and
    of which of them a neighbour is loading, and it lets the
    single-threaded calibration kernel see the speed the workload sees:
    unpinned, the client, the daemon and its worker spread over two
    CPUs while the kernel used one, and serve-mixed streams of the same
    requests varied from 3.1 to 5.1 nominal seconds (4.1 to 4.6 pinned).
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for key in [k for k in os.environ if k.startswith("PIPMCOLL_")]:
        del os.environ[key]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(HERE)])
    os.environ["PYTHONHASHSEED"] = "0"
    sys.path[:0] = [str(ROOT / "src")]


def _keep_repeating(count: int, minimum: int, started: float,
                    seconds: float) -> bool:
    elapsed = time.monotonic() - started
    return count < minimum or elapsed + elapsed / count <= seconds


# -- one repetition ----------------------------------------------------------
#
# Every repetition returns ``setup_s``, ``sweep_s`` (the measured work)
# and ``latencies`` as (request kind, seconds), all at nominal host speed
# (calibrate.py: each interval is rescaled by the readings around it);
# ``span_s``, the nominal time those requests took together; ``wall_s``,
# the measured work in wall seconds; ``peak_rss_mb``, ``attempted``,
# ``failed``, ``errors``, a ``digest`` of every result, ``serve_layer``
# and, when traced, ``layers`` and ``span_totals``.


def cold_rep(args, run_dir: Path, rep: int, traced: bool) -> Dict:
    """One fresh-interpreter repetition (see ``cold.py``).  A cold
    "request" is the whole invocation, from spawn to the last result."""
    tag = f"{rep}-{int(traced)}"
    store = run_dir / f"store-{tag}"
    spans_path = run_dir / f"spans-{tag}.json"
    cmd = [sys.executable, str(HERE / "cold.py"), "--workload",
           args.workload, "--seed", str(args.seed), "--rep", str(rep),
           "--store", str(store)]
    if traced:
        cmd += ["--spans", str(spans_path)]
    if args.tiny:
        cmd.append("--tiny")
    spawned = time.monotonic()
    proc = subprocess.run(cmd + ["--spawned", repr(spawned)],
                          capture_output=True, text=True,
                          timeout=REP_TIMEOUT_S)
    shutil.rmtree(store, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"cold repetition failed:\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.splitlines()[-1])
    r = out.pop("readings")  # after set-up, then after each unit
    out["setup_s"] = calibrate.nominal(out["setup_s"], r[0], r[0])
    out["wall_s"] = sum(out["unit_s"])
    out["sweep_s"] = sum(calibrate.nominal(wall, before, after)
                         for wall, before, after
                         in zip(out.pop("unit_s"), r, r[1:]))
    out["span_s"] = out["setup_s"] + out["sweep_s"]
    out["latencies"] = [("invocation", out["span_s"])]
    out["serve_layer"] = dict.fromkeys(SERVE_LAYER, 0.0)  # no daemon here
    if traced:
        with open(spans_path) as fh:
            _add_layers(out, [json.load(fh)])
    return out


def serve_rep(args, run_dir: Path, rep: int, traced: bool, ref) -> Dict:
    """One daemon stream (see ``serve_mixed.py``)."""
    requests = (settings.TINY_STREAM_REQUESTS if args.tiny
                else settings.STREAM_REQUESTS)
    tag = f"{rep}-{int(traced)}"
    stream_dir = run_dir / f"stream-{tag}"
    spans_dir = run_dir / f"spans-{tag}" if traced else None
    stream_dir.mkdir(parents=True)
    try:
        out = serve_mixed.run_stream(
            stream_dir, settings.rep_seed(args.seed, rep), requests, ref,
            spans_dir)
    finally:
        shutil.rmtree(stream_dir, ignore_errors=True)
    r = out.pop("readings")  # before spawn, once ready, after each segment
    out["setup_s"] = calibrate.nominal(out["setup_s"], r[0], r[1])
    out["wall_s"] = sum(out["segment_s"])
    out["sweep_s"] = out["span_s"] = sum(
        calibrate.nominal(wall, before, after)
        for wall, before, after in zip(out.pop("segment_s"), r[1:], r[2:]))
    out["latencies"] = [(kind, calibrate.nominal(lat, r[k + 1], r[k + 2]))
                        for kind, lat, k in out["latencies"]]
    out["serve_layer"] = _serve_layer(out)
    if traced:
        docs = []
        for path in sorted(spans_dir.glob("spans-*.json")):
            with open(path) as fh:
                docs.append(json.load(fh))
        _add_layers(out, docs)
        cache = out["stats"]["cache"]
        out["layers"].update({
            "store.bytes_read": cache["bytes_read"],
            "store.bytes_written": cache["bytes_written"],
            "store.shards": cache["shards"],
        })
    return out


def _add_layers(rep: Dict, docs: List[Dict]) -> None:
    rep["span_totals"] = spans.span_totals(docs)
    rep["layers"] = spans.summarize(docs)


SERVE_LAYER = (
    "serve.hit_req_p50_ms", "serve.miss_req_p50_ms", "serve.hit_ratio",
    "serve.coalesced", "serve.evaluations", "serve.rejected",
    "serve.timeouts", "serve.errors",
)


def _serve_layer(r: Dict) -> Dict[str, float]:
    """Client timing split by request class (nominal milliseconds), and
    the daemon's counters, of one stream; keys are :data:`SERVE_LAYER`."""
    hits = [lat for kind, lat in r["latencies"] if kind == "repeat"]
    misses = [lat for kind, lat in r["latencies"] if kind != "repeat"]
    d = r["stats"]["daemon"]
    looked_up = d["hits"] + d["misses"]
    return {
        "serve.hit_req_p50_ms": percentile(hits, 50) * 1e3,
        "serve.miss_req_p50_ms": (
            percentile(misses, 50) * 1e3 if misses else 0.0),
        "serve.hit_ratio": d["hits"] / looked_up if looked_up else 0.0,
        "serve.coalesced": d["coalesced"],
        "serve.evaluations": d["evaluations"],
        "serve.rejected": d["rejected"],
        "serve.timeouts": d["timeouts"],
        "serve.errors": d["errors"],
    }


# -- a run -------------------------------------------------------------------


def run(args, run_dir: Path) -> Dict:
    """Repeat the workload while repetitions fit in ``--seconds``; with
    ``--trace 1`` every repetition runs untraced and then traced."""
    if args.workload in settings.COLD_WORKLOADS:
        def one(rep, traced):
            return cold_rep(args, run_dir, rep, traced)
    else:
        ref = reference.load()

        def one(rep, traced):
            return serve_rep(args, run_dir, rep, traced, ref)

    minimum = 1 if args.tiny or args.trace else settings.MIN_REPS
    plain: List[Dict] = []
    traced: List[Dict] = []
    errors: List[str] = []
    started = time.monotonic()
    while True:
        rep = len(plain)
        plain.append(one(rep, False))
        if args.trace:
            traced.append(one(rep, True))
            if traced[-1]["digest"] != plain[-1]["digest"]:
                errors.append(f"repetition {rep}: traced results differ "
                              f"from untraced ones")
        if not _keep_repeating(len(plain), minimum, started, args.seconds):
            break

    reps = plain + traced
    failed = sum(r["failed"] for r in reps) + len(errors)
    errors += [e for r in reps for e in r["errors"]]

    def median(group: List[Dict], key: str) -> float:
        return statistics.median(r[key] for r in group)

    report: List[str] = []
    if args.trace:
        metrics = _mean_layers([r["layers"] for r in traced])
        # client timing comes from the untraced streams only
        metrics.update(_mean_layers([r["serve_layer"] for r in plain]))
        metrics["trace.overhead_frac"] = (
            median(traced, "sweep_s") / median(plain, "sweep_s") - 1)
        metrics["trace.coverage"] = statistics.mean(
            spans.layer_self_total(r["layers"]) / r["wall_s"]
            for r in traced)
        report = spans.report([r["span_totals"] for r in traced],
                              sum(r["wall_s"] for r in traced))
    else:
        metrics = {
            "setup_s": median(plain, "setup_s"),
            "sweep_s": median(plain, "sweep_s"),
            "peak_rss_mb": median(plain, "peak_rss_mb"),
            **_request_metrics(plain),
        }
    return {"attempted": sum(r["attempted"] for r in reps), "failed": failed,
            "errors": errors, "metrics": metrics, "reps": len(plain),
            "report": report}


def _request_metrics(plain: List[Dict]) -> Dict[str, float]:
    """Request latency percentiles and throughput.  A daemon stream makes
    1000 requests, so each stream gets its own percentiles and the run
    reports their medians: a stream that a noisy neighbour slowed as a
    whole does not move them.  A cold repetition is one request, so the
    run's requests are pooled."""
    def stats(group: List[Dict]) -> Dict[str, float]:
        latencies = [lat for r in group for _kind, lat in r["latencies"]]
        return {
            "req_p50_ms": percentile(latencies, 50) * 1e3,
            "req_p99_ms": percentile(latencies, 99) * 1e3,
            "req_per_s": len(latencies) / sum(r["span_s"] for r in group),
        }

    if len(plain[0]["latencies"]) == 1:
        return stats(plain)
    per_stream = [stats([r]) for r in plain]
    return {key: statistics.median(s[key] for s in per_stream)
            for key in per_stream[0]}


def _mean_layers(per_rep: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.mean(m[key] for m in per_rep)
            for key in per_rep[0]}


# -- entry point ---------------------------------------------------------------


def _declared_metrics(trace: bool) -> Dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        doc = json.load(fh)
    return {m["name"]: m["unit"]
            for m in doc["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("command", nargs="?", choices=["reference"],
                        help="regenerate reference.json instead of running")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="reduced inputs, one repetition (self-tests)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: the program's sources are missing "
              f"({ROOT / 'src' / 'repro'} not found)", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    _prepare_environment()
    if args.command == "reference":
        count = reference.write()
        print(f"wrote {count} reference points to {reference.REFERENCE_PATH}")
        return 0
    if args.workload not in settings.WORKLOADS:
        parser.error(f"--workload must be one of {settings.WORKLOADS}")
    declared = _declared_metrics(bool(args.trace))

    run_dir = RUNS / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    try:
        out = run(args, run_dir)
    finally:
        if args.trace:
            keep = RUNS / f"last-trace-{args.workload}"
            shutil.rmtree(keep, ignore_errors=True)
            run_dir.rename(keep)
        else:
            shutil.rmtree(run_dir, ignore_errors=True)

    metrics = out["metrics"]
    if set(metrics) != set(declared):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing "
            f"{sorted(set(declared) - set(metrics))}, undeclared "
            f"{sorted(set(metrics) - set(declared))}")
    for line in out["errors"][:10]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(f"perfbench: {args.workload}: {out['reps']} repetitions",
          file=sys.stderr)
    for line in out["report"]:
        print(f"perfbench: {line}", file=sys.stderr)
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": metrics[name], "unit": declared[name]}
                    for name in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
