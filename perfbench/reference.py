"""Reference results: every point the workloads can touch, on the event loop.

``python3 perfbench/run.py reference`` regenerates ``reference.json``
with ``engine="event"`` (the repository's authoritative engine).  Every
benchmark run compares its results with this file bit for bit: the
per-iteration samples and the internode message count of each point,
and fig01's series values.  JSON floats round-trip float64 exactly.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Optional

import settings

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"


def point_key(library: str, collective: str, nodes: int, ppn: int,
              msg_bytes: int) -> str:
    return f"{library}|{collective}|{nodes}|{ppn}|{msg_bytes}"


def result_key(result) -> str:
    return point_key(result.library, result.collective, result.nodes,
                     result.ppn, result.msg_bytes)


def load() -> Dict:
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)


def mismatch(reference: Dict, result) -> Optional[str]:
    """``None`` when ``result`` equals its reference exactly, else why not."""
    ref = reference["points"].get(result_key(result))
    if ref is None:
        return f"no reference for {result_key(result)}"
    samples, internode = ref
    if list(result.samples) != samples:
        return (f"{result_key(result)}: samples {list(result.samples)} != "
                f"reference {samples}")
    if result.internode_messages != internode:
        return (f"{result_key(result)}: {result.internode_messages} "
                f"internode messages != reference {internode}")
    return None


def fig01_mismatches(reference: Dict, series: Dict[str, List[float]]) -> int:
    """Values of fig01's series that differ from the reference."""
    ref = reference["fig01"]
    bad = 0
    for name, values in ref.items():
        got = series.get(name, [])
        bad += sum(1 for i, v in enumerate(values)
                   if i >= len(got) or got[i] != v)
    return bad


def fig01_values(reference: Dict) -> int:
    return sum(len(v) for v in reference["fig01"].values())


def all_points():
    """Every point a workload can submit, deduplicated, on the event loop."""
    from repro.bench.config import SCALES
    from repro.bench.figures import figure_points
    from repro.bench.runner import Point

    points = {}
    scale = SCALES[settings.SCALE]
    for name in settings.FIGURES:
        for p in figure_points(name, scale) or ():
            points[point_key(p.library, p.collective, p.nodes, p.ppn,
                             p.msg_bytes)] = p
    for lib, coll, nodes, ppn in settings.COLUMNS:
        for size in settings.AXIS:
            points[point_key(lib, coll, nodes, ppn, size)] = Point(
                lib, coll, nodes, ppn, size)
    for lib, coll, nodes, ppn, _axis in settings.serve_universe():
        for sizes in settings.SERVE_AXES.values():
            for size in sizes:
                points[point_key(lib, coll, nodes, ppn, size)] = Point(
                    lib, coll, nodes, ppn, size)
    return [points[k] for k in sorted(points)]


def generate() -> Dict:
    from repro.bench.config import SCALES
    from repro.bench.figures import fig01_multiobject_p2p
    from repro.bench.runner import SweepRunner

    runner = SweepRunner(jobs=settings.JOBS, use_cache=False,
                         engine=settings.REFERENCE_ENGINE)
    points = all_points()
    results = runner.run(points)
    fig01 = fig01_multiobject_p2p(scale=SCALES[settings.SCALE])
    return {
        "engine": settings.REFERENCE_ENGINE,
        "points": {
            result_key(r): [list(r.samples), r.internode_messages]
            for r in results
        },
        "fig01": fig01.series,
    }


def write() -> int:
    doc = generate()
    with open(REFERENCE_PATH, "w") as fh:
        json.dump(doc, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return len(doc["points"])
