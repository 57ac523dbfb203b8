"""Declarative sweep points.

A :class:`Point` is everything :func:`repro.bench.microbench.run_point`
needs, as a frozen, hashable, picklable value object.  Figure sweeps build
lists of points; the runner decides how (and whether) to execute them.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, List, NamedTuple, Optional, Sequence

from repro.core.tuning import Thresholds
from repro.hw.params import MachineParams, bebop_broadwell

__all__ = ["Point", "ColumnSpec", "column_of", "columns_of", "expand_sweep"]


@dataclass(frozen=True)
class Point:
    """One microbenchmark point: a fully specified, independent simulation.

    ``params=None`` means the default testbed machine
    (:func:`~repro.hw.params.bebop_broadwell`); the cache key always uses
    the *resolved* parameters, so a changed default cannot alias stale
    entries.

    ``thresholds=None`` means the library's own defaults; a non-``None``
    value overrides the algorithm switch points (ablations).  It is part
    of the cache key — two ablation variants of the same library can never
    alias each other's cached results
    (``tests/bench/test_runner.py`` pins this).
    """

    library: str
    collective: str
    nodes: int
    ppn: int
    msg_bytes: int
    warmup: int = 1
    measure: int = 2
    params: Optional[MachineParams] = None
    thresholds: Optional[Thresholds] = None
    #: evaluation engine (see repro.bench.microbench.ENGINES).  Part of the
    #: cache key: ``event`` and ``auto`` are bit-identical by contract, and
    #: keeping their entries apart means a divergence between them cannot
    #: hide behind the cache.
    engine: str = "event"

    def spec_dict(self) -> Dict:
        """Canonical JSON-able description (stable cache-key input)."""
        return {**column_of(self).spec_dict(), "msg_bytes": self.msg_bytes}

    def label(self) -> str:
        """Short human-readable form for progress lines."""
        return (
            f"{self.library} {self.collective} "
            f"{self.nodes}x{self.ppn} {self.msg_bytes}B"
        )


class ColumnSpec(NamedTuple):
    """A *column*: every :class:`Point` field but ``msg_bytes``, so the
    sizes of one figure curve share it.

    A plain tuple underneath, so it hashes and compares like one and costs
    a fraction of a frozen :class:`Point` to build: a sweep is planned and
    looked up per column, and a :class:`Point` is built only for a size
    that must be evaluated (:meth:`point`).
    """

    library: str
    collective: str
    nodes: int
    ppn: int
    warmup: int = 1
    measure: int = 2
    params: Optional[MachineParams] = None
    thresholds: Optional[Thresholds] = None
    engine: str = "event"

    def point(self, msg_bytes: int) -> Point:
        """The column's point at ``msg_bytes``."""
        return Point(self.library, self.collective, self.nodes, self.ppn,
                     msg_bytes, *self[4:])

    def spec_dict(self) -> Dict:
        """:meth:`Point.spec_dict` without ``msg_bytes`` (the column
        cache key's input)."""
        params = self.params if self.params is not None else bebop_broadwell()
        return {
            "library": self.library,
            "collective": self.collective,
            "nodes": self.nodes,
            "ppn": self.ppn,
            "warmup": self.warmup,
            "measure": self.measure,
            "params": asdict(params),
            # None = library default; the library name is in the key, so a
            # default can never alias an explicit override
            "thresholds": (
                None if self.thresholds is None else asdict(self.thresholds)
            ),
            "engine": self.engine,
        }


def column_of(point: Point) -> ColumnSpec:
    """The column ``point`` belongs to."""
    return ColumnSpec(
        point.library, point.collective, point.nodes, point.ppn,
        point.warmup, point.measure, point.params, point.thresholds,
        point.engine,
    )


def columns_of(points: Sequence[Point]) -> Dict[ColumnSpec, List[int]]:
    """The indices of ``points`` grouped by column, columns in first-seen
    order and each column's indices in ``points`` order."""
    groups: Dict[tuple, List[int]] = {}
    for i, p in enumerate(points):
        # a plain tuple per point; one ColumnSpec per column
        groups.setdefault((p.library, p.collective, p.nodes, p.ppn, p.warmup,
                           p.measure, p.params, p.thresholds, p.engine),
                          []).append(i)
    return {ColumnSpec(*key): idxs for key, idxs in groups.items()}


def expand_sweep(
    collective: str,
    sizes: Sequence[int],
    libs: Sequence[str],
    nodes: int,
    ppn: int,
    params: Optional[MachineParams] = None,
    warmup: int = 1,
    measure: int = 2,
    engine: str = "event",
) -> List[Point]:
    """Expand a message-size sweep into points, size-major then library —
    the same order the serial loops used, so progress output and result
    ordering stay familiar."""
    return [
        Point(lib, collective, nodes, ppn, nbytes, warmup, measure, params,
              engine=engine)
        for nbytes in sizes
        for lib in libs
    ]
