"""Process groups for collective algorithms.

A :class:`Group` is an ordered set of global ranks; collective algorithms
address peers by *group index* and translate to global ranks for the wire.
The same algorithms therefore run over the world group (flat MPICH-style
collectives), one node's ranks (intranode phases), or the node-leader set
(hierarchical libraries).
"""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

__all__ = ["Group", "block_partition"]


class Group:
    """An ordered, duplicate-free set of global ranks."""

    __slots__ = ("ranks", "_index", "tag_key")

    def __init__(self, ranks: Sequence[int]):
        self.ranks: Tuple[int, ...] = tuple(ranks)
        if not self.ranks:
            raise ValueError("empty group")
        self._index: Dict[int, int] = {r: i for i, r in enumerate(self.ranks)}
        if len(self._index) != len(self.ranks):
            raise ValueError(f"duplicate ranks in group: {ranks}")
        #: stable identity derived from membership — the communicator
        #: "context id" analogue used to scope collective message tags so
        #: that concurrent collectives on different groups never match
        self.tag_key = hash(self.ranks)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def rank_at(self, index: int) -> int:
        return self.ranks[index % self.size]

    def index_of(self, rank: int) -> int:
        try:
            return self._index[rank]
        except KeyError:
            raise ValueError(f"rank {rank} not in group {self.ranks}") from None

    def __contains__(self, rank: int) -> bool:
        return rank in self._index

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Group({list(self.ranks)!r})"


def block_partition(count: int, parts: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """Split ``count`` elements into ``parts`` near-equal blocks.

    Returns ``(counts, displs)``; the first ``count % parts`` blocks get one
    extra element (MPI's standard block distribution).  Branch-free in
    ``count``, so a planner's size vector partitions element-wise instead
    of splitting its column by ``count % parts``.
    """
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    base, extra = divmod(count, parts)
    counts = tuple(base + (i < extra) for i in range(parts))
    displs = []
    acc = 0
    for c in counts:
        displs.append(acc)
        acc += c
    return counts, tuple(displs)
