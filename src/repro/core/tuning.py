"""Algorithm-selection thresholds for PiP-MColl (§IV-D).

The paper switches the allgather to its large-message algorithm at 64 kB
per-process message size (Fig. 13) and the allreduce at 8 k double counts,
i.e. 64 kB (Fig. 14).  The scatter uses one algorithm across all sizes
(§III-A1 / Fig. 12).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import ClassVar

from repro.util.units import KB

__all__ = ["Thresholds"]


@dataclass(frozen=True)
class Thresholds:
    """Size switch-points, in bytes of per-process message size."""

    #: a switch point no message size ever reaches: "never switch to the
    #: large-message algorithm"
    NEVER: ClassVar[int] = 1 << 62

    #: allgather: small-message Bruck below, multi-object ring at/above
    allgather_large_bytes: int = 64 * KB
    #: allreduce: Bruck-with-reduction below, reduce-scatter+ring at/above
    allreduce_large_bytes: int = 64 * KB

    def __post_init__(self) -> None:
        # stored as plain ints: a float or numpy threshold would compare
        # (NaN as "always large") but key the result cache differently or
        # not at all
        for name in ("allgather_large_bytes", "allreduce_large_bytes"):
            value = getattr(self, name)
            try:
                ok = not isinstance(value, bool) and operator.index(value) >= 0
            except TypeError:
                ok = False
            if not ok:
                raise ValueError(
                    f"{name} must be a non-negative integer, got {value!r}"
                )
            object.__setattr__(self, name, operator.index(value))

    @classmethod
    def always_small(cls) -> "Thresholds":
        """Force the small-message algorithms everywhere (the
        "PiP-MColl-small" variant of Figs. 13–14)."""
        return cls(
            allgather_large_bytes=cls.NEVER, allreduce_large_bytes=cls.NEVER
        )

    @classmethod
    def always_large(cls) -> "Thresholds":
        """Force the large-message algorithms everywhere (ablations)."""
        return cls(allgather_large_bytes=0, allreduce_large_bytes=0)
