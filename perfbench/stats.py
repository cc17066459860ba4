"""Order statistics over benchmark samples.

Failed or refused operations enter a latency sample as ``math.inf``: they
count as missing any latency limit, so a percentile that lands on one reads
as infinite instead of silently improving.
"""

from __future__ import annotations

import math
import statistics
from collections.abc import Sequence
from dataclasses import dataclass

__all__ = ["Percentile", "percentile", "median"]


@dataclass(frozen=True)
class Percentile:
    """One nearest-rank percentile with the sample counts behind it."""

    q: float
    value: float
    samples: int
    #: Samples strictly above the percentile's rank (the tail that supports it).
    beyond: int

    @property
    def supported(self) -> bool:
        """At least ten samples lie beyond the percentile."""
        return self.beyond >= 10


def percentile(samples: Sequence[float], q: float) -> Percentile:
    """Nearest-rank ``q``-th percentile (``0 < q < 100``) of ``samples``."""
    if not 0.0 < q < 100.0:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    n = len(ordered)
    rank = max(1, math.ceil(q / 100.0 * n))
    return Percentile(q=q, value=ordered[rank - 1], samples=n, beyond=n - rank)


def median(values: Sequence[float]) -> float:
    return statistics.median(values)

