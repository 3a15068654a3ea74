"""Order statistics for the benchmark's timings.

A timing is reported as its median and the highest percentile that has
at least ten samples beyond it. For p90 that means at least 100
samples; with fewer the p90 is not reported (None).
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence

__all__ = ["MIN_BEYOND", "median", "percentile"]

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def percentile(samples: Sequence[float], q: float) -> float | None:
    """The ``q``-th percentile (nearest rank), or None when fewer than
    :data:`MIN_BEYOND` samples lie beyond it."""
    if not 0 < q < 100:
        raise ValueError(f"percentile must be in (0, 100), got {q}")
    n = len(samples)
    if n * (100 - q) / 100 < MIN_BEYOND:
        return None
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * n))
    return ordered[rank - 1]

