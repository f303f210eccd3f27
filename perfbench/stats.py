"""Order statistics used by every workload report.

Kept apart from ``repro.analysis.stats`` on purpose: a change to the
program under test must not change how the benchmark summarises it.
"""

from __future__ import annotations

import math
from typing import Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """The *q*-th percentile (0..100) by linear interpolation between ranks.

    Matches ``numpy.percentile``'s default ("linear") method.  Raises
    ``ValueError`` on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within [0, 100], got {q}")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return float(ordered[low])
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    """The 50th percentile."""
    return percentile(values, 50.0)


def mean(values: Sequence[float]) -> float:
    """Arithmetic mean; 0.0 for an empty sample."""
    return sum(values) / len(values) if values else 0.0
