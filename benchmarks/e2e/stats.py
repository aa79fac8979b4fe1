"""Order statistics shared by the runner and ``compare.py``.

Percentiles are nearest-rank: the p-th percentile of n samples is the
smallest sample with at least p% of the samples at or below it, so it
is always a measured value.  A percentile is only reported when at
least :data:`MIN_BEYOND` samples lie beyond it; with fewer, it is the
maximum of a handful of samples and moves with every outlier.
"""

from __future__ import annotations

import math
import statistics
from typing import Sequence, Tuple

#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank *q*-th percentile (0 < q <= 100) of *values*."""
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < q <= 100:
        raise ValueError(f"percentile {q} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count: int, q: float) -> int:
    """Samples strictly above the nearest-rank *q*-th percentile rank."""
    return count - max(math.ceil(q / 100 * count), 1)


def supported(count: int, q: float) -> bool:
    """Whether *count* samples leave :data:`MIN_BEYOND` beyond p*q*."""
    return samples_beyond(count, q) >= MIN_BEYOND


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as
    ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Distance between the quartiles as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else math.inf
