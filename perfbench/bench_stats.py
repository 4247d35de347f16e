"""Summary statistics for the benchmark: medians, the tail rule, spreads."""

from __future__ import annotations

import statistics
from typing import Sequence

TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (percentile, value).  With n sorted samples the nearest-rank
    percentile 100*(n-10)/n is the sample at rank n-10, which has exactly
    ten samples above it; no higher percentile does.  With ten samples or
    fewer no percentile qualifies, and the maximum is reported as p100.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("tail of an empty sample")
    if n <= TAIL_BEYOND:
        return 100.0, float(ordered[-1])
    rank = n - TAIL_BEYOND
    return 100.0 * rank / n, float(ordered[rank - 1])


def relative_spread(values: Sequence[float]) -> float:
    """Distance between the first and third quartiles as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else float("inf")
