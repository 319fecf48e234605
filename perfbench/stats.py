"""Order statistics used by the benchmark's reports."""

from __future__ import annotations

import math
import statistics

TAIL_BEYOND = 10


def median(values) -> float:
    return float(statistics.median(values))


def nearest_rank(values, pct: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``pct``% at or below it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def tail_percentile(n: int) -> int:
    """Highest whole percentile, at least 50, with ``TAIL_BEYOND`` samples above it.

    Under nearest rank, percentile p sits at rank ceil(p * n / 100), leaving
    n - rank samples beyond it. With fewer than 2 * ``TAIL_BEYOND`` samples no
    percentile from 50 up qualifies, and the median is reported instead.
    """
    if n < 1:
        raise ValueError("tail_percentile needs at least one sample")
    best = 50
    for p in range(50, 100):
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            best = p
    return best


def tail(values) -> tuple[int, float]:
    """(percentile, value) of the tail latency under the rule above."""
    pct = tail_percentile(len(values))
    return pct, nearest_rank(values, pct)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
