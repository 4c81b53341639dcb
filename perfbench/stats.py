"""Order statistics with the tail rule the benchmark reports under.

A tail percentile is only reported as measured when at least
:data:`MIN_BEYOND` samples lie beyond it: p99 needs 1000 samples, p99.9
needs 10000.  Percentiles use the nearest-rank definition, so the value
reported is always one of the samples.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """Nearest-rank percentile ``q`` (0 < q <= 1) of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 1.0:
        raise ValueError(f"q must lie in (0, 1], got {q}")
    return float(ordered[_rank(len(ordered), q) - 1])


def _rank(count: int, q: float) -> int:
    # Round first: 0.99 * 1000 is 990.0000000000001 in binary floats.
    return max(1, math.ceil(round(q * count, 9)))


def samples_beyond(count: int, q: float) -> int:
    """How many of ``count`` samples lie strictly beyond percentile ``q``."""
    return count - _rank(count, q)


def tail_is_supported(count: int, q: float) -> bool:
    """True when percentile ``q`` of ``count`` samples may be reported."""
    return samples_beyond(count, q) >= MIN_BEYOND


def median_over(slices, statistic) -> float:
    """Median across time slices of a per-slice statistic.

    A burst of host noise shorter than half the run moves a minority of
    the slices, so the reported value does not move with it.
    """
    return float(statistics.median(statistic(part) for part in slices if part))
