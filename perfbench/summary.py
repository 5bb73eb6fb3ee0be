"""Order statistics for the benchmark's reported timings.

A percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it, so a tail figure never rests on one or two outliers.
"""

from __future__ import annotations

import math
from typing import Sequence

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """A percentile was asked of too few samples to report it."""


def nearest_rank(n: int, percent: float) -> int:
    """1-based nearest rank of ``percent`` among ``n`` sorted samples."""
    if n < 1:
        raise TooFewSamples("no samples")
    if not 0 < percent <= 100:
        raise ValueError(f"percent must be in (0, 100], got {percent}")
    # round() first: 99 * 1000 / 100 is 990.0000000000001 in binary.
    return max(1, math.ceil(round(percent * n / 100.0, 9)))


def samples_beyond(n: int, percent: float) -> int:
    """How many of ``n`` sorted samples rank above the percentile."""
    return n - nearest_rank(n, percent)


def min_samples(percent: float, beyond: int = MIN_BEYOND) -> int:
    """Smallest sample count that leaves ``beyond`` samples past it."""
    n = 1
    while samples_beyond(n, percent) < beyond:
        n += 1
    return n


def percentile(
    values: Sequence[float], percent: float, beyond: int = MIN_BEYOND
) -> float:
    """Nearest-rank percentile; raises :class:`TooFewSamples` unless at
    least ``beyond`` samples lie past it."""
    n = len(values)
    rank = nearest_rank(n, percent)
    if n - rank < beyond and percent < 100:
        raise TooFewSamples(
            f"p{percent:g} of {n} samples has {n - rank} beyond it, "
            f"fewer than {beyond}"
        )
    return sorted(values)[rank - 1]


def median(values: Sequence[float]) -> float:
    """Plain median (mean of the middle pair for even counts)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise TooFewSamples("no samples")
    mid = n // 2
    if n % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0
