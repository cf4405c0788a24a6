"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics


def mean(values) -> float:
    return float(statistics.fmean(values))


def median(values) -> float:
    return float(statistics.median(values))


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q``-quantile between the sample's min and max."""
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    position = q * (len(ordered) - 1)
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))


def geomean(values) -> float:
    return float(math.exp(statistics.fmean(math.log(v) for v in values)))
