"""Percentiles and the Prometheus text parser the benchmark shares."""

from __future__ import annotations

import math
import statistics
from typing import Dict, Optional, Sequence, Tuple

#: Percentiles a latency report may use, highest first.
PERCENTILES = (99.9, 99.0, 90.0, 50.0)

#: A percentile is reported only with at least this many samples beyond it.
MIN_TAIL = 10


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile: the smallest value with at least
    ``p`` percent of the samples at or below it."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return float(ordered[_rank(p, len(ordered)) - 1])


def _rank(p: float, n: int) -> int:
    """1-based nearest rank; the rounding keeps 99.9% of 10000 at 9990."""
    return max(1, math.ceil(round(p / 100.0 * n, 9)))


def tail_percentile(values: Sequence[float]) -> Tuple[Optional[float], Optional[float], int]:
    """``(p, value, n)`` for the highest percentile in :data:`PERCENTILES`
    that has at least :data:`MIN_TAIL` samples beyond it; ``p`` and
    ``value`` are None when even the median does not qualify."""
    n = len(values)
    for p in PERCENTILES:
        if n - _rank(p, n) >= MIN_TAIL:
            return p, percentile(values, p), n
    return None, None, n


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def parse_prometheus(text: str) -> Dict[str, float]:
    """``{"name{labels}": value}`` from the text exposition format."""
    out: Dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        try:
            out[key] = float(value)
        except ValueError:
            continue
    return out


def metric_sum(samples: Dict[str, float], name: str, **labels: str) -> float:
    """Sum of every series of *name* whose labels include *labels*."""
    total = 0.0
    for key, value in samples.items():
        base, _, rest = key.partition("{")
        if base != name:
            continue
        if all(f'{k}="{v}"' in rest for k, v in labels.items()):
            total += value
    return total
