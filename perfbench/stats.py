"""Order statistics for the end-to-end report."""

from __future__ import annotations

import math

import numpy as np

TAIL_PERCENTILES = (99, 95, 90, 75)
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return percentile(values, 50)


def tail(values) -> tuple[float, str, int]:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it.

    Returns ``(value, label, samples beyond)``. When fewer than forty
    samples exist no percentile qualifies; p75 is reported then and the
    label says so, so a reader can see the tail rests on fewer samples.
    """
    n = len(values)
    for q in TAIL_PERCENTILES:
        beyond = math.floor(n * (100 - q) / 100)
        if beyond >= MIN_BEYOND:
            return percentile(values, q), f"p{q}", beyond
    beyond = math.floor(n * 25 / 100)
    return percentile(values, 75), f"p75 (fewer than {MIN_BEYOND} beyond)", beyond
