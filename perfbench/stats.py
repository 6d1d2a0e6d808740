"""Latency summaries with the benchmark's sample-count rule.

A timing is reported as its median and its 95th percentile, and the
95th percentile is only trusted when at least ``MIN_BEYOND`` samples lie
beyond it.  ``samples_needed`` turns that rule into the sample count a
measured window must reach before it may end.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["MIN_BEYOND", "beyond_p95", "samples_needed", "summarize"]

#: Samples that must lie strictly beyond the reported p95.
MIN_BEYOND = 10


def _rank(n: int, q: float) -> int:
    """Nearest-rank index (0-based) of quantile ``q`` among ``n`` samples."""
    return max(0, math.ceil(q * n) - 1)


def beyond_p95(n: int) -> int:
    """How many of ``n`` sorted samples sit above the nearest-rank p95."""
    return n - (_rank(n, 0.95) + 1) if n else 0


def samples_needed() -> int:
    """The smallest sample count whose p95 has ``MIN_BEYOND`` samples past it."""
    n = MIN_BEYOND
    while beyond_p95(n) < MIN_BEYOND:
        n += 1
    return n


def summarize(samples: list[float]) -> dict:
    """``{"p50", "p95", "n", "beyond"}`` of latency samples (same unit in,
    same unit out).  ``p95`` is ``None`` when the rule is not met."""
    ordered = sorted(samples)
    n = len(ordered)
    if not n:
        return {"p50": None, "p95": None, "n": 0, "beyond": 0}
    beyond = beyond_p95(n)
    return {
        "p50": statistics.median(ordered),
        "p95": ordered[_rank(n, 0.95)] if beyond >= MIN_BEYOND else None,
        "n": n,
        "beyond": beyond,
    }
