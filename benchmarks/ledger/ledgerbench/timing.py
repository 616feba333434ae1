"""The harness's only wall-clock read, and the order statistics it reports."""

from __future__ import annotations

import math
import statistics
import time
from typing import Any, Sequence


def wall() -> float:
    """Seconds on the host's monotonic clock."""
    # repro: allow[REPRO-D101] the benchmark measures host wall time by design
    return time.perf_counter()


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sample."""
    return float(statistics.median(values))


def quartiles(values: Sequence[float]) -> tuple[float, float]:
    """First and third quartile (``statistics.quantiles(n=4)``).

    A single reading has no spread; it is returned as both quartiles.
    """
    if len(values) < 2:
        return float(values[0]), float(values[0])
    q1, _, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q3)


def percentile(ordered: Sequence[float], share: float) -> float:
    """Nearest-rank percentile of an ascending sample (``share`` in (0, 1])."""
    return float(ordered[max(1, math.ceil(len(ordered) * share)) - 1])


def best(values: Sequence[float], better: str) -> float:
    """The best reading: interference on a shared host only ever slows one down."""
    return float(min(values) if better == "lower" else max(values))


def summarise(values: Sequence[float], better: str) -> dict[str, Any]:
    """Median, quartiles, best reading and sample count, with every reading made."""
    q1, q3 = quartiles(values)
    return {
        "median": median(values),
        "q1": q1,
        "q3": q3,
        "best": best(values, better),
        "n": len(values),
        "values": [float(value) for value in values],
    }
