"""Run counters and latency aggregation of the workload engine.

The paper's evaluation reports deletion latency as a single mean — which is
exactly the statistic that hides a long tail.  A mean can look healthy while
one request in a hundred waits an order of magnitude longer; percentile
reporting is what makes a saturation claim honest, so this module is the one
place latency samples are folded into report dictionaries:
:func:`percentile` implements the estimator and :func:`latency_summary`
produces the ``{count, mean, min, max, p50, p95, p99}`` block every driver
embeds under ``report["workloads"]``.

Determinism: the estimator is a pure function of the sample multiset (the
samples are sorted internally), results are rounded to six decimals like
every other reported number, and no randomness is involved — so reports stay
byte-identical per seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

#: The percentile levels every latency block reports, in report-key order.
PERCENTILE_LEVELS: tuple[tuple[str, float], ...] = (
    ("p50", 50.0),
    ("p95", 95.0),
    ("p99", 99.0),
)


def percentile(values: Sequence[float], level: float) -> float:
    """The ``level``-th percentile of ``values`` by linear interpolation.

    Uses the standard inclusive definition (the one a sorted-list oracle
    computes by hand): for ``n`` samples the rank of level ``q`` is
    ``(q / 100) * (n - 1)``; a fractional rank interpolates linearly between
    the two neighbouring order statistics.  ``p0`` is the minimum, ``p100``
    the maximum, a single sample is every percentile of itself, and an empty
    sample set reports ``0.0`` (matching the empty mean/min/max convention of
    the run statistics).
    """
    if not 0.0 <= level <= 100.0:
        raise ValueError(f"percentile level must lie in [0, 100], got {level}")
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (level / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = rank - lower
    return float(ordered[lower] + (ordered[upper] - ordered[lower]) * fraction)


def latency_summary(values: Iterable[float]) -> dict[str, Any]:
    """The deterministic latency block of the workload reports.

    Keys: ``count``, ``mean``, ``min``, ``max`` (the paper's original
    statistics) plus ``p50`` / ``p95`` / ``p99`` — the fleet percentiles a
    mean-only report cannot express.  All numbers are rounded to six
    decimals; an empty sample set reports zeros throughout.
    """
    samples = list(values)
    summary: dict[str, Any] = {
        "count": len(samples),
        "mean": round(sum(samples) / len(samples), 6) if samples else 0.0,
        "min": round(min(samples), 6) if samples else 0.0,
        "max": round(max(samples), 6) if samples else 0.0,
    }
    for key, level in PERCENTILE_LEVELS:
        summary[key] = round(percentile(samples, level), 6)
    return summary


def has_samples(summary: Any) -> bool:
    """Whether a :func:`latency_summary` block holds real measurements.

    An empty window reports ``p50/p95/p99 = 0.0`` with ``count = 0`` —
    indistinguishable from genuinely-zero latency by the percentile values
    alone.  Every consumer that *compares* percentiles (knee detectors,
    per-shard merges) must gate on this first, or an idle shard reads as an
    infinitely fast one.
    """
    try:
        return int(summary.get("count", 0)) > 0
    except AttributeError:
        return False


@dataclass
class WorkloadRunStats:
    """Per-workload counters collected while the driver executes.

    ``deletion_latency_ms`` values are *virtual* milliseconds between an
    approved deletion request and the marker shift that physically cut the
    target off — only measured on kernel deployments (the chain's event bus
    provides the execution signal, the kernel provides the clock).
    """

    workload: str = ""
    events_total: int = 0
    entries_submitted: int = 0
    entries_rejected: int = 0
    deletions_requested: int = 0
    #: Approvals *acknowledged to the client*.  On a lossy transport the
    #: response of an applied request can be lost, so chain-observed
    #: ``deletions_executed`` may legitimately exceed this counter (the
    #: at-least-once gap between the client plane and the chain plane).
    deletions_approved: int = 0
    deletions_executed: int = 0
    #: Approved deletions whose physical cut-off has not been observed —
    #: chain-observed when the driver tracks the event bus, the
    #: approved-minus-executed difference otherwise.
    deletions_pending: int = 0
    idle_events: int = 0
    idle_blocks: int = 0
    #: IDLE events whose tick round trip failed (e.g. the response was lost
    #: on a lossy transport) — the timeline continues regardless.
    idle_rejected: int = 0
    blocks_sealed: int = 0
    horizon_ms: float = 0.0
    deletion_latency_ms: list[float] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """Deterministic plain-dict view for scenario results and benchmarks.

        ``deletion_latency_ms`` reports the full percentile block of
        :func:`latency_summary` — count/mean/min/max alone hid the tail (a
        bimodal sample keeps a healthy mean while its p99 explodes; pinned
        by ``tests/test_fleet_driver.py``).
        """
        return {
            "workload": self.workload,
            "events_total": self.events_total,
            "entries_submitted": self.entries_submitted,
            "entries_rejected": self.entries_rejected,
            "deletions_requested": self.deletions_requested,
            "deletions_approved": self.deletions_approved,
            "deletions_executed": self.deletions_executed,
            "deletions_pending": self.deletions_pending,
            "idle_events": self.idle_events,
            "idle_blocks": self.idle_blocks,
            "idle_rejected": self.idle_rejected,
            "blocks_sealed": self.blocks_sealed,
            "horizon_ms": round(self.horizon_ms, 6),
            "deletion_latency_ms": latency_summary(self.deletion_latency_ms),
        }
