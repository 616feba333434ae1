"""Storage and deletion metrics.

These helpers turn raw chain state and replay results into the numbers the
evaluation claims are about: bounded chain growth (claim C1), deletion
latency in blocks (claim C2) and summary-block size (claim C3).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.core.chain import Blockchain
from repro.core.events import ChainEvent, EventType, Subscription


@dataclass(frozen=True)
class GrowthPoint:
    """One sample of a growth curve."""

    blocks_created: int
    living_blocks: int
    living_bytes: int


def growth_curve(samples: Sequence[tuple[int, int]], sizes: Sequence[tuple[int, int]]) -> list[GrowthPoint]:
    """Merge length and size series from a replay into growth points."""
    merged: list[GrowthPoint] = []
    for (created_a, living), (created_b, size) in zip(samples, sizes):
        merged.append(
            GrowthPoint(
                blocks_created=max(created_a, created_b),
                living_blocks=living,
                living_bytes=size,
            )
        )
    return merged


def peak_living_blocks(curve: Sequence[GrowthPoint]) -> int:
    """Highest number of living blocks observed along a growth curve."""
    return max((point.living_blocks for point in curve), default=0)


def final_reduction_factor(
    selective_bytes: int,
    baseline_bytes: int,
) -> float:
    """How much smaller the selective-deletion chain is than the baseline."""
    if selective_bytes <= 0:
        return float("inf") if baseline_bytes > 0 else 1.0
    return baseline_bytes / selective_bytes


@dataclass(frozen=True)
class DeletionLatency:
    """Latency of one deletion, measured in blocks and clock ticks."""

    requested_at_block: int
    executed_at_block: int
    blocks_waited: int


class DeletionLatencyTracker:
    """Event-bus subscriber that accumulates deletion latencies live.

    Instead of polling chain state after the fact, the tracker subscribes to
    the typed ``deletion-requested`` / ``deletion-executed`` events and pairs
    them by target reference — the exact delay Section IV-D3 calls *delayed
    deletion* and the empty-block mechanism bounds.  Attach it to a running
    chain with :meth:`attach`, or feed a recorded trail through
    :meth:`consume` (which is how :func:`measure_deletion_latency` works).
    """

    def __init__(self) -> None:
        self._requested: dict[tuple[int, int], int] = {}
        self.latencies: list[DeletionLatency] = []

    def attach(self, chain: Blockchain) -> Subscription:
        """Subscribe to a chain's bus; returns the subscription handle."""
        return chain.bus.subscribe(
            self,
            types=(EventType.DELETION_REQUESTED, EventType.DELETION_EXECUTED),
        )

    def consume(self, events: Iterable[ChainEvent]) -> "DeletionLatencyTracker":
        """Feed a recorded audit trail through the tracker."""
        for event in events:
            self(event)
        return self

    def __call__(self, event: ChainEvent) -> None:
        reference = event.payload.get("reference") or {}
        key = (reference.get("block_number"), reference.get("entry_number"))
        if None in key:
            return
        if event.kind == EventType.DELETION_REQUESTED.value:
            if event.payload.get("approved"):
                # The first approved request for a target sets the clock.
                self._requested.setdefault(key, event.block_number)
        elif event.kind == EventType.DELETION_EXECUTED.value:
            requested_at = self._requested.pop(key, None)
            if requested_at is not None:
                self.latencies.append(
                    DeletionLatency(
                        requested_at_block=requested_at,
                        executed_at_block=event.block_number,
                        blocks_waited=event.block_number - requested_at,
                    )
                )


def measure_deletion_latency(chain: Blockchain) -> list[DeletionLatency]:
    """Extract per-deletion latencies from the chain's recorded audit trail.

    Pairs every approved ``deletion-requested`` event with the
    ``deletion-executed`` event of the same target reference.  For live
    measurement subscribe a :class:`DeletionLatencyTracker` instead — it uses
    the same pairing logic through the event bus.
    """
    return DeletionLatencyTracker().consume(chain.events).latencies


@dataclass(frozen=True)
class SummarySizeSample:
    """Size of one summary block and the data it absorbed."""

    block_number: int
    byte_size: int
    carried_entries: int
    merged_sequences: int


def summary_size_profile(chain: Blockchain) -> list[SummarySizeSample]:
    """Sizes of all living summary blocks (claim C3, Section V-B2)."""
    profile: list[SummarySizeSample] = []
    for block in chain.blocks:
        if not block.is_summary:
            continue
        profile.append(
            SummarySizeSample(
                block_number=block.block_number,
                byte_size=block.byte_size(),
                carried_entries=block.entry_count,
                merged_sequences=len(block.merged_sequences),
            )
        )
    return profile
