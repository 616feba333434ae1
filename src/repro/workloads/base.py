"""Workload framework.

A workload is a deterministic (seeded) stream of :class:`WorkloadEvent`
objects — entry submissions, deletion requests and idle periods — that a
driver replays against a :class:`~repro.core.chain.Blockchain`, a baseline
system, or the network simulator.  The concrete generators model the
scenarios the paper motivates: login/audit logging (Section II and V),
Industry-4.0 product tracking and vehicle life-cycles (Section VI),
cryptocurrency transfers (Section I) and GDPR erasure arrivals (Section II).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Optional, Union

from repro.core.chain import Blockchain
from repro.core.entry import EntryReference
from repro.service.client import LedgerClient, LocalLedgerClient


class EventKind(str, Enum):
    """Kinds of workload events."""

    ENTRY = "entry"
    DELETION = "deletion"
    IDLE = "idle"


@dataclass(frozen=True)
class WorkloadEvent:
    """One event of a workload trace."""

    kind: EventKind
    author: str = ""
    data: dict[str, Any] = field(default_factory=dict)
    target: Optional[EntryReference] = None
    expires_at_time: Optional[int] = None
    expires_at_block: Optional[int] = None
    idle_ticks: int = 0


def arrival_schedule(
    workload: "Workload",
    *,
    mean_gap_ms: float,
    jitter: float = 0.5,
    ms_per_tick: float = 1.0,
) -> list[tuple[float, WorkloadEvent]]:
    """Assign deterministic virtual arrival times to a workload's events.

    Gaps between consecutive events are drawn uniformly from
    ``mean_gap_ms * [1 - jitter, 1 + jitter]`` using the workload's own seed,
    and IDLE events additionally advance the timeline by their tick count —
    so a scenario can hand the resulting ``(at_ms, event)`` pairs straight to
    the kernel and idle periods become genuine stretches of virtual time.
    """
    if mean_gap_ms <= 0:
        raise ValueError("mean_gap_ms must be positive")
    if not 0 <= jitter < 1:
        raise ValueError("jitter must lie in [0, 1)")
    rng = workload.fresh_rng()
    timeline: list[tuple[float, WorkloadEvent]] = []
    at = 0.0
    for event in workload:
        at += rng.uniform(mean_gap_ms * (1 - jitter), mean_gap_ms * (1 + jitter))
        if event.kind is EventKind.IDLE:
            at += event.idle_ticks * ms_per_tick
        timeline.append((round(at, 6), event))
    return timeline


class Workload:
    """Base class: a seeded, finite stream of events."""

    name = "abstract"

    def __init__(self, *, seed: int = 42) -> None:
        self.seed = seed
        self.random = random.Random(seed)

    def fresh_rng(self) -> random.Random:
        """A new generator seeded with the workload seed.

        Generator methods use this so that repeated calls (``events()``,
        ``cases()``, ``transfers()``) return identical streams instead of
        consuming shared random state.
        """
        return random.Random(self.seed)

    def events(self) -> Iterator[WorkloadEvent]:
        """Yield the workload's events; subclasses override."""
        raise NotImplementedError

    def __iter__(self) -> Iterator[WorkloadEvent]:
        return self.events()


@dataclass
class ReplayResult:
    """Statistics collected while replaying a workload against a chain."""

    entries: int = 0
    deletions: int = 0
    deletions_approved: int = 0
    idle_blocks: int = 0
    blocks_sealed: int = 0
    size_series: list[tuple[int, int]] = field(default_factory=list)
    length_series: list[tuple[int, int]] = field(default_factory=list)


def replay(
    workload: Workload,
    target: Union[Blockchain, LedgerClient],
    *,
    sample_every: int = 1,
) -> ReplayResult:
    """Replay a workload through the ledger-client protocol.

    ``target`` is any :class:`~repro.service.client.LedgerClient` — local
    chain, networked anchor deployment, or baseline adapter — so every
    workload replays unchanged against every backend.  Passing a bare
    :class:`Blockchain` wraps it in a
    :class:`~repro.service.client.LocalLedgerClient` for convenience.

    ``size_series`` / ``length_series`` record ``(total_blocks_created,
    living_bytes)`` and ``(total_blocks_created, living_block_count)`` so the
    growth benchmark can plot bounded-versus-unbounded behaviour (claim C1).
    """
    client = target if isinstance(target, LedgerClient) else LocalLedgerClient(target)
    result = ReplayResult()
    step = 0

    def sample() -> None:
        statistics = client.statistics()
        created = int(statistics.get("total_blocks_created", 0))
        result.size_series.append((created, int(statistics.get("byte_size", 0))))
        result.length_series.append((created, int(statistics.get("living_blocks", 0))))

    for event in workload:
        if event.kind is EventKind.ENTRY:
            receipt = client.submit(
                event.data,
                event.author,
                expires_at_time=event.expires_at_time,
                expires_at_block=event.expires_at_block,
            )
            result.entries += 1
            if receipt.ok:
                result.blocks_sealed += 1
        elif event.kind is EventKind.DELETION:
            assert event.target is not None
            receipt = client.request_deletion(event.target, event.author)
            result.deletions += 1
            if receipt.approved:
                result.deletions_approved += 1
            result.blocks_sealed += 1
        else:
            if client.tick(event.idle_ticks):
                result.idle_blocks += 1
                result.blocks_sealed += 1
        step += 1
        if sample_every and step % sample_every == 0:
            sample()
    sample()
    return result
