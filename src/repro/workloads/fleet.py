"""The workload → kernel traffic engine: one driver, one admission path.

:func:`~repro.workloads.base.replay` executes a workload synchronously —
event after event, no notion of time between them.  The paper's evaluation
is about application workloads (erasure requests, audit logs, telemetry)
exercising selective deletion under realistic network conditions, so
:class:`FleetDriver` books every :class:`~repro.workloads.base.WorkloadEvent`
of N seeded clients as a *kernel event* at its virtual arrival time, executed
against any :class:`~repro.service.client.LedgerClient` — in the named
scenarios a :class:`~repro.service.remote.RemoteLedgerClient` bound to a
replicated anchor deployment, so deletion latency, marker shifts and
anti-entropy interact with message latency, loss and partitions on virtual
time (the trace-driven style of the BlockSim-family simulators).

* :func:`derive_client_seed` derives one sub-seed per fleet client from the
  fleet seed (client 0 keeps the fleet seed itself);
* :func:`fleet_timeline` builds every client's
  :func:`~repro.workloads.base.arrival_schedule` timeline and interleaves
  them deterministically (sorted by arrival time, ties broken by client then
  position — a pure function of ``(seed, n_clients)``);
* :class:`FleetDriver` books every arrival on the shared
  :class:`~repro.network.kernel.EventKernel` *up front*; each fires at its
  scheduled time regardless of what completed — a real population of clients
  does not wait for each other.  ``in_flight_budget`` is the number of
  service slots.  An arrival that finds a slot free is issued; otherwise the
  typed :class:`FleetPolicy` decides: ``SHED`` drops the request on the
  floor (counted, never issued), ``QUEUE`` parks it in a client-side backlog
  that is admitted as slots free up.  Request latency is measured from the
  *scheduled arrival* to completion, so queueing delay is charged to the
  service instead of silently vanishing (no coordinated omission).

  Budget ``0`` is the closed loop — one slot that always queues, never
  sheds: request ``k+1`` departs at ``max(its arrival time, completion of
  k)``, a client that issues requests sequentially.  This is what every
  workload scenario runs at its default ``n_clients=1``.

Determinism: sub-seeds and timelines are pure functions of the fleet seed,
the kernel's seeded tie-break orders same-instant arrivals, and all reported
numbers are plain rounded floats — runs replay byte-identically per
``(seed, n_clients, budget, policy)``.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

from repro.core.events import ChainEvent, EventBus, EventType, Subscription
from repro.network.transport import Process, spawn
from repro.service.client import (
    LedgerClient,
    LedgerError,
    SubmitReceipt,
    TargetLike,
    as_reference,
)
from repro.workloads.base import EventKind, Workload, WorkloadEvent, arrival_schedule
from repro.workloads.stats import WorkloadRunStats, latency_summary

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.network.kernel import EventKernel

#: Hook invoked after every ENTRY submission:
#: ``(client_index, position, event, receipt)`` — ``position`` is the event's
#: index within *its own client's* timeline, so per-client application state
#: (reference maps, erasure schedules) keys naturally.
FleetSubmitHook = Callable[[int, int, WorkloadEvent, SubmitReceipt], None]

#: Domain tag for the sub-seed hash mix: every ``(seed, client_index)``
#: pair maps to an independent 64-bit stream key, so no two fleets share a
#: per-client sub-stream no matter how their fleet seeds relate.  (The
#: earlier additive prime stride made client ``i`` of seed ``s`` collide
#: with client ``i+1`` of seed ``s - stride`` — exactly what a sharded
#: deployment deriving per-shard fleet seeds would trip over.)
_CLIENT_SEED_DOMAIN = "fleet-client"


class FleetPolicy(str, Enum):
    """What happens to an arrival when the in-flight budget is exhausted."""

    #: Drop the request (counted under ``shed``, never issued) — the arrival
    #: process stays strictly open-loop and overload shows up as loss.
    SHED = "shed"
    #: Park the request in a client-side backlog admitted as slots free up —
    #: nothing is lost and overload shows up as queueing latency.
    QUEUE = "queue"


def derive_client_seed(seed: int, client_index: int) -> int:
    """The deterministic sub-seed of fleet client ``client_index``.

    Client 0 keeps ``seed`` unchanged (a one-client fleet runs the workload
    of that very seed); further clients hash-mix ``(seed, client_index)``
    through SHA-256 so distinct fleets never share a per-client sub-stream.
    """
    if client_index < 0:
        raise ValueError("client_index must be non-negative")
    if client_index == 0:
        return seed
    digest = hashlib.sha256(
        f"{_CLIENT_SEED_DOMAIN}:{seed}:{client_index}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big")


@dataclass(frozen=True)
class FleetArrival:
    """One scheduled request of the interleaved fleet timeline."""

    at_ms: float
    client_index: int
    position: int
    event: WorkloadEvent


def fleet_timeline(
    workloads: Sequence[Workload],
    *,
    mean_gap_ms: float,
    start_at_ms: float = 0.0,
) -> list[FleetArrival]:
    """Interleave every client's arrival schedule into one fleet timeline.

    Each workload is scheduled independently (its own seed, its own
    timeline), then the per-client streams merge sorted by
    ``(at_ms, client_index, position)`` — deterministic, and order-preserving
    within every client because a single client's schedule is already
    non-decreasing.
    """
    if start_at_ms < 0:
        raise ValueError("start_at_ms must be non-negative")
    arrivals: list[FleetArrival] = []
    for client_index, workload in enumerate(workloads):
        schedule = arrival_schedule(workload, mean_gap_ms=mean_gap_ms)
        arrivals.extend(
            FleetArrival(
                at_ms=round(start_at_ms + at, 6),
                client_index=client_index,
                position=position,
                event=event,
            )
            for position, (at, event) in enumerate(schedule)
        )
    arrivals.sort(key=lambda arrival: (arrival.at_ms, arrival.client_index, arrival.position))
    return arrivals


@dataclass
class FleetClientStats:
    """One fleet client: protocol counters plus its request latencies."""

    run: WorkloadRunStats
    request_latency_ms: list[float] = field(default_factory=list)
    executed: int = 0
    shed: int = 0

    def as_dict(self) -> dict[str, Any]:
        return {
            **self.run.as_dict(),
            "executed": self.executed,
            "shed": self.shed,
            "request_latency_ms": latency_summary(self.request_latency_ms),
        }


@dataclass
class FleetRunStats:
    """Fleet-aggregate counters plus the per-client breakdown.

    A one-client closed-loop run has no fleet to aggregate over, so
    :meth:`as_dict` reports it as the sole client's flat
    :class:`~repro.workloads.stats.WorkloadRunStats` block.  This is the one
    place that report shape is decided.
    """

    workload: str = ""
    n_clients: int = 0
    in_flight_budget: int = 0
    policy: str = FleetPolicy.QUEUE.value
    events_total: int = 0
    executed: int = 0
    shed: int = 0
    in_flight_peak: int = 0
    backlog_peak: int = 0
    horizon_ms: float = 0.0
    #: Virtual time at which the final arrival finished (or was shed) —
    #: under backlog this lies past the nominal horizon, and it is the
    #: denominator of the reported throughput.
    completed_at_ms: float = 0.0
    request_latency_ms: list[float] = field(default_factory=list)
    deletion_latency_ms: list[float] = field(default_factory=list)
    clients: list[FleetClientStats] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """Deterministic plain-dict view for scenario results and benchmarks."""
        if self.n_clients == 1 and self.in_flight_budget == 0:
            return self.clients[0].run.as_dict()
        elapsed = self.completed_at_ms
        throughput = (self.executed / elapsed * 1000.0) if elapsed > 0 else 0.0
        return {
            "workload": self.workload,
            "engine": "fleet",
            "mode": "closed-loop" if self.in_flight_budget == 0 else "open-loop",
            "n_clients": self.n_clients,
            "in_flight_budget": self.in_flight_budget,
            "policy": self.policy,
            "events_total": self.events_total,
            "executed": self.executed,
            "shed": self.shed,
            "in_flight_peak": self.in_flight_peak,
            "backlog_peak": self.backlog_peak,
            "horizon_ms": round(self.horizon_ms, 6),
            "completed_at_ms": round(self.completed_at_ms, 6),
            "throughput_per_s": round(throughput, 6),
            "request_latency_ms": latency_summary(self.request_latency_ms),
            "deletion_latency_ms": latency_summary(self.deletion_latency_ms),
            "clients": {
                f"client-{index}": client.as_dict()
                for index, client in enumerate(self.clients)
            },
        }


class FleetDriver:
    """Drives N independent seeded clients against a shared deployment.

    Parameters
    ----------
    workloads:
        One :class:`~repro.workloads.base.Workload` per fleet client —
        typically built with :func:`derive_client_seed` sub-seeds.
    clients:
        One :class:`~repro.service.client.LedgerClient` per fleet client
        (parallel to ``workloads``); every event of client ``i`` executes
        against ``clients[i]``.
    mean_gap_ms:
        Per-client mean arrival gap, forwarded to
        :func:`~repro.workloads.base.arrival_schedule`.  The fleet's offered
        load scales with ``n_clients / mean_gap_ms``.
    kernel:
        The :class:`~repro.network.kernel.EventKernel` to book arrivals on.
    bus:
        The producer chain's :class:`~repro.core.events.EventBus`.  When
        given, the driver subscribes to the typed deletion events and
        measures request→execution latency in virtual milliseconds.
    start_at_ms:
        Offset added to every arrival time.
    expiry_ms_per_tick:
        When set, temporary-entry bounds (``expires_at_time``, expressed in
        workload ticks) are rescaled into virtual milliseconds — chains on a
        :class:`~repro.core.clock.SimulationClock` measure time in kernel
        milliseconds, not workload ticks.  ``None`` passes the bounds through
        unchanged.
    in_flight_budget:
        Maximum number of requests admitted to service (issued, not yet
        completed) at any instant — shared across the whole fleet.  ``0``
        is the closed loop: one slot, queue only (see module docstring).
    policy:
        The :class:`FleetPolicy` applied when the budget is exhausted.
    lane_of:
        Optional service-lane selector.  By default the whole fleet drains
        through **one** service lane — requests round-trip strictly one at
        a time, which is the single-deployment model (and the source of its
        ~47 req/s ceiling).  A sharded deployment passes
        ``lane_of(arrival) -> lane`` (typically the arrival author's shard):
        round trips in *different* lanes overlap in virtual time — lane B's
        request departs while lane A's is still on the wire — so aggregate
        service rate scales with the number of lanes while each lane stays
        internally sequential.

    Every request is a kernel process of its client
    (:meth:`LedgerClient.submit_process` and friends), spawned on
    ``kernel``; a lane issues its next request when the process returns,
    so no round trip waits inside another kernel event.
    """

    def __init__(
        self,
        workloads: Sequence[Workload],
        clients: Sequence[LedgerClient],
        *,
        mean_gap_ms: float,
        kernel: "EventKernel",
        bus: Optional[EventBus] = None,
        start_at_ms: float = 0.0,
        expiry_ms_per_tick: Optional[float] = None,
        in_flight_budget: int = 8,
        policy: FleetPolicy | str = FleetPolicy.QUEUE,
        lane_of: Optional[Callable[[FleetArrival], int]] = None,
    ) -> None:
        if not workloads:
            raise ValueError("a fleet needs at least one client workload")
        if len(workloads) != len(clients):
            raise ValueError(
                f"{len(workloads)} workloads need {len(workloads)} ledger clients, "
                f"got {len(clients)}"
            )
        if in_flight_budget < 0:
            raise ValueError("in_flight_budget must be non-negative")
        if expiry_ms_per_tick is not None and expiry_ms_per_tick <= 0:
            raise ValueError("expiry_ms_per_tick must be positive when set")
        self.workloads = list(workloads)
        #: The lead workload — names the fleet in ``report["workloads"]``.
        self.workload = self.workloads[0]
        self.clients = list(clients)
        #: The query surface scenario bodies read through (lookups after
        #: traffic) — fleet client 0's ledger client.
        self.client = self.clients[0]
        self.kernel = kernel
        self.start_at_ms = float(start_at_ms)
        self.expiry_ms_per_tick = expiry_ms_per_tick
        self.in_flight_budget = int(in_flight_budget)
        self.policy = FleetPolicy(policy)
        self.lane_of = lane_of
        #: Service slots: budget 0 is the closed loop's single slot.
        self._slots = max(1, self.in_flight_budget)
        #: Optional :data:`FleetSubmitHook`, called after every ENTRY
        #: submission.
        self.on_submitted: Optional[FleetSubmitHook] = None
        #: Called once after the final arrival has completed or been shed.
        #: Under backlog the *actual* completion time can lie well past the
        #: nominal horizon, so post-traffic machinery (settle heartbeats,
        #: follow-up requests) must anchor here, not at ``schedule()``'s
        #: return value.
        self.on_finished: Optional[Callable[[], None]] = None
        self.timeline: list[FleetArrival] = fleet_timeline(
            self.workloads,
            mean_gap_ms=mean_gap_ms,
            start_at_ms=self.start_at_ms,
        )
        self.stats = FleetRunStats(
            workload=self.workload.name,
            n_clients=len(self.workloads),
            in_flight_budget=self.in_flight_budget,
            policy=self.policy.value,
            events_total=len(self.timeline),
            horizon_ms=self.timeline[-1].at_ms if self.timeline else 0.0,
            clients=[
                FleetClientStats(run=WorkloadRunStats(workload=workload.name))
                for workload in self.workloads
            ],
        )
        for arrival in self.timeline:
            client = self.stats.clients[arrival.client_index]
            client.run.events_total += 1
            client.run.horizon_ms = arrival.at_ms
        self._scheduled = False
        self._finished = False
        self._processed = 0
        self._in_flight = 0
        #: Lanes with a request in flight.
        self._busy: set[int] = set()
        self._service: dict[int, deque[FleetArrival]] = {}
        self._backlog: deque[FleetArrival] = deque()
        #: reference key -> virtual request time, for latency pairing.
        self._deletion_requested_at: dict[tuple[int, int], float] = {}
        #: reference key -> fleet client that issued the request; held only
        #: while the request is in flight or its latency clock is running.
        self._deletion_owner: dict[tuple[int, int], int] = {}
        self._latency_subscription: Optional[Subscription] = None
        self._bus = bus
        if bus is not None:
            self._latency_subscription = bus.subscribe(
                self._on_deletion_event,
                types=(EventType.DELETION_REQUESTED, EventType.DELETION_EXECUTED),
            )

    # ------------------------------------------------------------------ #
    # Booking
    # ------------------------------------------------------------------ #

    def schedule(self) -> float:
        """Book the fleet timeline on the kernel; returns the horizon.

        Every arrival is booked at its scheduled time up front — completions
        do not gate arrivals, and the arrival callbacks are O(1) (admit /
        queue / shed) so a round trip overrunning the next arrival cannot
        nest executions.
        """
        if self._scheduled:
            raise ValueError("the fleet timeline is already scheduled")
        self._scheduled = True
        if not self.timeline:
            self._finish()
        for arrival in self.timeline:
            self.kernel.schedule_at(
                max(arrival.at_ms, self.kernel.now),
                lambda arrival=arrival: self._on_arrival(arrival),
                label=self._label(arrival),
            )
        return self.stats.horizon_ms

    def _label(self, arrival: FleetArrival) -> str:
        return (
            f"fleet:{self.workload.name}:c{arrival.client_index}"
            f":{arrival.event.kind.value}:{arrival.position}"
        )

    # ------------------------------------------------------------------ #
    # Admission control
    # ------------------------------------------------------------------ #

    def _on_arrival(self, arrival: FleetArrival) -> None:
        if self._in_flight < self._slots:
            self._pump(self._enqueue(arrival))
        elif self.in_flight_budget and self.policy is FleetPolicy.SHED:
            self._shed(arrival)
        else:
            self._backlog.append(arrival)
            if len(self._backlog) > self.stats.backlog_peak:
                self.stats.backlog_peak = len(self._backlog)

    def _enqueue(self, arrival: FleetArrival) -> int:
        """Take a service slot and queue the arrival on its service lane."""
        lane = 0 if self.lane_of is None else self.lane_of(arrival)
        self._in_flight += 1
        if self._in_flight > self.stats.in_flight_peak:
            self.stats.in_flight_peak = self._in_flight
        self._service.setdefault(lane, deque()).append(arrival)
        return lane

    def _drain_backlog(self, current_lane: int) -> None:
        """Admit backlogged arrivals into freed slots, lane-routed.

        Same-lane admissions are picked up by the caller's pump; an idle
        other lane is entered directly (it self-guards while busy).
        """
        while self._backlog and self._in_flight < self._slots:
            lane = self._enqueue(self._backlog.popleft())
            if lane != current_lane:
                self._pump(lane)

    def _pump(self, lane: int) -> None:
        """Issue the lane's queued requests, one round trip at a time.

        Each lane keeps at most one request in flight.  A request that
        completes inside :meth:`_issue` (a client that answers
        synchronously) must not recurse through its completion callback: the
        ``sync``/``done`` state pair turns it back into a loop iteration.
        One that completes later re-enters the pump from that callback.
        """
        if lane in self._busy:
            return
        queue = self._service[lane]
        while queue:
            arrival = queue.popleft()
            self._busy.add(lane)
            state = {"sync": True, "done": False}

            def done(arrival: FleetArrival = arrival, state: dict = state) -> None:
                state["done"] = True
                self._busy.discard(lane)
                self._in_flight -= 1
                self._complete(arrival)
                self._drain_backlog(lane)
                if not state["sync"]:
                    self._pump(lane)

            self._issue(arrival, done)
            state["sync"] = False
            if not state["done"]:
                return

    def _issue(self, arrival: FleetArrival, done: Callable[[], None]) -> None:
        """Spawn one arrival's process, signalling completion through ``done``."""
        spawn(self.kernel, self._execute(arrival), lambda _: done())

    def _shed(self, arrival: FleetArrival) -> None:
        client = self.stats.clients[arrival.client_index]
        client.shed += 1
        self.stats.shed += 1
        self._processed += 1
        self.stats.completed_at_ms = self.kernel.now
        if self._processed >= self.stats.events_total:
            self._finish()

    def _complete(self, arrival: FleetArrival) -> None:
        client = self.stats.clients[arrival.client_index]
        client.executed += 1
        self.stats.executed += 1
        self._processed += 1
        latency = round(self.kernel.now - arrival.at_ms, 6)
        client.request_latency_ms.append(latency)
        self.stats.request_latency_ms.append(latency)
        self.stats.completed_at_ms = self.kernel.now
        if self._processed >= self.stats.events_total:
            self._finish()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        if self.on_finished is not None:
            self.on_finished()

    # ------------------------------------------------------------------ #
    # Event execution
    # ------------------------------------------------------------------ #

    def _execute(self, arrival: FleetArrival) -> Process:
        """One arrival: an entry, a deletion or an idle tick."""
        event = arrival.event
        stats = self.stats.clients[arrival.client_index].run
        client = self.clients[arrival.client_index]
        if event.kind is EventKind.ENTRY:
            receipt = yield from client.submit_process(
                event.data,
                event.author,
                expires_at_time=self._rescale_expiry(event.expires_at_time),
                expires_at_block=event.expires_at_block,
            )
            self._tally_entry(arrival, receipt)
        elif event.kind is EventKind.DELETION:
            assert event.target is not None
            yield from self.request_deletion_process(
                event.target, event.author, client_index=arrival.client_index
            )
        else:
            stats.idle_events += 1
            try:
                idle_block = yield from client.tick_process(event.idle_ticks)
            except LedgerError:
                # Unlike submit/request_deletion, the tick protocol path
                # raises on a failed round trip (a lost response on a lossy
                # transport).  One lost tick must not abort the timeline.
                stats.idle_rejected += 1
                return
            if idle_block:
                stats.idle_blocks += 1
                stats.blocks_sealed += 1

    def _tally_entry(self, arrival: FleetArrival, receipt: SubmitReceipt) -> None:
        stats = self.stats.clients[arrival.client_index].run
        stats.entries_submitted += 1
        if receipt.ok:
            stats.blocks_sealed += 1
        else:
            stats.entries_rejected += 1
        if self.on_submitted is not None:
            self.on_submitted(arrival.client_index, arrival.position, arrival.event, receipt)

    def request_deletion_process(
        self,
        target: TargetLike,
        author: str,
        *,
        reason: str = "",
        client_index: int = 0,
    ) -> Process:
        """Request deletion of ``target`` through fleet client ``client_index``.

        Scenario hooks spawn application-level erasures through here so the
        issuing client's counters and the latency tracker see them exactly
        like stream-borne DELETION events.  Returns the receipt.
        """
        stats = self.stats.clients[client_index].run
        reference = as_reference(target)
        key = (reference.block_number, reference.entry_number)
        owns = self._latency_subscription is not None and key not in self._deletion_owner
        if owns:
            self._deletion_owner[key] = client_index
        receipt = yield from self.clients[client_index].request_deletion_process(
            reference, author, reason=reason
        )
        if owns and not receipt.approved and key not in self._deletion_requested_at:
            # No latency clock started, so nothing will be attributed to
            # this request: forget its owner.
            self._deletion_owner.pop(key, None)
        stats.deletions_requested += 1
        if receipt.ok:
            stats.blocks_sealed += 1
            if receipt.approved:
                stats.deletions_approved += 1
        if self._latency_subscription is None:
            stats.deletions_pending = stats.deletions_approved - stats.deletions_executed
        return receipt

    def _rescale_expiry(self, expires_at_time: Optional[int]) -> Optional[int]:
        if expires_at_time is None or self.expiry_ms_per_tick is None:
            return expires_at_time
        return int(round(self.start_at_ms + expires_at_time * self.expiry_ms_per_tick))

    # ------------------------------------------------------------------ #
    # Virtual-time deletion latency
    # ------------------------------------------------------------------ #

    def _on_deletion_event(self, event: ChainEvent) -> None:
        reference = event.payload.get("reference") or {}
        key = (reference.get("block_number"), reference.get("entry_number"))
        if None in key:
            return
        owner = self._deletion_owner.get(key, 0)
        stats = self.stats.clients[owner].run
        if event.kind == EventType.DELETION_REQUESTED.value:
            if event.payload.get("approved") and key not in self._deletion_requested_at:
                # The first approved request for a target starts the clock.
                self._deletion_requested_at[key] = self.kernel.now
                stats.deletions_pending += 1
        elif event.kind == EventType.DELETION_EXECUTED.value:
            requested_at = self._deletion_requested_at.pop(key, None)
            self._deletion_owner.pop(key, None)
            if requested_at is not None:
                latency = round(self.kernel.now - requested_at, 6)
                stats.deletions_executed += 1
                stats.deletions_pending -= 1
                stats.deletion_latency_ms.append(latency)
                self.stats.deletion_latency_ms.append(latency)

    def close(self) -> None:
        """Detach the latency subscription (idempotent)."""
        if self._latency_subscription is not None and self._bus is not None:
            self._bus.unsubscribe(self._latency_subscription)
            self._latency_subscription = None
