"""In-memory transport connecting clients and anchor nodes.

This is the substitution for the paper's CORBA middleware: a deterministic
message fabric with per-link latency, fault injection (dropped links,
partitions, outages, seeded probabilistic loss) and full message statistics
for the evaluation harness.

Every transport runs on an :class:`~repro.network.kernel.EventKernel` —
the caller's, or one it builds for itself.  Every latency sample becomes a
*delivery time*: requests and responses are events on the kernel's virtual
clock, messages genuinely arrive out of order, and deliverability (offline
nodes, blocked links, partitions) is evaluated *at delivery time* — so a
message posted during a partition whose delivery time falls after the heal
does arrive, and one posted milliseconds before an outage can still be
lost.  Faults themselves can be scheduled as kernel events
(:meth:`InMemoryTransport.schedule_partition` and friends).

Handlers are plain callables ``Message -> Message | None``, or return a
kernel process that produces the reply later (an anchor forwarding to the
producer).  :meth:`InMemoryTransport.send_async` is the one request/response
exchange; :meth:`InMemoryTransport.post` is one-way dissemination (gossip,
block announcements), whose handler return value is discarded.  Both deliver
through the same request leg.

A protocol of several round trips is written once, as a *kernel process*: a
generator that yields one wave of requests at a time and is resumed with
their replies (:func:`spawn`).  The kernel refuses re-entry, so a caller
inside an event spawns the process; a blocking name (``catch_up``,
``RemoteLedgerClient.submit``) drives it from outside any event.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import partial
from types import GeneratorType
from typing import Any, Callable, Generator, Iterable, Optional

from repro.core.errors import SelectiveDeletionError
from repro.network.kernel import EventHandle, EventKernel
from repro.network.message import Message

#: A message handler registered by a node.
Handler = Callable[[Message], Any]

#: Starts one request; calls its argument with the reply when it lands.
Issuer = Callable[[Callable[[Optional[Message]], None]], None]

#: A kernel process: yields waves of issuers, is resumed with one
#: ``(reply, round_trip_ms)`` per issuer, returns its result.
Process = Generator[list[Issuer], list[tuple[Optional[Message], float]], Any]


class TransportError(SelectiveDeletionError):
    """Raised when a message cannot be delivered (unknown node, partition)."""


def spawn(
    kernel: EventKernel, process: Process, on_done: Optional[Callable[[Any], None]] = None
) -> None:
    """Start ``process``; ``on_done`` receives its return value.

    A wave departs at once and resumes the generator in the event that
    lands its last reply — it costs its slowest round trip, measured from
    the shared departure, not the sum.  A wave that lands on the spot
    (empty, or answered synchronously) resumes it in the same loop.
    """

    def resume(value: Any) -> None:
        while True:
            try:
                wave = process.send(value)
            except StopIteration as stop:
                if on_done is not None:
                    on_done(stop.value)
                return
            replies: list[tuple[Optional[Message], float]] = [(None, 0.0)] * len(wave)
            state = {"pending": len(wave), "deferred": False}
            started = kernel.now

            def land(index: int, reply: Optional[Message]) -> None:
                replies[index] = (reply, kernel.now - started)
                state["pending"] -= 1
                if state["pending"] == 0 and state["deferred"]:
                    resume(replies)

            for index, issue in enumerate(wave):
                issue(partial(land, index))
            if state["pending"]:
                state["deferred"] = True
                return
            value = replies

    resume(None)


def run_process(process: Process, kernel: Optional[EventKernel] = None) -> Any:
    """Step ``kernel`` until ``process`` returns — the driver behind every
    blocking name, so only callable outside a kernel event.  A process
    that never yields needs no kernel."""
    outcome: list[Any] = []
    spawn(kernel, process, outcome.append)  # type: ignore[arg-type]
    while not outcome:
        if kernel is None or not kernel.step():
            raise TransportError("process is waiting on a kernel that has nothing left to run")
    return outcome[0]


def blocking(process_fn: Callable[..., Process]) -> Callable[..., Any]:
    """The blocking twin of a process function or method: it runs the
    process on the kernel of its first argument (an object with a
    ``transport``, or a transport)."""

    def drive(owner: Any, *args: Any, **kwargs: Any) -> Any:
        kernel = getattr(owner, "transport", owner).kernel
        return run_process(process_fn(owner, *args, **kwargs), kernel)

    drive.__doc__ = f"Drive ``{process_fn.__name__}`` from outside any kernel event."
    return drive


@dataclass
class LatencyModel:
    """Deterministic pseudo-random latency per delivered message (in ms).

    The sample *is* the delivery delay.  The per-link hook
    :meth:`sample_for` lets subclasses shape latency by endpoint pair (see
    :class:`GeoLatencyModel`).
    """

    minimum_ms: float = 1.0
    maximum_ms: float = 20.0
    seed: int = 7

    def __post_init__(self) -> None:
        if self.minimum_ms < 0 or self.maximum_ms < self.minimum_ms:
            raise ValueError("latency bounds must satisfy 0 <= minimum <= maximum")
        self._random = random.Random(self.seed)

    def sample(self) -> float:
        """Draw one latency sample."""
        return self._random.uniform(self.minimum_ms, self.maximum_ms)

    def sample_for(self, sender: str, recipient: str) -> float:
        """Latency of one ``sender -> recipient`` message (default: :meth:`sample`)."""
        return self.sample()


@dataclass
class GeoLatencyModel(LatencyModel):
    """Latency shaped by a region assignment (geo-distributed deployments).

    Nodes map to named regions; messages crossing a region boundary pay a
    fixed ``cross_region_ms`` penalty on top of the base jitter.  Unmapped
    nodes fall into ``default_region``.
    """

    regions: dict[str, str] = field(default_factory=dict)
    cross_region_ms: float = 80.0
    default_region: str = "local"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.cross_region_ms < 0:
            raise ValueError("cross_region_ms must be non-negative")

    def region_of(self, node_id: str) -> str:
        """Region a node is pinned to."""
        return self.regions.get(node_id, self.default_region)

    def sample_for(self, sender: str, recipient: str) -> float:
        """Base jitter plus the cross-region penalty when regions differ."""
        base = self.sample()
        if self.region_of(sender) != self.region_of(recipient):
            return base + self.cross_region_ms
        return base


@dataclass
class TransportStatistics:
    """Counters the evaluation harness reads after a simulation run.

    ``delivery_latency_ms`` sums the per-message delivery latencies (the
    samples that decided *when* each message arrived).  Reports repeat the
    sum under its historical key ``simulated_latency_ms``.

    ``dropped`` counts messages undeliverable for *structural* reasons
    (offline node, blocked link, unknown recipient); ``lost`` counts
    messages eaten by the probabilistic loss model (``loss_rate``).  A lost
    message also increments ``dropped``, so the historical total is
    unchanged.

    ``timeouts`` is always 0 — no exchange carries a round-trip budget.  The
    key stays because every golden scenario digest hashes it.
    """

    delivered: int = 0
    dropped: int = 0
    lost: int = 0
    broadcasts: int = 0
    timeouts: int = 0
    bytes_transferred: int = 0
    delivery_latency_ms: float = 0.0

    def as_dict(self) -> dict[str, float]:
        """Plain-dict view for reports."""
        return {
            "delivered": self.delivered,
            "dropped": self.dropped,
            "lost": self.lost,
            "broadcasts": self.broadcasts,
            "timeouts": self.timeouts,
            "bytes_transferred": self.bytes_transferred,
            "delivery_latency_ms": round(self.delivery_latency_ms, 3),
            # Historical name, kept so existing report consumers keep working.
            "simulated_latency_ms": round(self.delivery_latency_ms, 3),
        }


class InMemoryTransport:
    """In-process message fabric with fault injection.

    Every message delivery is a scheduled event on ``kernel``; without one
    the transport builds its own :class:`~repro.network.kernel.EventKernel`.
    """

    def __init__(
        self,
        latency: Optional[LatencyModel] = None,
        *,
        kernel: Optional[EventKernel] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 23,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {loss_rate}")
        self.latency = latency or LatencyModel()
        self.kernel = kernel or EventKernel()
        #: Probability that any single delivery is silently eaten by the
        #: network (evaluated per message at delivery time, seeded — so runs
        #: replay identically).  Models the lossy links snapshot bootstrap
        #: must retransmit through.
        self.loss_rate = float(loss_rate)
        self._loss_random = random.Random(loss_seed)
        self.statistics = TransportStatistics()
        self._handlers: dict[str, Handler] = {}
        self._blocked_links: set[tuple[str, str]] = set()
        self._offline: set[str] = set()
        self.message_log: list[Message] = []

    # ------------------------------------------------------------------ #
    # Registration and fault injection
    # ------------------------------------------------------------------ #

    def register(self, node_id: str, handler: Handler) -> None:
        """Attach a node's message handler under its id."""
        if node_id in self._handlers:
            raise TransportError(f"node id {node_id!r} is already registered")
        self._handlers[node_id] = handler

    def set_offline(self, node_id: str, offline: bool = True) -> None:
        """Take a node off the network without unregistering it."""
        if offline:
            self._offline.add(node_id)
        else:
            self._offline.discard(node_id)

    def is_offline(self, node_id: str) -> bool:
        """True while the node is taken off the network."""
        return node_id in self._offline

    def block_link(self, first: str, second: str) -> None:
        """Drop all traffic between two nodes (both directions)."""
        self._blocked_links.add((first, second))
        self._blocked_links.add((second, first))

    def partition(self, group_a: list[str], group_b: list[str]) -> None:
        """Block every link between the two groups (Eclipse-style isolation)."""
        for a in group_a:
            for b in group_b:
                self.block_link(a, b)

    def heal_partition(self) -> None:
        """Remove all link blocks."""
        self._blocked_links.clear()

    def _path_open(self, sender: str, recipient: str) -> bool:
        """Link-level reachability (ignores handler registration)."""
        if sender in self._offline or recipient in self._offline:
            return False
        if (sender, recipient) in self._blocked_links:
            return False
        return True

    def _deliverable(self, sender: str, recipient: str) -> bool:
        if recipient not in self._handlers:
            return False
        return self._path_open(sender, recipient)

    def _loses(self) -> bool:
        """Draw the loss model for one delivery (no draw when lossless)."""
        if self.loss_rate <= 0.0:
            return False
        if self._loss_random.random() >= self.loss_rate:
            return False
        self.statistics.lost += 1
        self.statistics.dropped += 1
        return True

    # ------------------------------------------------------------------ #
    # Scheduled fault injection
    # ------------------------------------------------------------------ #

    def schedule_offline(self, node_id: str, at: float) -> EventHandle:
        """Take a node off the network at virtual time ``at``."""
        return self.kernel.schedule_at(
            at, lambda: self.set_offline(node_id, True), label=f"offline:{node_id}"
        )

    def schedule_partition(
        self, group_a: Iterable[str], group_b: Iterable[str], at: float
    ) -> EventHandle:
        """Split the network into two groups at virtual time ``at``."""
        first, second = list(group_a), list(group_b)
        return self.kernel.schedule_at(
            at, lambda: self.partition(first, second), label="partition"
        )

    def schedule_heal(self, at: float) -> EventHandle:
        """Remove every link block at virtual time ``at``.

        Messages already in flight whose delivery time falls after ``at``
        will arrive — the partition delayed them, it did not consume them.
        """
        return self.kernel.schedule_at(at, self.heal_partition, label="heal")

    # ------------------------------------------------------------------ #
    # Delivery
    # ------------------------------------------------------------------ #

    def _account_delivery(self, message: Message, latency_ms: float) -> None:
        self.statistics.delivered += 1
        self.statistics.delivery_latency_ms += latency_ms
        self.statistics.bytes_transferred += message.wire_size
        self.message_log.append(message)

    def _request_leg(
        self, recipient: str, message: Message, latency_ms: float
    ) -> tuple[Optional[str], Optional[Message]]:
        """Deliver ``message`` now: ``(fault, handler response)``.

        The one delivery leg every entry point shares.  Deliverability and
        loss are judged here, at delivery time; ``latency_ms`` is the sample
        that already decided the delivery instant.  A fault comes back as
        *text*, never as a :class:`Message`: building one draws a
        process-global message id (serialised into every later message), and
        a faulted :meth:`post` reports nothing.
        """
        sender = message.sender
        if not self._deliverable(sender, recipient):
            self.statistics.dropped += 1
            return f"link {sender!r} -> {recipient!r} unavailable", None
        if self._loses():
            return f"message {sender!r} -> {recipient!r} lost", None
        self._account_delivery(message, latency_ms)
        return None, self._handlers[recipient](message)

    def _response_leg(
        self, recipient: str, message: Message, response: Message, latency_ms: float
    ) -> Message:
        """Carry ``response`` back to the requester, or the loss notice."""
        if not self._path_open(recipient, message.sender):
            self.statistics.dropped += 1
        elif not self._loses():
            self._account_delivery(response, latency_ms)
            return response
        return message.error(
            "transport", f"response from {recipient!r} to {message.sender!r} lost"
        )

    def request(self, recipient: str, message: Message) -> Issuer:
        """One :meth:`send_async` exchange, as an item of a process's wave."""
        return lambda reply: self.send_async(recipient, message, on_response=reply)

    def exchange(self, recipient: str, message: Message) -> Process:
        """A process of one exchange; its result is the reply."""
        ((response, _),) = yield [self.request(recipient, message)]
        return response

    #: A blocked link or an offline party reads as an error reply (callers
    #: can retry another anchor node — Section V-B4); an unknown recipient
    #: raises :class:`TransportError`.
    send = blocking(exchange)

    def send_async(
        self,
        recipient: str,
        message: Message,
        *,
        on_response: Callable[[Optional[Message]], None],
    ) -> None:
        """The request/response exchange every protocol runs on.

        The request is delivered at ``now + latency``; ``on_response`` fires
        one response latency after the handler — or the process it returned
        — produces the reply.  Nothing blocks, so exchanges overlap fully in
        virtual time.  ``on_response`` receives the response, an error
        message for a transport fault, or ``None`` for a silent handler.
        """
        if recipient not in self._handlers:
            raise TransportError(f"unknown recipient {recipient!r}")
        request_latency = self.latency.sample_for(message.sender, recipient)

        def respond(response: Optional[Message]) -> None:
            if response is None:
                on_response(None)
                return
            response_latency = self.latency.sample_for(recipient, message.sender)
            self.kernel.schedule(
                response_latency,
                lambda: on_response(
                    self._response_leg(recipient, message, response, response_latency)
                ),
                label=f"respond:{message.kind.value}->{message.sender}",
            )

        def arrive() -> None:
            fault, response = self._request_leg(recipient, message, request_latency)
            if fault is not None:
                on_response(message.error("transport", fault))
            elif isinstance(response, GeneratorType):
                spawn(self.kernel, response, respond)
            else:
                respond(response)

        self.kernel.schedule(
            request_latency, arrive, label=f"deliver:{message.kind.value}->{recipient}"
        )

    def post(self, recipient: str, message: Message) -> EventHandle:
        """Fire-and-forget one-way delivery; any handler response is discarded.

        This is the primitive gossip and block announcements ride on.  The
        message is queued for delivery at ``now + latency`` and the call
        returns immediately — delivery (and the deliverability check)
        happens when the kernel reaches that instant, so posts genuinely
        arrive out of order and may outlive partitions.
        """
        latency = self.latency.sample_for(message.sender, recipient)
        return self.kernel.schedule(
            latency,
            lambda: self._request_leg(recipient, message, latency),
            label=f"post:{message.kind.value}->{recipient}",
        )

    def publish(self, sender: str, recipients: list[str], message: Message) -> int:
        """One-way fan-out via :meth:`post`; returns the number of posts."""
        self.statistics.broadcasts += 1
        posted = 0
        for recipient in recipients:
            if recipient == sender:
                continue
            self.post(recipient, message)
            posted += 1
        return posted
