"""Typed chain events and the subscribable event bus.

The paper's anchor-node architecture separates *what the chain does* (seal,
summarize, delete — Section IV) from *who is told about it*: block
announcements, synchronisation checks and the evaluation's measurements all
observe the chain from the outside.  This module is that observation seam.

:class:`EventBus` replaces the chain façade's former unbounded ``events``
list with a publish/subscribe fabric:

* every state change of the chain is published as a :class:`ChainEvent`
  carrying a typed :class:`EventType`, a human-readable detail line and a
  structured payload,
* components subscribe to the types they care about — anchor nodes announce
  freshly sealed blocks, metrics collectors accumulate deletion latencies —
  instead of polling chain state or monkey-patching hooks,
* a **bounded audit log** retains the notable events (summaries, marker
  shifts, deletions, empty blocks) for reports and snapshot round-trips;
  the high-frequency ``block-appended`` / ``block-sealed`` notifications are
  dispatched to subscribers but not retained, because they are fully
  reconstructible from the blocks themselves.

Dispatch is synchronous and in subscription order; a subscriber that
unsubscribes (itself or another subscriber) during dispatch takes effect
immediately — the cancelled callback is skipped for the remainder of the
dispatch round.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Optional

#: Default number of audit events retained by a bus.
DEFAULT_AUDIT_LIMIT = 10_000


class EventType(str, Enum):
    """Taxonomy of everything the chain can tell the outside world."""

    #: A block (normal, received or summary) joined the living chain.
    BLOCK_APPENDED = "block-appended"
    #: The local node sealed pending entries into a new normal block.
    BLOCK_SEALED = "block-sealed"
    #: A summary block was computed for the due summary slot.
    SUMMARY_CREATED = "summary-created"
    #: The genesis marker moved; old blocks were physically cut off.
    MARKER_SHIFT = "marker-shift"
    #: A deletion request was evaluated (approved or rejected).
    DELETION_REQUESTED = "deletion-requested"
    #: An approved deletion physically took effect during a marker shift.
    DELETION_EXECUTED = "deletion-executed"
    #: The idle interval elapsed and an empty block was appended.
    EMPTY_BLOCK = "empty-block"


#: Event types retained in the bounded audit log (the chain's trail).  The
#: per-block notifications are excluded: they fire for every single block and
#: carry no information the blocks themselves do not.
AUDIT_EVENT_TYPES = frozenset(
    {
        EventType.SUMMARY_CREATED,
        EventType.MARKER_SHIFT,
        EventType.DELETION_REQUESTED,
        EventType.DELETION_EXECUTED,
        EventType.EMPTY_BLOCK,
    }
)


@dataclass
class ChainEvent:
    """One typed line of the chain's audit trail.

    ``kind`` is the string value of the :class:`EventType` (kept as a plain
    string so hand-built events and serialised trails stay representable);
    ``payload`` carries structured, JSON-serialisable context such as the
    deletion target reference or the new marker position.
    """

    block_number: int
    kind: str
    detail: str
    payload: dict[str, Any] = field(default_factory=dict)

    @property
    def type(self) -> Optional[EventType]:
        """The typed event kind, or ``None`` for unknown legacy kinds."""
        try:
            return EventType(self.kind)
        except ValueError:
            return None

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (snapshot persistence)."""
        payload = {
            key: value for key, value in self.payload.items() if _is_json_value(value)
        }
        return {
            "block_number": self.block_number,
            "kind": self.kind,
            "detail": self.detail,
            "payload": payload,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ChainEvent":
        """Rebuild an event from :meth:`to_dict` output."""
        return cls(
            block_number=int(data["block_number"]),
            kind=str(data["kind"]),
            detail=str(data.get("detail", "")),
            payload=dict(data.get("payload", {})),
        )

    def __str__(self) -> str:
        return f"[block {self.block_number}] {self.kind}: {self.detail}"


def _is_json_value(value: Any) -> bool:
    """True for values that serialise to JSON without a custom encoder."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return True
    if isinstance(value, (list, tuple)):
        return all(_is_json_value(item) for item in value)
    if isinstance(value, dict):
        return all(isinstance(k, str) and _is_json_value(v) for k, v in value.items())
    return False


#: A subscriber callback; exceptions propagate to the publisher.
Subscriber = Callable[[ChainEvent], None]


@dataclass(frozen=True)
class Subscription:
    """Handle returned by :meth:`EventBus.subscribe`; pass to ``unsubscribe``."""

    token: int
    types: Optional[frozenset[EventType]]

    def matches(self, event: ChainEvent) -> bool:
        """True when this subscription wants ``event``."""
        if self.types is None:
            return True
        event_type = event.type
        return event_type is not None and event_type in self.types


class EventBus:
    """Synchronous publish/subscribe fabric with a bounded audit log."""

    def __init__(
        self,
        *,
        audit_limit: int = DEFAULT_AUDIT_LIMIT,
    ) -> None:
        if audit_limit < 0:
            raise ValueError("audit_limit must be non-negative")
        self.audit_limit = audit_limit
        self._audit: deque[ChainEvent] = deque(maxlen=audit_limit or None)
        self._tokens = itertools.count(1)
        #: token -> (subscription, callback); insertion order == dispatch order.
        self._subscribers: dict[int, tuple[Subscription, Subscriber]] = {}
        self._published = 0

    # ------------------------------------------------------------------ #
    # Subscription management
    # ------------------------------------------------------------------ #

    def subscribe(
        self,
        callback: Subscriber,
        *,
        types: Optional[Iterable[EventType | str]] = None,
    ) -> Subscription:
        """Register ``callback`` for events of ``types`` (``None`` = all).

        Returns a :class:`Subscription` handle; subscribers fire in
        subscription order.
        """
        wanted = (
            None if types is None else frozenset(EventType(value) for value in types)
        )
        subscription = Subscription(token=next(self._tokens), types=wanted)
        self._subscribers[subscription.token] = (subscription, callback)
        return subscription

    def unsubscribe(self, subscription: Subscription) -> bool:
        """Remove a subscription; safe to call during dispatch.

        Returns ``True`` when the subscription was still registered.
        """
        return self._subscribers.pop(subscription.token, None) is not None

    @property
    def subscriber_count(self) -> int:
        """Number of active subscriptions."""
        return len(self._subscribers)

    # ------------------------------------------------------------------ #
    # Publishing
    # ------------------------------------------------------------------ #

    def publish(self, event: ChainEvent) -> ChainEvent:
        """Record ``event`` in the audit log and dispatch it to subscribers.

        Dispatch iterates a snapshot of the current subscribers but re-checks
        registration before every call, so unsubscribing (any subscription)
        from inside a callback takes effect within the same dispatch round.
        """
        self._published += 1
        event_type = event.type
        if event_type is not None and event_type in AUDIT_EVENT_TYPES and self.audit_limit:
            self._audit.append(event)
        for token, (subscription, callback) in list(self._subscribers.items()):
            if token not in self._subscribers:
                continue  # unsubscribed by an earlier callback this round
            if subscription.matches(event):
                callback(event)
        return event

    @property
    def published_count(self) -> int:
        """Total events ever published through this bus."""
        return self._published

    # ------------------------------------------------------------------ #
    # Audit log
    # ------------------------------------------------------------------ #

    @property
    def audit_log(self) -> list[ChainEvent]:
        """The retained audit events, oldest first (a bounded window)."""
        return list(self._audit)

    def restore_audit_log(self, events: Iterable[ChainEvent]) -> None:
        """Replace the audit log (snapshot load); keeps the newest entries."""
        self._audit.clear()
        self._audit.extend(events)

    def __len__(self) -> int:
        return len(self._audit)
