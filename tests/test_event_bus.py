"""Tests for the typed event bus and the chain's audit trail.

Covers the dispatch contract (subscriber ordering, typed filtering,
unsubscribing during dispatch), the bounded audit log, the chain's event
taxonomy, and the snapshot round-trip of the trail.
"""

from repro.core import Blockchain, ChainConfig, EntryReference
from repro.core.events import (
    AUDIT_EVENT_TYPES,
    ChainEvent,
    EventBus,
    EventType,
)


def event(kind=EventType.MARKER_SHIFT, number=1, detail="x", **payload):
    return ChainEvent(block_number=number, kind=kind.value, detail=detail, payload=payload)


class TestDispatch:
    def test_subscribers_fire_in_subscription_order(self):
        bus = EventBus()
        calls = []
        bus.subscribe(lambda e: calls.append("first"))
        bus.subscribe(lambda e: calls.append("second"))
        bus.subscribe(lambda e: calls.append("third"))
        bus.publish(event())
        assert calls == ["first", "second", "third"]

    def test_typed_filtering(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.kind), types=(EventType.MARKER_SHIFT,))
        bus.publish(event(EventType.SUMMARY_CREATED))
        bus.publish(event(EventType.MARKER_SHIFT))
        bus.publish(event(EventType.DELETION_REQUESTED))
        assert seen == [EventType.MARKER_SHIFT.value]

    def test_subscribe_accepts_type_strings(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.kind), types=["marker-shift"])
        bus.publish(event(EventType.MARKER_SHIFT))
        assert seen == ["marker-shift"]

    def test_unsubscribe_stops_delivery(self):
        bus = EventBus()
        calls = []
        subscription = bus.subscribe(lambda e: calls.append(1))
        bus.publish(event())
        assert bus.unsubscribe(subscription)
        assert not bus.unsubscribe(subscription)  # idempotent
        bus.publish(event())
        assert calls == [1]

    def test_unsubscribe_other_subscriber_during_dispatch(self):
        """A subscriber cancelled mid-round is skipped in the same round."""
        bus = EventBus()
        calls = []
        subscriptions = {}

        def first(e):
            calls.append("first")
            bus.unsubscribe(subscriptions["third"])

        subscriptions["first"] = bus.subscribe(first)
        subscriptions["second"] = bus.subscribe(lambda e: calls.append("second"))
        subscriptions["third"] = bus.subscribe(lambda e: calls.append("third"))
        bus.publish(event())
        assert calls == ["first", "second"]

    def test_self_unsubscribe_during_dispatch(self):
        bus = EventBus()
        calls = []
        subscriptions = {}

        def once(e):
            calls.append("once")
            bus.unsubscribe(subscriptions["once"])

        subscriptions["once"] = bus.subscribe(once)
        bus.subscribe(lambda e: calls.append("steady"))
        bus.publish(event())
        bus.publish(event())
        assert calls == ["once", "steady", "steady"]

    def test_subscriber_count(self):
        bus = EventBus()
        s = bus.subscribe(lambda e: None)
        assert bus.subscriber_count == 1
        bus.unsubscribe(s)
        assert bus.subscriber_count == 0


class TestAuditLog:
    def test_bounded_truncation_keeps_newest(self):
        bus = EventBus(audit_limit=5)
        for number in range(12):
            bus.publish(event(number=number))
        log = bus.audit_log
        assert len(log) == 5
        assert [e.block_number for e in log] == [7, 8, 9, 10, 11]
        assert bus.published_count == 12

    def test_only_audit_types_are_retained(self):
        bus = EventBus()
        bus.publish(event(EventType.BLOCK_APPENDED))
        bus.publish(event(EventType.BLOCK_SEALED))
        bus.publish(event(EventType.SUMMARY_CREATED))
        assert [e.kind for e in bus.audit_log] == [EventType.SUMMARY_CREATED.value]
        assert EventType.BLOCK_APPENDED not in AUDIT_EVENT_TYPES

    def test_per_block_notifications_still_reach_subscribers(self):
        bus = EventBus()
        seen = []
        bus.subscribe(lambda e: seen.append(e.kind), types=(EventType.BLOCK_APPENDED,))
        bus.publish(event(EventType.BLOCK_APPENDED))
        assert seen == [EventType.BLOCK_APPENDED.value]

    def test_restore_replaces_the_log_and_keeps_the_newest(self):
        bus = EventBus(audit_limit=3)
        bus.publish(event(number=99))
        bus.restore_audit_log(event(number=number) for number in range(5))
        assert [e.block_number for e in bus.audit_log] == [2, 3, 4]
        bus.restore_audit_log([])
        assert bus.audit_log == []

    def test_event_round_trip(self):
        original = event(EventType.DELETION_REQUESTED, number=7, detail="d", approved=True)
        restored = ChainEvent.from_dict(original.to_dict())
        assert restored == original
        assert restored.type is EventType.DELETION_REQUESTED

    def test_non_json_payload_values_are_dropped_from_serialisation(self):
        raw = ChainEvent(
            block_number=1,
            kind=EventType.BLOCK_SEALED.value,
            detail="d",
            payload={"block": object(), "entries": 2},
        )
        assert raw.to_dict()["payload"] == {"entries": 2}


class TestChainIntegration:
    def build_chain(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            chain.add_entry_block({"D": f"Login {user}", "K": user, "S": f"sig_{user}"}, user)
        chain.request_deletion(EntryReference(3, 1), "BRAVO")
        chain.seal_block()
        chain.add_entry_block({"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
        return chain

    def test_chain_publishes_typed_taxonomy(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        kinds = []
        chain.bus.subscribe(lambda e: kinds.append(e.kind))
        chain.add_entry_block({"D": "Login A", "K": "A", "S": "sig_A"}, "A")
        assert EventType.BLOCK_APPENDED.value in kinds
        assert EventType.BLOCK_SEALED.value in kinds
        assert EventType.SUMMARY_CREATED.value in kinds

    def test_deletion_lifecycle_events(self):
        chain = self.build_chain()
        kinds = [e.kind for e in chain.events]
        assert EventType.DELETION_REQUESTED.value in kinds
        assert EventType.DELETION_EXECUTED.value in kinds
        requested = next(
            e for e in chain.events if e.kind == EventType.DELETION_REQUESTED.value
        )
        assert requested.payload["approved"] is True
        assert requested.payload["reference"] == {"block_number": 3, "entry_number": 1}

    def test_snapshot_round_trip_preserves_the_trail(self):
        chain = self.build_chain()
        restored = Blockchain.from_dict(chain.to_dict())
        assert [e.to_dict() for e in restored.events] == [
            e.to_dict() for e in chain.events
        ]
        assert restored.events  # the trail survived, not just an empty list

    def test_audit_limit_bounds_chain_trail(self):
        chain = Blockchain(
            ChainConfig.paper_evaluation(),
            event_bus=EventBus(audit_limit=4),
        )
        for i in range(20):
            chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
        assert len(chain.events) == 4
