"""Client service: the requests light clients send an anchor node.

Section V-B4: clients *"obtain the current status quo of the blockchain"*
from any anchor node.  Lookups and statistics are served from the local
replica; submissions and idle ticks are producer-only, so a replica
forwards them to the producer and relays whatever it answered.
"""

from __future__ import annotations

from typing import Any

from repro.core.clock import SimulationClock
from repro.core.entry import Entry, EntryReference
from repro.network.message import Message, MessageKind
from repro.network.protocols import Protocol
from repro.network.transport import Process


class ClientService(Protocol):
    """Serves submissions, idle ticks, lookups and statistics."""

    HANDLES = {
        MessageKind.SUBMIT_ENTRY: "_handle_submit",
        MessageKind.SUBMIT_DELETION: "_handle_submit",
        MessageKind.IDLE_TICK: "_handle_idle_tick",
        MessageKind.FIND_ENTRY: "_handle_find_entry",
        MessageKind.QUERY_STATISTICS: "_handle_statistics",
    }

    def _forward_to_producer(self, message: Message) -> Process:
        """Forward a producer-only message; reply with whatever it said."""
        response = yield from self.transport.exchange(self.node.producer_id, message)
        if response is None:
            return message.error(self.node.node_id, "producer did not respond")
        return response

    def _handle_submit(self, message: Message) -> Any:
        if not self.node.is_producer:
            return self._forward_to_producer(message)
        chain = self.node.chain
        entry = Entry.from_dict(message.payload["entry"])
        decision = chain.submit_signed_entry(entry)
        payload: dict[str, Any] = {}
        if decision is not None:
            payload["deletion_status"] = decision.status.value
            payload["deletion_reason"] = decision.reason
        block = chain.seal_block()
        payload["block_number"] = block.block_number
        payload["entry_number"] = len(block.entries)
        return message.reply(MessageKind.ACK, self.node.node_id, payload)

    def _handle_idle_tick(self, message: Message) -> Any:
        if not self.node.is_producer:
            return self._forward_to_producer(message)
        ticks = int(message.payload.get("ticks", 1))
        if ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {ticks}")
        clock = self.node.chain.clock
        if isinstance(clock, SimulationClock):
            # Kernel time cannot be advanced from inside this delivery: the
            # reply waits the idle window out instead.
            return self._idle_tick_after(message, ticks * clock.ms_per_tick)
        clock.advance(ticks)
        return self._idle_tick_reply(message)

    def _idle_tick_after(self, message: Message, wait_ms: float) -> Process:
        yield [lambda wake: self.transport.kernel.schedule(wait_ms, lambda: wake(None))]
        return self._idle_tick_reply(message)

    def _idle_tick_reply(self, message: Message) -> Message:
        block = self.node.chain.idle_tick()
        payload: dict[str, Any] = {"appended": block is not None}
        if block is not None:
            payload["block_number"] = block.block_number
        return message.reply(MessageKind.ACK, self.node.node_id, payload)

    def _handle_find_entry(self, message: Message) -> Message:
        # Lookups are served from the local replica — any anchor can answer.
        reference = EntryReference.from_dict(message.payload["reference"])
        located = self.node.chain.find_entry(reference)
        if located is None:
            return message.reply(MessageKind.SYNC_RESPONSE, self.node.node_id, {"found": False})
        block, entry = located
        return message.reply(
            MessageKind.SYNC_RESPONSE,
            self.node.node_id,
            {"found": True, "block_number": block.block_number, "entry": entry.to_dict()},
        )

    def _handle_statistics(self, message: Message) -> Message:
        return message.reply(
            MessageKind.SYNC_RESPONSE,
            self.node.node_id,
            {"statistics": self.node.chain.statistics()},
        )
