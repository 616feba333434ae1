"""Block dissemination: the producer announces, replicas apply (Section IV-B).

The producer announces every block its chain seals (a bus subscription
wired by ``AnchorNode._bind``) through the gossip overlay or to every peer.
A replica drops a hop it has already seen before decoding it, buffers
blocks that overtook their predecessors, and applies every block —
announced or caught up — through one step, :meth:`BlockDissemination.apply`.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Optional

from repro.core.block import Block, canonical_text_hash
from repro.core.errors import ChainIntegrityError
from repro.core.events import ChainEvent
from repro.crypto.hashing import canonical_json
from repro.network.kernel import EventHandle
from repro.network.message import BlockFrame, Message, MessageKind
from repro.network.protocols import Protocol
from repro.network.transport import spawn

if TYPE_CHECKING:  # pragma: no cover - the node composes the protocols
    from repro.network.node import AnchorNode

#: Caps on the per-replica byzantine bookkeeping: a flood of invalid blocks
#: must cost the *sender* bandwidth, not the receiver memory.  Evictions are
#: counted so reports surface sustained floods.  The announcement cap also
#: bounds the out-of-order block buffer; honest traffic peaks at 1,702
#: buffered blocks (``lossy-sync`` benchmark parameters), well clear of it.
DEFAULT_REJECTED_BLOCKS_LIMIT = 256
DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT = 4096

#: A hole in the announced block sequence that outlives this much virtual
#: time was a lost gossip hop, not two hops overtaking each other: the
#: replica then asks the producer once for the blocks after its head.
GAP_PULL_AFTER_MS = 100.0


class BlockDissemination(Protocol):
    """Announces sealed blocks (producer) and applies announced ones."""

    HANDLES = {MessageKind.BLOCK_ANNOUNCE: "_handle_block_announce"}
    WINDOWS = {
        "rejected_blocks": DEFAULT_REJECTED_BLOCKS_LIMIT,
        "seen_announcements": DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT,
        "block_buffer": DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT,
    }

    def __init__(self, node: "AnchorNode") -> None:
        super().__init__(node)
        #: The newest rejected blocks with their reasons.
        self.rejected_blocks: deque[tuple[Block, str]] = deque(maxlen=self.WINDOWS["rejected_blocks"])
        #: Announced blocks that overtook their predecessors (gossip hops do
        #: under scheduled delivery), applied as the gaps fill; at the cap the
        #: block farthest from the head goes, counted with the seen-window's.
        self.block_buffer: dict[int, Block] = {}
        #: Hashes of every gossiped block already ingested — rejected ones
        #: too, so two neighbours never re-gossip an invalid block at each
        #: other forever.  A FIFO ring; re-ingesting an evicted hash is caught
        #: by the head-number check in :meth:`ingest`.
        self.seen_announcements: dict[str, None] = {}
        #: Pending check of a hole in :attr:`block_buffer`, and the ``(hole,
        #: producer)`` last pulled: one catch-up per hole and producer, so a
        #: hole across a marker shift costs one declined request, while a
        #: pull that met a dead producer is retried once a new one is elected.
        self._gap_check: Optional[EventHandle] = None
        self._gap_pulled: tuple[int, str] = (-1, "")
        self.counters = {"rejected_blocks_evicted": 0, "announcements_evicted": 0, "gap_pulls": 0}

    def _handle_block_announce(self, message: Message) -> Optional[Message]:
        # Hash the bytes on the wire first (a frame's text, a plain dict's
        # encoding): a gossip hop of a block already seen is dropped undecoded.
        framed = message.payload["block"]
        digest = canonical_text_hash(canonical_json(framed))
        gossip_meta = message.payload.get("gossip")
        if gossip_meta is not None and digest in self.seen_announcements:
            return None
        # Apply only what from_dict verified, and only if it is what was hashed.
        block = Block.from_dict(framed.fields if isinstance(framed, BlockFrame) else framed)
        if block.block_hash != digest:
            raise ChainIntegrityError(f"announced text of block {block.block_number} does not match its fields")
        node = self.node
        if gossip_meta is not None:
            # One-way gossip hop: ingest (buffering out-of-order arrivals)
            # and re-forward while the item is fresh.  No response travels
            # back — the transport discards return values of posts anyway.
            fresh = self.ingest(block)
            if self.block_buffer and self._gap_check is None:
                self._gap_check = self.transport.kernel.schedule(
                    GAP_PULL_AFTER_MS,
                    lambda: self._pull_gap(message),
                    label=f"gap-check:{node.node_id}",
                )
            if fresh and node.gossip is not None:
                self._forward(
                    str(gossip_meta.get("item", block.block_hash)),
                    framed,
                    hops=int(gossip_meta.get("hops", 0)) + 1,
                )
            return None
        # A direct announcement answers its sender, so a fork is not kept.
        reason = self.apply(block, keep_fork=False)
        if reason is not None:
            return message.error(node.node_id, reason)
        return message.reply(
            MessageKind.ACK,
            node.node_id,
            {"head": node.chain.head.block_number, "head_hash": node.chain.head.block_hash},
        )

    def apply(self, block: Block, *, keep_fork: bool = True) -> Optional[str]:
        """The one block-apply step: the consensus verdict, then
        ``receive_block``.

        Returns ``None`` once the block is on the chain, or the verdict's
        reason with the block kept in :attr:`rejected_blocks`.  A block
        that does not link to the head (a fork) raises
        :class:`ChainIntegrityError`, kept first unless ``keep_fork`` is
        false.
        """
        node = self.node
        verdict = node.engine.validate_block(block, node.chain.head)
        if not verdict.accepted:
            self.keep_rejected(block, verdict.reason)
            return verdict.reason
        try:
            node.chain.receive_block(block)
        except ChainIntegrityError as exc:
            if keep_fork:
                self.keep_rejected(block, str(exc))
            raise
        return None

    def _pull_gap(self, message: Message) -> None:
        """Catch up from the producer when a hole in the buffer outlived its
        grace period (no anti-entropy needs to be running)."""
        node = self.node
        self._gap_check = None
        hole = (node.chain.next_block_number, node.producer_id)
        self.discard_covered()
        unpulled = self.block_buffer and hole != self._gap_pulled
        if not unpulled or node.sync.in_progress or node.is_producer:
            return
        self._gap_pulled = hole
        self.counters["gap_pulls"] += 1
        pull = node.sync.catch_up_process(node.producer_id)
        spawn(self.transport.kernel, node._guarded(message, pull))

    def keep_rejected(self, block: Block, reason: str) -> None:
        """Remember a rejected block in the bounded window (oldest evicted)."""
        if len(self.rejected_blocks) == self.rejected_blocks.maxlen:
            self.counters["rejected_blocks_evicted"] += 1
        self.rejected_blocks.append((block, reason))

    def remember(self, block_hash: str) -> None:
        """Add a gossiped block hash to the bounded seen-window."""
        if block_hash in self.seen_announcements:
            return
        if len(self.seen_announcements) >= self.WINDOWS["seen_announcements"]:
            oldest = next(iter(self.seen_announcements))
            del self.seen_announcements[oldest]
            self.counters["announcements_evicted"] += 1
        self.seen_announcements[block_hash] = None

    def ingest(self, block: Block) -> bool:
        """Buffer an announced block and apply every consecutive one.

        Returns ``True`` when the block was new to this replica (worth
        re-forwarding), ``False`` for duplicates and already-covered numbers.
        """
        if block.block_hash in self.seen_announcements:
            return False
        if block.block_number <= self.node.chain.head.block_number:
            return False
        if block.block_number in self.block_buffer:
            return False
        self.remember(block.block_hash)
        self.block_buffer[block.block_number] = block
        if len(self.block_buffer) > self.WINDOWS["block_buffer"]:
            # Evict the block farthest from the head: the nearest ones are
            # what the drain below needs next.
            del self.block_buffer[max(self.block_buffer)]
            self.counters["announcements_evicted"] += 1
        self.drain()
        return True

    def discard_covered(self) -> None:
        """Drop buffered blocks the chain already covers."""
        next_number = self.node.chain.next_block_number
        for number in [number for number in self.block_buffer if number < next_number]:
            del self.block_buffer[number]

    def drain(self) -> None:
        """Apply buffered blocks while the next one is there; a forked one
        is kept in :attr:`rejected_blocks` (it already left the buffer) and
        its :class:`ChainIntegrityError` re-raised."""
        while True:
            block = self.block_buffer.pop(self.node.chain.next_block_number, None)
            if block is None:
                if not self.block_buffer and self._gap_check is not None:
                    self._gap_check.cancel()  # the hole filled in time
                    self._gap_check = None
                return
            if self.apply(block) is not None:
                return

    def on_block_sealed(self, event: ChainEvent) -> None:
        """Event-bus subscriber: announce every block the chain seals.

        One-way dissemination: seed the gossip overlay with the sealed block
        (peers re-forward hop by hop), or post it to every peer when there
        is no overlay.  Receivers buffer out-of-order arrivals either way.
        Its own hash is seen, so hops that bring it back are dropped
        undecoded.
        """
        block = event.payload.get("block")
        if isinstance(block, Block):
            self.remember(block.block_hash)
            self._forward(block.block_hash, BlockFrame(block.to_dict(), block.__canonical_json__()), hops=0)

    def _forward(self, item_key: str, block_payload: BlockFrame | dict, *, hops: int) -> None:
        node = self.node
        message = Message(
            kind=MessageKind.BLOCK_ANNOUNCE,
            sender=node.node_id,
            payload={
                "block": block_payload,
                "gossip": {"item": item_key, "hops": hops},
            },
        )
        targets = node.peers if node.gossip is None else node.gossip.targets(node.node_id, item_key)
        self.transport.publish(node.node_id, targets, message)
