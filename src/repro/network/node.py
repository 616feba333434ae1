"""Anchor nodes and clients.

Section IV-A: anchor nodes *"manage the full copy of the blockchain and build
the quorum"*; clients *"obtain the current status quo of the blockchain"*
from them (Section V-B4).  In this reproduction each :class:`AnchorNode`
holds its own :class:`~repro.core.chain.Blockchain` replica.  One node acts
as the block producer (the concrete leader-election mechanism is outside the
paper's scope); every other node replays the announced blocks and computes
the summary blocks locally, then the quorum compares summary hashes as the
synchronisation check of Section IV-B.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from types import GeneratorType
from typing import Any, Callable, Optional

from repro.consensus.base import ConsensusEngine, NullConsensus
from repro.core.block import Block, canonical_text_hash
from repro.core.chain import Blockchain
from repro.core.clock import SimulationClock
from repro.core.errors import (
    ChainIntegrityError,
    SelectiveDeletionError,
    SynchronisationError,
)
from repro.core.deletion import build_deletion_request
from repro.core.entry import Entry, EntryReference
from repro.core.events import ChainEvent, EventType, Subscription
from repro.crypto.hashing import canonical_json
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_scheme, sign_entry
from repro.network.gossip import GossipOverlay
from repro.network.kernel import EventHandle, KernelError
from repro.network.message import BlockFrame, Message, MessageKind
from repro.network.transport import InMemoryTransport, Process, blocking, run_process, spawn
from repro.sync.bootstrap import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MAX_RETRIES,
    BootstrapError,
    BootstrapReport,
    SnapshotChunkCache,
    fetch_snapshot_process,
    fetch_snapshot_striped_process,
)
from repro.storage.snapshot import chain_from_payload


#: What a handler or the process it started may raise on a bad request or
#: reply; each is answered with a typed rejection (:meth:`AnchorNode._rejection`).
_REJECTED = (SelectiveDeletionError, KeyError, TypeError, ValueError)


#: Caps on the per-replica byzantine bookkeeping, mirroring the EventBus
#: audit log: a flood of invalid blocks must cost the *sender* bandwidth,
#: not the receiver memory.  Both windows keep the newest items; evictions
#: are counted in ``sync_stats`` so reports surface sustained floods.  The
#: announcement cap also bounds the out-of-order block buffer, which keeps
#: the blocks *nearest* the head; honest traffic peaks at 1,702 buffered
#: blocks (``lossy-sync`` benchmark parameters), well clear of it.
DEFAULT_REJECTED_BLOCKS_LIMIT = 256
DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT = 4096

#: A hole in the announced block sequence that outlives this much virtual
#: time was a lost gossip hop, not two hops overtaking each other: the
#: replica then asks the producer once for the blocks after its head.
GAP_PULL_AFTER_MS = 100.0


@dataclass
class SyncReport:
    """Result of one summary-hash synchronisation round."""

    block_number: int
    own_hash: str
    peer_results: dict[str, bool] = field(default_factory=dict)

    @property
    def diverged_peers(self) -> list[str]:
        """Peers whose locally computed summary block differs from ours."""
        return sorted(peer for peer, matches in self.peer_results.items() if not matches)

    @property
    def in_sync(self) -> bool:
        """True when every reachable peer agrees."""
        return not self.diverged_peers


class CatchUpStatus(str, Enum):
    """Why a synchronisation attempt ended the way it did."""

    #: Missed blocks were replayed; the replica now matches the peer's head.
    ADOPTED = "adopted"
    #: The peer had nothing newer; the replica was already up to date.
    ALREADY_CURRENT = "already-current"
    #: The peer never answered (offline, partitioned, or every retry lost).
    PEER_UNREACHABLE = "peer-unreachable"
    #: The gap spans a genesis-marker shift: the peer no longer serves the
    #: blocks this replica would need next — only a snapshot bootstrap
    #: (:meth:`AnchorNode.bootstrap_from`) can converge it.
    SNAPSHOT_REQUIRED = "snapshot-required"
    #: The consensus engine rejected a replayed block; replay stopped there.
    BLOCK_REJECTED = "block-rejected"
    #: :meth:`AnchorNode.synchronize` adopted a peer snapshot over the wire.
    BOOTSTRAPPED = "bootstrapped"


@dataclass(frozen=True)
class CatchUpResult:
    """Outcome of :meth:`AnchorNode.catch_up` / :meth:`AnchorNode.synchronize`.

    ``adopted`` counts the normal blocks replayed incrementally; ``detail``
    explains declines (which blocks are no longer served, which peer did not
    answer, why a block was rejected).
    """

    status: CatchUpStatus
    adopted: int = 0
    detail: str = ""

    @property
    def declined(self) -> bool:
        """True when the replica could not (fully) converge on the peer."""
        return self.status in (
            CatchUpStatus.PEER_UNREACHABLE,
            CatchUpStatus.SNAPSHOT_REQUIRED,
            CatchUpStatus.BLOCK_REJECTED,
        )


class AnchorNode:
    """A server node holding a full replica of the blockchain."""

    def __init__(
        self,
        node_id: str,
        chain: Blockchain,
        transport: InMemoryTransport,
        *,
        engine: Optional[ConsensusEngine] = None,
        is_producer: bool = False,
        producer_id: Optional[str] = None,
        gossip: Optional[GossipOverlay] = None,
    ) -> None:
        self.node_id = node_id
        self.transport = transport
        self.engine = engine or NullConsensus()
        self.is_producer = is_producer
        self.producer_id = producer_id or node_id
        #: When set, seal announcements disseminate hop-by-hop through this
        #: overlay instead of going to every peer directly.
        self.gossip = gossip
        self.peers: list[str] = []
        #: Bounded window over the most recently rejected blocks: a
        #: byzantine peer re-announcing invalid blocks forever must not be
        #: able to exhaust replica memory.  Evictions are counted in
        #: ``sync_stats["rejected_blocks_evicted"]``.
        self.rejected_blocks: deque[tuple[Block, str]] = deque(
            maxlen=DEFAULT_REJECTED_BLOCKS_LIMIT
        )
        #: Announced blocks that arrived ahead of their predecessors.  Under
        #: scheduled delivery gossip hops genuinely overtake each other, so
        #: replicas buffer out-of-order announcements and apply them as the
        #: gaps fill (live replication stays byte-identical, Section IV-B).
        #: Capped at ``DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT`` entries; evictions
        #: share the seen-window's counter.
        self._block_buffer: dict[int, Block] = {}
        #: Pending check of a hole in :attr:`_block_buffer` (see
        #: ``GAP_PULL_AFTER_MS``), and the ``(hole, producer)`` last pulled:
        #: one catch-up per hole and producer, so a hole that spans a marker
        #: shift costs one declined request and is left to anti-entropy's
        #: snapshot path, while a pull that met a dead producer is retried
        #: once a new one is elected.
        self._gap_check: Optional[EventHandle] = None
        self._gap_pulled: tuple[int, str] = (-1, "")
        #: Hashes of every gossiped block this node has already ingested —
        #: including rejected ones, so an invalid block is never re-forwarded
        #: (two neighbours re-gossiping a rejected block at each other would
        #: otherwise ping-pong forever).  An insertion-ordered dict used as a
        #: FIFO ring (like the EventBus audit log): when the cap is reached
        #: the oldest hash is evicted and counted.  Safety does not depend on
        #: the window — re-ingesting an evicted hash is caught by the
        #: head-number check in :meth:`_ingest_announced_block`.
        self._seen_announcements: dict[str, None] = {}
        self._seen_announcements_limit = DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT
        #: While a digest-triggered pull process is running, further digests
        #: reaching this node must not start a second, overlapping pull.
        self._sync_in_progress = False
        #: Most advanced ``(peer, head)`` digest absorbed by the guard; the
        #: pull loop chases it once the running pull completes, so a pull
        #: from a lagging peer cannot strand the replica behind a peer whose
        #: digest happened to arrive mid-pull.
        self._deferred_digest: Optional[tuple[str, int]] = None
        #: Replica-synchronisation counters, aggregated into simulation
        #: reports by :class:`repro.sync.antientropy.AntiEntropyService`.
        self.sync_stats: dict[str, int] = {
            "digests_received": 0,
            "digests_behind": 0,
            "digests_diverged": 0,
            "catch_ups": 0,
            "blocks_replayed": 0,
            "digests_pushed_back": 0,
            "bootstraps": 0,
            "bootstrap_bytes": 0,
            "bootstrap_retransmits": 0,
            "chunks_served": 0,
            "snapshot_probes_served": 0,
            "rejected_blocks_evicted": 0,
            "announcements_evicted": 0,
            "gap_pulls": 0,
        }
        self._announce_subscription: Optional[Subscription] = None
        self._bind(chain)
        transport.register(node_id, self.handle_message)

    def _bind(self, chain: Optional[Blockchain] = None) -> None:
        """Wire this node to ``chain``, or re-wire the current one after a
        role change.

        Binding a chain installs the consensus finalizer hook and the
        snapshot chunk cache, the serving side of the bootstrap protocol
        (the serialised chain is cached per head, so streaming N chunks and
        their retransmissions serialises once).  Either way the producer —
        and only the producer — ends up subscribed to ``block-sealed``: it
        announces every block its chain seals, whether a submission, a
        direct ``seal_block`` or an idle tick triggered the seal.
        """
        if self._announce_subscription is not None:
            self.chain.bus.unsubscribe(self._announce_subscription)
            self._announce_subscription = None
        if chain is not None:
            self.chain = chain
            if chain.block_finalizer is None:
                chain.block_finalizer = self.engine.prepare_block
            self._snapshot_cache = SnapshotChunkCache(chain)
        if self.is_producer:
            self._announce_subscription = self.chain.bus.subscribe(
                self._on_block_sealed, types=(EventType.BLOCK_SEALED,)
            )

    # ------------------------------------------------------------------ #
    # Peer management
    # ------------------------------------------------------------------ #

    def connect(self, peer_ids: list[str]) -> None:
        """Record the ids of the other anchor nodes."""
        self.peers = [peer for peer in peer_ids if peer != self.node_id]

    # ------------------------------------------------------------------ #
    # Message handling
    # ------------------------------------------------------------------ #

    def handle_message(self, message: Message) -> Any:
        """Dispatch an incoming protocol message; the reply may be a process."""
        handlers = {
            MessageKind.SUBMIT_ENTRY: self._handle_submit,
            MessageKind.SUBMIT_DELETION: self._handle_submit,
            MessageKind.IDLE_TICK: self._handle_idle_tick,
            MessageKind.FIND_ENTRY: self._handle_find_entry,
            MessageKind.QUERY_STATISTICS: self._handle_statistics,
            MessageKind.BLOCK_ANNOUNCE: self._handle_block_announce,
            MessageKind.SUMMARY_HASH: self._handle_summary_hash,
            MessageKind.SYNC_REQUEST: self._handle_sync_request,
            MessageKind.SYNC_DIGEST: self._handle_sync_digest,
            MessageKind.SNAPSHOT_REQUEST: self._handle_snapshot_request,
            MessageKind.VOTE_REQUEST: self._handle_vote_request,
            MessageKind.PRODUCER_CHANGE: self._handle_producer_change,
        }
        handler = handlers.get(message.kind)
        if handler is None:
            return message.error(self.node_id, f"unsupported message kind {message.kind.value}")
        try:
            reply = handler(message)
        except KernelError:
            raise  # a re-entered kernel is a bug in this node, not a bad request
        except _REJECTED as exc:
            return self._rejection(message, exc)
        return self._guarded(message, reply) if isinstance(reply, GeneratorType) else reply

    def _rejection(self, message: Message, exc: Exception) -> Message:
        """The typed error reply for a protocol error or a malformed payload.

        A missing or wrong-typed payload field — in the request, or in a
        peer's reply a process consumes — is the *sender's* fault; it must
        come back as a rejection, not propagate out of the delivery event
        and abort the whole kernel run.
        """
        if isinstance(exc, SelectiveDeletionError):
            return message.error(self.node_id, str(exc))
        return message.error(
            self.node_id,
            f"malformed {message.kind.value} payload: {type(exc).__name__}: {exc}",
        )

    def _guarded(self, message: Message, process: Process) -> Process:
        """A process started by ``message``: its errors are answered like a
        handler's own, never raised out of the event that resumed it."""
        try:
            return (yield from process)
        except KernelError:
            raise
        except _REJECTED as exc:
            return self._rejection(message, exc)

    def _forward_to_producer(self, message: Message) -> Process:
        """Forward a producer-only message; reply with whatever it said."""
        response = yield from self.transport.exchange(self.producer_id, message)
        if response is None:
            return message.error(self.node_id, "producer did not respond")
        return response

    def _handle_submit(self, message: Message) -> Any:
        if not self.is_producer:
            return self._forward_to_producer(message)
        entry = Entry.from_dict(message.payload["entry"])
        decision = self.chain.submit_signed_entry(entry)
        payload: dict[str, Any] = {}
        if decision is not None:
            payload["deletion_status"] = decision.status.value
            payload["deletion_reason"] = decision.reason
        block = self.chain.seal_block()
        payload["block_number"] = block.block_number
        payload["entry_number"] = len(block.entries)
        return message.reply(MessageKind.ACK, self.node_id, payload)

    def _handle_idle_tick(self, message: Message) -> Any:
        if not self.is_producer:
            return self._forward_to_producer(message)
        ticks = int(message.payload.get("ticks", 1))
        if ticks < 0:
            raise ValueError(f"ticks must be non-negative, got {ticks}")
        clock = self.chain.clock
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
        block = self.chain.idle_tick()
        payload: dict[str, Any] = {"appended": block is not None}
        if block is not None:
            payload["block_number"] = block.block_number
        return message.reply(MessageKind.ACK, self.node_id, payload)

    def _handle_find_entry(self, message: Message) -> Message:
        # Lookups are served from the local replica — any anchor can answer.
        reference = EntryReference.from_dict(message.payload["reference"])
        located = self.chain.find_entry(reference)
        if located is None:
            return message.reply(MessageKind.SYNC_RESPONSE, self.node_id, {"found": False})
        block, entry = located
        return message.reply(
            MessageKind.SYNC_RESPONSE,
            self.node_id,
            {"found": True, "block_number": block.block_number, "entry": entry.to_dict()},
        )

    def _handle_statistics(self, message: Message) -> Message:
        return message.reply(
            MessageKind.SYNC_RESPONSE,
            self.node_id,
            {"statistics": self.chain.statistics()},
        )

    def _handle_block_announce(self, message: Message) -> Optional[Message]:
        # Hash the bytes on the wire first (a frame's text, a plain dict's
        # encoding): a gossip hop of a block already seen is dropped undecoded.
        framed = message.payload["block"]
        digest = canonical_text_hash(canonical_json(framed))
        gossip_meta = message.payload.get("gossip")
        if gossip_meta is not None and digest in self._seen_announcements:
            return None
        # Apply only what from_dict verified, and only if it is what was hashed.
        block = Block.from_dict(framed.fields if isinstance(framed, BlockFrame) else framed)
        if block.block_hash != digest:
            raise ChainIntegrityError(f"announced text of block {block.block_number} does not match its fields")
        if gossip_meta is not None:
            # One-way gossip hop: ingest (buffering out-of-order arrivals)
            # and re-forward while the item is fresh.  No response travels
            # back — the transport discards return values of posts anyway.
            fresh = self._ingest_announced_block(block)
            if self._block_buffer and self._gap_check is None:
                self._gap_check = self.transport.kernel.schedule(
                    GAP_PULL_AFTER_MS,
                    lambda: self._pull_gap(message),
                    label=f"gap-check:{self.node_id}",
                )
            if fresh and self.gossip is not None:
                self._gossip_forward(
                    str(gossip_meta.get("item", block.block_hash)),
                    framed,
                    hops=int(gossip_meta.get("hops", 0)) + 1,
                )
            return None
        verdict = self.engine.validate_block(block, self.chain.head)
        if not verdict.accepted:
            self._record_rejected_block(block, verdict.reason)
            return message.error(self.node_id, verdict.reason)
        self.chain.receive_block(block)
        return message.reply(
            MessageKind.ACK,
            self.node_id,
            {"head": self.chain.head.block_number, "head_hash": self.chain.head.block_hash},
        )

    def _pull_gap(self, message: Message) -> None:
        """Catch up from the producer when a hole in the buffer outlived its
        grace period (no anti-entropy needs to be running)."""
        self._gap_check = None
        hole = (self.chain.next_block_number, self.producer_id)
        for number in [number for number in self._block_buffer if number < hole[0]]:
            del self._block_buffer[number]  # covered since it was buffered
        unpulled = self._block_buffer and hole != self._gap_pulled
        if not unpulled or self._sync_in_progress or self.is_producer:
            return
        self._gap_pulled = hole
        self.sync_stats["gap_pulls"] += 1
        pull = self.catch_up_process(self.producer_id)
        spawn(self.transport.kernel, self._guarded(message, pull))

    def _record_rejected_block(self, block: Block, reason: str) -> None:
        """Remember a rejected block in the bounded window (oldest evicted)."""
        if len(self.rejected_blocks) == self.rejected_blocks.maxlen:
            self.sync_stats["rejected_blocks_evicted"] += 1
        self.rejected_blocks.append((block, reason))

    def _remember_announcement(self, block_hash: str) -> None:
        """Add a gossiped block hash to the bounded seen-window."""
        if block_hash in self._seen_announcements:
            return
        if len(self._seen_announcements) >= self._seen_announcements_limit:
            oldest = next(iter(self._seen_announcements))
            del self._seen_announcements[oldest]
            self.sync_stats["announcements_evicted"] += 1
        self._seen_announcements[block_hash] = None

    def _ingest_announced_block(self, block: Block) -> bool:
        """Buffer an announced block and apply every consecutive one.

        Returns ``True`` when the block was new to this replica (worth
        re-forwarding), ``False`` for duplicates and already-covered numbers.
        """
        if block.block_hash in self._seen_announcements:
            return False
        if block.block_number <= self.chain.head.block_number:
            return False
        if block.block_number in self._block_buffer:
            return False
        self._remember_announcement(block.block_hash)
        self._block_buffer[block.block_number] = block
        if len(self._block_buffer) > DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT:
            # Evict the block farthest from the head: the nearest ones are
            # what the drain below needs next.
            del self._block_buffer[max(self._block_buffer)]
            self.sync_stats["announcements_evicted"] += 1
        self._drain_block_buffer()
        return True

    def _drain_block_buffer(self) -> None:
        while True:
            block = self._block_buffer.pop(self.chain.next_block_number, None)
            if block is None:
                if not self._block_buffer and self._gap_check is not None:
                    self._gap_check.cancel()  # the hole filled in time
                    self._gap_check = None
                return
            verdict = self.engine.validate_block(block, self.chain.head)
            if not verdict.accepted:
                self._record_rejected_block(block, verdict.reason)
                return
            try:
                self.chain.receive_block(block)
            except ChainIntegrityError as exc:
                # A forked announcement: already out of the buffer, so keep
                # it where catch_up keeps the same case before re-raising.
                self._record_rejected_block(block, str(exc))
                raise

    def _handle_vote_request(self, message: Message) -> Message:
        """Vote on a producer-failover proposal (Section IV-A quorum duty).

        The ballot names a candidate and the head block number it claims;
        this replica approves when the candidate is at least as up to date
        as itself — under real message delay replicas progress unevenly, so
        the vote outcome (and its timing) depends on who has seen what.
        """
        candidate = str(message.payload.get("candidate", ""))
        claimed_head = int(message.payload.get("candidate_head", -1))
        approve = bool(candidate) and claimed_head >= self.chain.head.block_number
        return message.reply(
            MessageKind.VOTE_RESPONSE,
            self.node_id,
            {
                "proposal_id": message.payload.get("proposal_id"),
                "approve": approve,
                "head": self.chain.head.block_number,
            },
        )

    def _handle_producer_change(self, message: Message) -> Message:
        """Adopt a quorum-decided producer change."""
        self.set_producer(str(message.payload["producer"]))
        return message.reply(
            MessageKind.ACK, self.node_id, {"producer": self.producer_id}
        )

    def set_producer(self, producer_id: str) -> None:
        """Point this node at a (possibly new) block producer.

        Becoming the producer attaches the seal-announcement subscription;
        losing the role detaches it, so exactly one node announces.
        """
        self.producer_id = producer_id
        becoming = producer_id == self.node_id
        if becoming != self.is_producer:
            self.is_producer = becoming
            self._bind()

    def _handle_summary_hash(self, message: Message) -> Message:
        block_number = int(message.payload["block_number"])
        expected_hash = str(message.payload["block_hash"])
        try:
            own = self.chain.block_by_number(block_number)
        except KeyError:
            return message.reply(
                MessageKind.SYNC_RESPONSE, self.node_id, {"match": False, "reason": "block unknown"}
            )
        matches = own.is_summary and own.block_hash == expected_hash
        return message.reply(MessageKind.SYNC_RESPONSE, self.node_id, {"match": matches})

    def _handle_sync_request(self, message: Message) -> Message:
        from_number = int(message.payload.get("from_block", self.chain.genesis_marker))
        if message.payload.get("contiguous") and from_number < self.chain.genesis_marker:
            # A catch-up needs the blocks *right after* the requester's head,
            # and those were physically deleted by a marker shift.  Decline
            # without shipping the living chain — the requester would have
            # to discard it and bootstrap anyway, so serialising it here
            # would just double the bytes of every wire bootstrap.
            return message.reply(
                MessageKind.SYNC_RESPONSE,
                self.node_id,
                {
                    "blocks": [],
                    "genesis_marker": self.chain.genesis_marker,
                    "snapshot_required": True,
                },
            )
        blocks = [
            block.to_dict()
            for block in self.chain.blocks
            if block.block_number >= from_number
        ]
        return message.reply(
            MessageKind.SYNC_RESPONSE,
            self.node_id,
            {"blocks": blocks, "genesis_marker": self.chain.genesis_marker},
        )

    def _handle_snapshot_request(self, message: Message) -> Message:
        """Serve one bounded chunk of the serialised local replica.

        Every chunk carries the snapshot manifest, so the puller can detect
        a head that moved mid-transfer (the manifest's head hash changes)
        and restart instead of assembling chunks of different snapshots.
        """
        chunk_size = int(message.payload.get("chunk_size", DEFAULT_CHUNK_SIZE))
        index = int(message.payload.get("chunk", 0))
        if message.payload.get("probe"):
            # Probe mode: advertise the snapshot's manifest and this node's
            # serving load without shipping data, so a stale replica can
            # rank candidate peers (nearest and least loaded first) before
            # committing to a multi-chunk transfer.
            try:
                manifest = self._snapshot_cache.manifest(chunk_size)
            except BootstrapError as exc:
                return message.error(self.node_id, str(exc))
            self.sync_stats["snapshot_probes_served"] += 1
            return message.reply(
                MessageKind.SNAPSHOT_CHUNK,
                self.node_id,
                {
                    "manifest": manifest.to_dict(),
                    "load": self.sync_stats["chunks_served"],
                },
            )
        try:
            manifest = self._snapshot_cache.manifest(chunk_size)
            data = self._snapshot_cache.chunk(index, chunk_size)
        except BootstrapError as exc:
            return message.error(self.node_id, str(exc))
        self.sync_stats["chunks_served"] += 1
        return message.reply(
            MessageKind.SNAPSHOT_CHUNK,
            self.node_id,
            {"manifest": manifest.to_dict(), "chunk": index, "data": data},
        )

    def _handle_sync_digest(self, message: Message) -> None:
        """Anti-entropy beacon: pull from the sender when behind, push the
        local digest back when ahead.

        The pull (catch-up, possibly a full snapshot bootstrap) is a kernel
        process that outlives this delivery; digests arriving while it runs
        are absorbed by ``_sync_in_progress``.  The push-back turns the
        one-way digest gossip into *push-pull*: a stale replica whose own
        digest happens to reach an up-to-date peer learns of the newer head
        in the same round instead of waiting for that peer's fan-out to
        select it — halving convergence rounds on sparse overlays.
        Push-backs fire only when strictly ahead, so two converged replicas
        never ping-pong.
        """
        self.sync_stats["digests_received"] += 1
        peer_head = int(message.payload.get("head", -1))
        if peer_head < self.chain.head.block_number:
            self.sync_stats["digests_pushed_back"] += 1
            self.transport.post(
                message.sender,
                Message(
                    kind=MessageKind.SYNC_DIGEST,
                    sender=self.node_id,
                    payload={
                        "head": self.chain.head.block_number,
                        "head_hash": self.chain.head.block_hash,
                        "genesis_marker": self.chain.genesis_marker,
                        "pushback": True,
                    },
                ),
            )
            return None
        if peer_head == self.chain.head.block_number:
            peer_hash = str(message.payload.get("head_hash", ""))
            if peer_hash and peer_hash != self.chain.head.block_hash:
                # Same height, different block: a fork.  Replaying cannot
                # reconcile it (the peer's blocks do not link to our head) —
                # the paper treats divergence as a detected failure
                # (Section IV-B), so surface it in the counters instead of
                # attempting a pull that must fail.
                self.sync_stats["digests_diverged"] += 1
            return None
        if self._sync_in_progress:
            best = self._deferred_digest
            if best is None or peer_head > best[1]:
                self._deferred_digest = (message.sender, peer_head)
            return None
        self.sync_stats["digests_behind"] += 1
        spawn(self.transport.kernel, self._guarded(message, self.synchronize_process(message.sender)))
        return None

    # ------------------------------------------------------------------ #
    # Producer-side operations
    # ------------------------------------------------------------------ #

    def _on_block_sealed(self, event: ChainEvent) -> None:
        """Event-bus subscriber: announce every block the chain seals."""
        block = event.payload.get("block")
        if isinstance(block, Block):
            self._announce(block)

    def _announce(self, block: Block) -> None:
        # One-way dissemination: seed the gossip overlay with the sealed
        # block (peers re-forward hop by hop), or post it to every peer
        # when there is no overlay.  Receivers buffer out-of-order arrivals
        # either way.  Its own hash is seen, so hops that bring it back are
        # dropped undecoded.
        self._remember_announcement(block.block_hash)
        frame = BlockFrame(block.to_dict(), block.__canonical_json__())
        self._gossip_forward(block.block_hash, frame, hops=0)

    def _gossip_forward(self, item_key: str, block_payload: BlockFrame | dict, *, hops: int) -> None:
        message = Message(
            kind=MessageKind.BLOCK_ANNOUNCE,
            sender=self.node_id,
            payload={
                "block": block_payload,
                "gossip": {"item": item_key, "hops": hops},
            },
        )
        targets = (
            self.peers if self.gossip is None else self.gossip.targets(self.node_id, item_key)
        )
        self.transport.publish(self.node_id, targets, message)

    # ------------------------------------------------------------------ #
    # Synchronisation check (Section IV-B)
    # ------------------------------------------------------------------ #

    def latest_summary_block(self) -> Optional[Block]:
        """Most recent summary block of the local replica."""
        for block in reversed(self.chain.blocks):
            if block.is_summary:
                return block
        return None

    def catch_up_process(self, peer_id: str) -> Process:
        """Fetch missed blocks from a peer and replay them locally.

        A node that was offline (Section V-B4's isolation discussion) asks a
        reachable anchor node for everything after its own head, applies the
        missed *normal* blocks in order and recomputes the summary blocks
        itself — the same path as live replication, so the caught-up replica
        ends byte-identical to the peer.

        Returns a :class:`CatchUpResult` whose ``status`` states the
        outcome —

        * ``ADOPTED`` — ``adopted`` blocks were replayed; the replica now
          matches the peer's head,
        * ``ALREADY_CURRENT`` — the peer had nothing newer,
        * ``PEER_UNREACHABLE`` — the peer never answered (``detail`` carries
          the transport's reason); retry against another anchor,
        * ``SNAPSHOT_REQUIRED`` — the gap spans a genesis-marker shift: the
          peer physically deleted the blocks this replica needs next
          (``detail`` names the missing range); call
          :meth:`bootstrap_from` (or :meth:`synchronize`, which does both),
        * ``BLOCK_REJECTED`` — the consensus engine refused a replayed block
          (``detail`` carries its reason; the block is recorded in
          :attr:`rejected_blocks`), or a buffered gossip announcement forks
          from the head the replay ended on.
        """
        self.sync_stats["catch_ups"] += 1
        request = Message(
            kind=MessageKind.SYNC_REQUEST,
            sender=self.node_id,
            payload={"from_block": self.chain.head.block_number + 1, "contiguous": True},
        )
        response = yield from self.transport.exchange(peer_id, request)
        if response is None or response.is_error:
            reason = "" if response is None else str(response.payload.get("reason", ""))
            return CatchUpResult(
                status=CatchUpStatus.PEER_UNREACHABLE,
                detail=reason or f"no response from {peer_id!r}",
            )
        peer_marker = int(response.payload.get("genesis_marker", 0))
        if response.payload.get("snapshot_required"):
            # The peer declined without shipping any blocks: our next-needed
            # block lies before its marker and was physically deleted.
            return CatchUpResult(
                status=CatchUpStatus.SNAPSHOT_REQUIRED,
                detail=(
                    f"blocks {self.chain.next_block_number}..{peer_marker - 1} "
                    f"are no longer served (peer's genesis marker shifted to "
                    f"{peer_marker}); adopt a snapshot via bootstrap_from"
                ),
            )
        adopted = 0
        status = CatchUpStatus.ALREADY_CURRENT
        detail = ""
        for payload in response.payload.get("blocks", []):
            block = Block.from_dict(payload)
            if block.is_summary:
                continue  # summary blocks are recomputed locally (Section IV-B)
            if block.block_number > self.chain.next_block_number:
                # Defence in depth for peers that did ship blocks despite a
                # marker past our head: the needed predecessors are gone.
                status = CatchUpStatus.SNAPSHOT_REQUIRED
                detail = (
                    f"blocks {self.chain.next_block_number}..{block.block_number - 1} "
                    f"are no longer served (peer's genesis marker shifted to "
                    f"{peer_marker}); adopt a snapshot via bootstrap_from"
                )
                break
            if block.block_number < self.chain.next_block_number:
                continue  # already part of the local replica
            self._block_buffer.pop(block.block_number, None)  # replayed, not drained
            verdict = self.engine.validate_block(block, self.chain.head)
            if not verdict.accepted:
                self._record_rejected_block(block, verdict.reason)
                status = CatchUpStatus.BLOCK_REJECTED
                detail = verdict.reason
                break
            try:
                self.chain.receive_block(block)
            except ChainIntegrityError as exc:
                # A same-height fork: the peer's block does not link to our
                # head.  Forks are *detected* (sync_check), never silently
                # replayed over — stop and report instead of crashing the
                # caller (which may be a kernel event handler).
                self._record_rejected_block(block, str(exc))
                status = CatchUpStatus.BLOCK_REJECTED
                detail = str(exc)
                break
            adopted += 1
        if adopted and status is CatchUpStatus.ALREADY_CURRENT:
            status = CatchUpStatus.ADOPTED
        self.sync_stats["blocks_replayed"] += adopted
        # Gossiped announcements that overtook the gap can now be applied —
        # unless one of them forks from the head just replayed.
        try:
            self._drain_block_buffer()
        except ChainIntegrityError as exc:
            status = CatchUpStatus.BLOCK_REJECTED
            detail = str(exc)
        return CatchUpResult(status=status, adopted=adopted, detail=detail)

    catch_up = blocking(catch_up_process)

    def bootstrap_from_process(
        self,
        peer_id: str,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> Process:
        """Adopt a peer's snapshot over the wire (Section V-B4 status quo).

        Pulls the peer's serialised chain in bounded, retransmitted chunks
        (:func:`repro.sync.bootstrap.fetch_snapshot_process`), rebuilds the chain,
        verifies the hash chain, the rebuilt index *and* that the rebuilt
        head hash matches the manifest the peer advertised, then replaces
        the local replica wholesale via :meth:`adopt_chain`.  On failure the
        local replica is untouched and the report carries the reason.
        """
        report = yield from fetch_snapshot_process(
            self.transport,
            self.node_id,
            peer_id,
            chunk_size=chunk_size,
            max_retries=max_retries,
        )
        return self._adopt_snapshot_report(report)

    bootstrap_from = blocking(bootstrap_from_process)

    def bootstrap_from_best_process(
        self,
        peer_ids: Optional[list[str]] = None,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Process:
        """Adopt a snapshot from the best-ranked reachable peers.

        Candidates (default: every connected peer) are probed for proximity
        and serving load, and the chunks are striped concurrently across all
        donors serving the winning head
        (:func:`repro.sync.bootstrap.fetch_snapshot_striped_process`) — the
        load-aware flavour of :meth:`bootstrap_from` that the digest-
        triggered pull path uses, so a recovering replica neither hammers
        one donor nor pays a far peer's latency when a near one serves the
        same head.
        """
        candidates = list(peer_ids) if peer_ids is not None else list(self.peers)
        report = yield from fetch_snapshot_striped_process(
            self.transport,
            self.node_id,
            candidates,
            chunk_size=chunk_size,
        )
        if report.manifest is not None and report.manifest.head_number < self.chain.head.block_number:
            # The freshest peer that answered is behind us (a spoofed digest
            # baited the pull): never trade the local head for an older one.
            report.succeeded, report.reason = False, "every answering peer is behind the local head"
        return self._adopt_snapshot_report(report)

    bootstrap_from_best = blocking(bootstrap_from_best_process)

    def _adopt_snapshot_report(self, report: BootstrapReport) -> BootstrapReport:
        """Verify a fetched snapshot and adopt it; shared by both fetchers."""
        if not report.succeeded:
            return report
        assert report.payload is not None and report.manifest is not None
        try:
            chain = chain_from_payload(
                report.payload,
                clock=self.chain.clock,
                schema=self.chain.schema,
                authorizer=self.chain.authorizer,
                cohesion_checker=self.chain.cohesion_checker,
                event_bus=self.chain.bus,
            )
        except SelectiveDeletionError as exc:
            report.succeeded = False
            report.reason = f"snapshot rejected: {exc}"
            return report
        if chain.head.block_hash != report.manifest.head_hash:
            report.succeeded = False
            report.reason = "rebuilt head hash does not match the peer's manifest"
            return report
        self.adopt_chain(chain)
        self.sync_stats["bootstraps"] += 1
        self.sync_stats["bootstrap_bytes"] += report.payload_bytes
        self.sync_stats["bootstrap_retransmits"] += report.retransmits
        return report

    def synchronize_process(self, peer_id: str) -> Process:
        """Converge on ``peer_id`` whatever the gap: catch up, else bootstrap.

        Incremental catch-up first; if that declines because the gap spans a
        marker shift, pull the peer's snapshot and finish with a top-off
        catch-up for blocks the peer sealed while the chunks streamed.  A
        catch-up that ends ``PEER_UNREACHABLE`` (its request or reply was
        lost) is retried up to ``DEFAULT_MAX_RETRIES`` times, so one lost
        message does not strand a replica that heard of a newer head.  This
        is the pull path anti-entropy digests trigger.  Digests absorbed
        while the pull runs are not wasted: the most advanced one is chased
        afterwards, so the call converges on the best peer it *heard of*,
        not merely the one that happened to trigger it.
        """
        result = yield from self._synchronize_once(peer_id)
        # Chase digests deferred while the pull ran.  Each iteration
        # consumes one deferred digest and only re-pulls while its sender
        # claims a strictly newer head, so the loop ends once the backlog
        # of mid-pull arrivals is worked off.
        while True:
            deferred = self._deferred_digest
            self._deferred_digest = None
            if deferred is None or deferred[1] <= self.chain.head.block_number:
                return result
            result = yield from self._synchronize_once(deferred[0])

    synchronize = blocking(synchronize_process)

    def _synchronize_once(self, peer_id: str) -> Process:
        """One guarded catch-up-or-bootstrap pull against a single peer."""
        self._sync_in_progress = True
        try:
            # A lost request or reply says nothing about the gap: ask again,
            # within the retry bound each snapshot chunk gets.
            for _ in range(DEFAULT_MAX_RETRIES + 1):
                result = yield from self.catch_up_process(peer_id)
                if result.status is not CatchUpStatus.PEER_UNREACHABLE:
                    break
            if result.status is not CatchUpStatus.SNAPSHOT_REQUIRED:
                return result
            # Load-aware recovery: the digest sender proved it serves the
            # needed head, but every connected peer is a candidate donor —
            # rank them and stripe the chunks across the nearest ones.
            candidates = [peer_id] + [peer for peer in self.peers if peer != peer_id]
            report = yield from self.bootstrap_from_best_process(candidates)
            if not report.succeeded:
                return CatchUpResult(
                    status=CatchUpStatus.SNAPSHOT_REQUIRED,
                    detail=f"bootstrap failed: {report.reason}",
                )
            top_off = yield from self.catch_up_process(report.peer_id or peer_id)
            assert report.manifest is not None
            return CatchUpResult(
                status=CatchUpStatus.BOOTSTRAPPED,
                adopted=top_off.adopted,
                detail=(
                    f"adopted snapshot at head {report.manifest.head_number} "
                    f"({report.chunks_fetched} chunks, {report.retransmits} retransmits)"
                ),
            )
        finally:
            self._sync_in_progress = False

    def adopt_chain(self, chain: Blockchain) -> None:
        """Replace the local replica wholesale (snapshot bootstrap).

        Re-wires everything the constructor wired against the old chain: the
        consensus finalizer hook, the seal-announcement subscription
        (producers only) and the snapshot chunk cache.  Buffered out-of-order
        announcements the new head already covers are discarded; newer ones
        are drained against the adopted chain.
        """
        self._bind(chain)
        self._block_buffer = {
            number: block
            for number, block in self._block_buffer.items()
            if number >= chain.next_block_number
        }
        self._drain_block_buffer()

    def sync_check_process(self, *, raise_on_divergence: bool = False) -> Process:
        """Compare the latest locally computed summary block with all peers."""
        summary = self.latest_summary_block()
        if summary is None:
            return SyncReport(block_number=-1, own_hash="")
        message = Message(
            kind=MessageKind.SUMMARY_HASH,
            sender=self.node_id,
            payload={"block_number": summary.block_number, "block_hash": summary.block_hash},
        )
        replies = yield [self.transport.request(peer, message) for peer in self.peers]
        report = SyncReport(block_number=summary.block_number, own_hash=summary.block_hash)
        for peer, (response, _) in zip(self.peers, replies):
            if response is None or response.is_error:
                report.peer_results[peer] = False
            else:
                report.peer_results[peer] = bool(response.payload.get("match", False))
        if raise_on_divergence and not report.in_sync:
            raise SynchronisationError(
                f"summary block {summary.block_number} diverges on peers {report.diverged_peers}"
            )
        return report

    sync_check = blocking(sync_check_process)


class ClientNode:
    """A light client submitting entries and deletion requests to anchors."""

    def __init__(
        self,
        client_id: str,
        transport: InMemoryTransport,
        *,
        scheme_name: str = "simplified",
    ) -> None:
        self.client_id = client_id
        self.transport = transport
        self.scheme = new_scheme(scheme_name)
        # The deterministic key of this identity, derived (one k*G) only for
        # a scheme that signs with a key.
        self.key_pair = KeyPair.from_seed(client_id) if self.scheme.needs_key_pair else None

    def request_process(self, targets: list[str], build: Callable[[], Message]) -> Process:
        """Send a fresh ``build()`` to each target in turn until one answers
        without error — the failover of Section V-B4 against node isolation.
        Returns ``(first good or last error response, failed attempts)``."""
        failed = 0
        response: Optional[Message] = None
        for target in targets:
            message = build()
            response = yield from self.transport.exchange(target, message)
            if response is None:
                response = message.error(self.client_id, "no response from anchor node")
            if not response.is_error:
                break
            failed += 1
        return response, failed

    def _send(self, anchor_id: str, message: Message) -> Message:
        response, _ = run_process(
            self.request_process([anchor_id], lambda: message), self.transport.kernel
        )
        return response

    def entry_message(
        self,
        data: dict[str, Any],
        *,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> Message:
        """The ``SUBMIT_ENTRY`` message carrying ``data``, signed locally."""
        entry = Entry(
            data=data,
            author=self.client_id,
            signature="",
            expires_at_time=expires_at_time,
            expires_at_block=expires_at_block,
        )
        return self._signed_message(MessageKind.SUBMIT_ENTRY, entry)

    def deletion_message(self, target: EntryReference, *, reason: str = "") -> Message:
        """The signed ``SUBMIT_DELETION`` message for ``target``."""
        entry = build_deletion_request(target, author=self.client_id, signature="", reason=reason)
        return self._signed_message(MessageKind.SUBMIT_DELETION, entry)

    def _signed_message(self, kind: MessageKind, entry: Entry) -> Message:
        """Sign ``entry`` as this client and wrap it in a ``kind`` message."""
        signed = sign_entry(self.scheme, entry, self.client_id, self.key_pair)
        return Message(kind=kind, sender=self.client_id, payload={"entry": signed.to_dict()})

    def submit_entry(
        self,
        anchor_id: str,
        data: dict[str, Any],
        *,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> Message:
        """Sign a data entry locally and submit it to an anchor node."""
        return self._send(
            anchor_id,
            self.entry_message(
                data, expires_at_time=expires_at_time, expires_at_block=expires_at_block
            ),
        )

    def request_deletion(
        self,
        anchor_id: str,
        target: EntryReference,
        *,
        reason: str = "",
    ) -> Message:
        """Sign and submit a deletion request for ``target``."""
        return self._send(anchor_id, self.deletion_message(target, reason=reason))
