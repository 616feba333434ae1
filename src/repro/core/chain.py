"""The selective-deletion blockchain façade.

:class:`Blockchain` is the primary public API of the library.  It maintains
the *living* blocks, the shifting genesis marker *m*, the deletion registry
and the pending-entry pool, and it drives the summarizer:

* entries are submitted with :meth:`add_entry` (signed against the configured
  scheme and validated against the optional entry schema),
* deletion requests are submitted with :meth:`request_deletion`, which
  evaluates the paper's authorization rule plus an optional semantic-cohesion
  checker and records the decision,
* :meth:`seal_block` turns the pending entries into the next block and —
  whenever the following slot is a summary position — automatically creates
  the summary block, merges expiring sequences, shifts the marker and cuts
  the expired blocks off,
* :meth:`idle_tick` implements the empty-block progress rule of
  Section IV-D3.

The façade is layered (mirroring the anchor-node architecture of
Section IV-A): *where blocks live* is delegated to a pluggable
:class:`~repro.storage.memstore.BlockStore` (volatile memory by default, the
append-only journal for durable deployments), and *who is told about it* is
delegated to a typed :class:`~repro.core.events.EventBus` that anchor nodes,
metrics collectors and applications subscribe to.  A marker shift maps to
the store's ``truncate_before`` — the operation that physically reclaims
space, the paper's data-reduction claim.

The class is deliberately independent of any networking: anchor nodes in
:mod:`repro.network` each hold their own :class:`Blockchain` replica and rely
on the determinism of sealing to stay in sync, exactly as Section IV-B
prescribes.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Optional, Union

from repro.core.block import Block, BlockType, make_genesis_block
from repro.core.clock import Clock, LogicalClock
from repro.core.config import ChainConfig
from repro.core.deletion import (
    DeletionDecision,
    DeletionRegistry,
    authorize_deletion,
    build_deletion_request,
)
from repro.core.entry import Entry, EntryKind, EntryReference
from repro.core.errors import ChainIntegrityError, DeletionError, StorageError
from repro.core.events import ChainEvent, EventBus, EventType
from repro.core.index import ChainIndex
from repro.core.schema import EntrySchema
from repro.core.sequence import SequenceView, is_summary_slot
from repro.core.summarizer import Summarizer, SummaryResult
from repro.core.retention import needs_empty_block
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_scheme, sign_entry
from repro.storage.memstore import BlockStore, MemoryBlockStore

__all__ = ["Blockchain", "ChainEvent", "CohesionChecker"]

#: A semantic-cohesion checker receives the target reference, the chain and
#: the requesting participant, and returns (allowed, reason) — Section IV-D2.
CohesionChecker = Callable[[EntryReference, "Blockchain", str], tuple[bool, str]]


class Blockchain:
    """A blockchain with summary blocks, sequences and selective deletion."""

    def __init__(
        self,
        config: Optional[ChainConfig] = None,
        *,
        clock: Optional[Clock] = None,
        schema: Optional[EntrySchema] = None,
        cohesion_checker: Optional[CohesionChecker] = None,
        admins: Iterable[str] = (),
        block_finalizer: Optional[Callable[[Block], Block]] = None,
        store: Optional[BlockStore] = None,
        event_bus: Optional[EventBus] = None,
    ) -> None:
        self.config = config or ChainConfig()
        self.clock = clock or LogicalClock()
        self.schema = schema
        self.scheme = new_scheme(self.config.signature_scheme)
        self.registry = DeletionRegistry()
        self.summarizer = Summarizer(self.config)
        self.cohesion_checker = cohesion_checker
        #: Holders of the quorum's master signature (Section IV-D1).
        self.admins = frozenset(admins)
        #: Hook applied to every freshly built *normal* block before it is
        #: appended — consensus engines use it to mine or seal the block.
        #: Summary blocks bypass the hook because every anchor node must be
        #: able to compute them deterministically on its own (Section IV-B).
        self.block_finalizer = block_finalizer
        #: Typed event fabric: subscribe for announcements and metrics; the
        #: bounded audit log behind it backs the :attr:`events` trail.
        #: (Compared against None — an empty bus is falsy via ``__len__``.)
        self.bus = event_bus if event_bus is not None else EventBus()

        self._store: BlockStore = store if store is not None else MemoryBlockStore()
        self._head: Optional[Block] = None
        self._genesis_marker = 0
        self._pending: list[Entry] = []
        self._total_blocks_created = 0
        self._deleted_block_count = 0
        self._deleted_entry_count = 0
        self._index = ChainIndex(self.config.sequence_length)

        with self._store.commit_scope():
            stored = list(self._store)
            if stored:
                self._adopt_stored_blocks(stored, clock_provided=clock is not None)
            else:
                genesis = make_genesis_block(timestamp=self.clock.now())
                self._append(genesis)
            self._create_due_summary_blocks()

    def _adopt_stored_blocks(self, blocks: list[Block], *, clock_provided: bool) -> None:
        """Resume from a non-empty block store (durable-mode restart).

        The living chain, marker, index and deletion registry are rebuilt
        from the stored blocks alone.  Block numbers are assigned
        consecutively from 0 over the chain's whole life, so the lifetime
        counters are exact for blocks; the dropped-entry counter is not
        reconstructible from the living blocks and restarts at 0.  Deletion
        requests whose request entry was itself already summarised away are
        likewise unrecoverable from the blocks — deployments that need the
        complete registry across restarts persist snapshots
        (:mod:`repro.storage.snapshot`), which serialise it.
        """
        self._head = blocks[-1]
        self._genesis_marker = blocks[0].block_number
        self._index = ChainIndex.build(blocks, self.config.sequence_length)
        self._total_blocks_created = self._head.block_number + 1
        self._deleted_block_count = self._total_blocks_created - len(blocks)
        if isinstance(self.clock, LogicalClock) and not clock_provided:
            self.clock = LogicalClock(start=self._head.timestamp + 1)
        self.validate()
        # Replay the deletion requests still sitting in living blocks — the
        # same reconstruction a replica performs in receive_block — so an
        # approved-but-not-yet-executed deletion keeps its mark and is still
        # dropped by the next summarisation cycle after the restart.
        for block in blocks:
            for entry in block.entries:
                if entry.is_deletion_request:
                    self._decide(entry)

    # ------------------------------------------------------------------ #
    # Basic properties
    # ------------------------------------------------------------------ #

    @property
    def store(self) -> BlockStore:
        """The storage backend holding the living blocks."""
        return self._store

    @property
    def blocks(self) -> list[Block]:
        """The living blocks, oldest first (a copy; mutations are ignored)."""
        return list(self._store)

    @property
    def head(self) -> Block:
        """The newest block."""
        assert self._head is not None
        return self._head

    @property
    def genesis(self) -> Block:
        """The current (possibly shifted) Genesis Block."""
        return self._store.get(self._genesis_marker)

    @property
    def genesis_marker(self) -> int:
        """Block number the genesis marker *m* currently points at."""
        return self._genesis_marker

    @property
    def length(self) -> int:
        """Number of living blocks (the paper's l_β)."""
        return len(self._store)

    @property
    def next_block_number(self) -> int:
        """Block number the next appended block will receive."""
        return self.head.block_number + 1

    @property
    def total_blocks_created(self) -> int:
        """Blocks ever appended, including blocks that have been cut off."""
        return self._total_blocks_created

    @property
    def deleted_block_count(self) -> int:
        """Blocks physically removed from the chain so far."""
        return self._deleted_block_count

    @property
    def deleted_entry_count(self) -> int:
        """Entries dropped (not carried forward) during summarisation."""
        return self._deleted_entry_count

    @property
    def pending_entries(self) -> list[Entry]:
        """Entries submitted but not yet sealed into a block."""
        return list(self._pending)

    @property
    def events(self) -> list[ChainEvent]:
        """The audit trail: the bounded window of notable chain events."""
        return self.bus.audit_log

    def entry_count(self) -> int:
        """Total number of entries currently stored in living blocks (O(1))."""
        return self._index.entry_count

    def byte_size(self) -> int:
        """Approximate serialised size of the living chain in bytes (O(1))."""
        return self._index.byte_size

    def sequences(self) -> list[SequenceView]:
        """Partition of the living chain into sequences ω.

        The partition is maintained incrementally by the chain index; this
        accessor returns a defensive snapshot that stays stable across later
        appends and marker shifts.
        """
        return self._index.sequence_views()

    def completed_sequence_count(self) -> int:
        """Number of living sequences already closed by a summary block (O(1))."""
        return self._index.completed_view_count

    def sequence_statistics(self) -> dict[int, dict[str, int]]:
        """Rolling per-sequence entry/byte counters, keyed by sequence index."""
        return self._index.sequence_aggregates()

    def block_by_number(self, block_number: int) -> Block:
        """Return the living block with ``block_number``.

        Raises :class:`KeyError` for block numbers before the marker (deleted)
        or after the head.
        """
        if block_number < self._genesis_marker or block_number > self.head.block_number:
            raise KeyError(f"block {block_number} is not part of the living chain")
        try:
            block = self._store.get(block_number)
        except StorageError:
            raise KeyError(f"block {block_number} is not part of the living chain") from None
        if block.block_number != block_number:
            raise ChainIntegrityError(
                f"block numbering is inconsistent: expected {block_number}, found {block.block_number}"
            )
        return block

    # ------------------------------------------------------------------ #
    # Entry submission
    # ------------------------------------------------------------------ #

    def add_entry(
        self,
        data: Mapping[str, Any],
        author: str,
        *,
        key_pair: Optional[KeyPair] = None,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> Entry:
        """Sign an entry and place it in the pending pool.

        The entry becomes part of the chain with the next :meth:`seal_block`.
        """
        if self.schema is not None:
            self.schema.validate(data)
        entry = Entry(
            data=dict(data),
            author=author,
            signature="",
            kind=EntryKind.DATA,
            expires_at_time=expires_at_time,
            expires_at_block=expires_at_block,
        )
        entry = sign_entry(self.scheme, entry, author, key_pair)
        self._admit(entry)
        return entry

    def submit_signed_entry(self, entry: Entry) -> Optional[DeletionDecision]:
        """Accept an entry that was already signed by the submitting client.

        This is the path the anchor nodes use for entries arriving over the
        network: the client produced the signature, the node validates it,
        evaluates deletion requests, and queues the entry for the next block.
        Returns the deletion decision for deletion requests, ``None``
        otherwise.
        """
        from repro.core.validation import validate_entry_signature

        validate_entry_signature(entry, self.config.signature_scheme)
        if self.schema is not None and not entry.is_deletion_request:
            self.schema.validate(entry.data)
        return self._admit(entry)

    def request_deletion(
        self,
        target: Union[EntryReference, tuple[int, int]],
        author: str,
        *,
        key_pair: Optional[KeyPair] = None,
        reason: str = "",
        strict: bool = False,
    ) -> DeletionDecision:
        """Submit a signed deletion request for ``target``.

        The request entry is always added to the pending pool (the paper
        stores even ineffective requests); the returned decision states
        whether the quorum approved it.  With ``strict=True`` a rejected
        request raises instead.
        """
        reference = target if isinstance(target, EntryReference) else EntryReference(*target)
        request = build_deletion_request(reference, author=author, signature="", reason=reason)
        decision = self._admit(sign_entry(self.scheme, request, author, key_pair))
        assert decision is not None  # a deletion request is always decided
        if strict and not decision.is_approved:
            raise DeletionError(decision.reason)
        return decision

    def _admit(self, entry: Entry) -> Optional[DeletionDecision]:
        """The one admission step of a signed entry, local or from the wire.

        A deletion request is decided first, then the entry is queued for
        the next block, then the decision is published.  Returns the
        decision for deletion requests, ``None`` otherwise.
        """
        decision = self._decide(entry) if entry.is_deletion_request else None
        self._pending.append(entry)
        if decision is not None:
            self._publish_deletion_requested(decision)
        return decision

    def _decide(self, request: Entry) -> DeletionDecision:
        """Evaluate a deletion request and record the verdict in the registry.

        Every path that meets a deletion request — admission, replication
        (:meth:`receive_block`) and restart replay — decides it here.
        """
        approved, reason = self._evaluate_deletion(request)
        return self.registry.record_request(request, approved=approved, reason=reason)

    def _evaluate_deletion(self, request: Entry) -> tuple[bool, str]:
        reference = request.deletion_target()
        located = self.find_entry(reference)
        if located is None:
            return False, f"target {reference} does not exist in the living chain"
        _, target_entry = located
        if target_entry.is_deletion_request:
            return False, "deletion requests cannot themselves be deleted"
        allowed, reason = authorize_deletion(
            request,
            target_entry,
            admins=self.admins,
            admins_delete_foreign=self.config.allow_foreign_deletion_by_admin,
        )
        if not allowed:
            return False, reason
        if self.cohesion_checker is not None:
            cohesive, cohesion_reason = self.cohesion_checker(reference, self, request.author)
            if not cohesive:
                return False, f"semantic cohesion violated: {cohesion_reason}"
        return True, reason

    # ------------------------------------------------------------------ #
    # Block production
    # ------------------------------------------------------------------ #

    def seal_block(self) -> Block:
        """Seal the pending entries into the next normal block.

        Afterwards any due summary block is created automatically, which may
        merge expiring sequences, shift the genesis marker and physically cut
        old blocks off.  Subscribers (anchor nodes announcing to their peers)
        are notified through a ``block-sealed`` event once sealing — including
        the follow-up summary work — has completed and is durable: the store
        commits the step's records together (one ``fsync`` on a journal).
        """
        block = Block(
            block_number=self.next_block_number,
            timestamp=self.clock.now(),
            previous_hash=self.head.block_hash,
            entries=list(self._pending),
            block_type=BlockType.NORMAL,
        )
        if self.block_finalizer is not None:
            block = self.block_finalizer(block)
        self._pending = []
        with self._store.commit_scope():
            self._append(block)
            self._create_due_summary_blocks()
        self._publish(
            EventType.BLOCK_SEALED,
            f"block {block.block_number} sealed with {len(block.entries)} entries",
            block_number=block.block_number,
            block=block,
            entry_count=len(block.entries),
        )
        return block

    def receive_block(self, block: Block) -> Block:
        """Adopt a normal block produced by another anchor node.

        Replicas append the received block as-is (keeping its timestamp and
        consensus seal), register any deletion requests it contains, and then
        compute the due summary block locally — the paper's synchronisation
        model of Section IV-B.  Summary blocks are rejected: they *"do not
        need to be propagated"* and must be computed by every node itself.
        The step's store writes are committed together before it returns.
        """
        if block.is_summary:
            raise ChainIntegrityError("summary blocks are computed locally, never received")
        if is_summary_slot(block.block_number, self.config.sequence_length):
            raise ChainIntegrityError(
                f"received block {block.block_number} occupies a summary slot"
            )
        with self._store.commit_scope():
            self._append(block)
            for entry in block.entries:
                if entry.is_deletion_request:
                    self._publish_deletion_requested(self._decide(entry), replicated=True)
            self._create_due_summary_blocks()
        return block

    def add_entry_block(
        self,
        data: Mapping[str, Any],
        author: str,
        **entry_kwargs: Any,
    ) -> Block:
        """Convenience: submit a single entry and immediately seal the block.

        This is how the paper's evaluation operates — every login event
        becomes one block.
        """
        self.add_entry(data, author, **entry_kwargs)
        return self.seal_block()

    def idle_tick(self) -> Optional[Block]:
        """Append an empty block if the configured idle interval elapsed.

        Returns the appended block (possibly followed by an automatic summary
        block) or ``None`` when no action was needed.
        """
        if self._pending:
            return None
        if not needs_empty_block(
            self.config,
            last_block_timestamp=self.head.timestamp,
            current_time=self._peek_time(),
        ):
            return None
        self._publish(
            EventType.EMPTY_BLOCK,
            "idle interval elapsed; appending empty block",
        )
        return self.seal_block()

    def _peek_time(self) -> int:
        """Passive read of the chain clock (idle checks, expiry evaluation).

        Always routed through ``peek()``: ``LogicalClock.now()`` advances on
        every reading, so a passive read going through ``now()`` would
        silently age the chain (earlier idle-block triggers, earlier
        temporary-entry expiry).  Only block creation consumes ``now()``.
        """
        return self.clock.peek()

    def _append(self, block: Block) -> None:
        head = self._head
        if head is not None:
            if block.block_number != head.block_number + 1:
                raise ChainIntegrityError(
                    f"expected block number {head.block_number + 1}, got {block.block_number}"
                )
            if block.previous_hash != head.block_hash:
                raise ChainIntegrityError("previous hash does not match the current head")
        self._store.append(block)
        self._head = block
        self._total_blocks_created += 1
        self._index.on_append(block)
        self._publish(
            EventType.BLOCK_APPENDED,
            f"block {block.block_number} ({block.block_type.value}) appended",
            block=block,
            block_type=block.block_type.value,
        )

    def _create_due_summary_blocks(self) -> None:
        while is_summary_slot(self.next_block_number, self.config.sequence_length):
            self._create_summary_block()

    def _create_summary_block(self) -> SummaryResult:
        # Expiry is evaluated at the summary block's own timestamp — which
        # the paper defines as the *preceding block's* timestamp (Section
        # IV-B) — not at the local clock.  On-chain time makes the summary a
        # pure function of chain content: a replica recomputing it at
        # message-delivery time (arbitrarily later on the virtual clock)
        # reaches the identical carried/dropped split, so temporary-entry
        # expiry can never fork the quorum.
        result = self.summarizer.build_summary_block(
            sequences=self._index.live_views(),
            previous_block=self.head,
            next_block_number=self.next_block_number,
            registry=self.registry,
            current_time=self.head.timestamp,
        )
        self._append(result.block)
        self._publish(
            EventType.SUMMARY_CREATED,
            f"summary block {result.block.block_number} created "
            f"({len(result.carried_entries)} entries carried, {len(result.dropped_entries)} dropped)",
            carried_entries=len(result.carried_entries),
            dropped_entries=len(result.dropped_entries),
        )
        if result.shifted_marker:
            self._apply_marker_shift(result)
        return result

    def _apply_marker_shift(self, result: SummaryResult) -> None:
        assert result.new_marker is not None
        new_marker = result.new_marker
        cut_off: list[Block] = []
        for block in self._store:
            if block.block_number >= new_marker:
                break
            cut_off.append(block)
        self._store.truncate_before(new_marker)
        self._genesis_marker = new_marker
        self._index.cut_before(new_marker, cut_off)
        self._deleted_block_count += len(cut_off)
        self._deleted_entry_count += len(result.dropped_entries)
        for dropped in result.dropped_entries:
            if self.registry.is_marked_entry(dropped.entry, dropped.block_number):
                reference = dropped.entry.reference_in(dropped.block_number)
                try:
                    self.registry.mark_executed(reference)
                except DeletionError:
                    continue
                self._publish(
                    EventType.DELETION_EXECUTED,
                    f"deletion of {reference} executed; cut off by marker shift to {new_marker}",
                    reference=reference.to_dict(),
                    new_marker=new_marker,
                )
        merged = ", ".join(str(view.index) for view in result.expired_sequences)
        self._publish(
            EventType.MARKER_SHIFT,
            f"sequences [{merged}] merged into block {result.block.block_number}; "
            f"genesis marker moved to block {new_marker}; {len(cut_off)} blocks deleted",
            new_marker=new_marker,
            blocks_deleted=len(cut_off),
            merged_sequences=[view.index for view in result.expired_sequences],
        )

    def _publish(
        self,
        event_type: EventType,
        detail: str,
        *,
        block_number: Optional[int] = None,
        **payload: Any,
    ) -> None:
        """Publish a typed event anchored at the current head (or override)."""
        self.bus.publish(
            ChainEvent(
                block_number=self.head.block_number if block_number is None else block_number,
                kind=event_type.value,
                detail=detail,
                payload=payload,
            )
        )

    def _publish_deletion_requested(
        self, decision: DeletionDecision, *, replicated: bool = False
    ) -> None:
        author, approved = decision.request.author, decision.is_approved
        verdict = "approved" if approved else "rejected"
        prefix = "replicated deletion request" if replicated else "deletion request"
        self._publish(
            EventType.DELETION_REQUESTED,
            f"{prefix} by {author} for {decision.target} {verdict}: {decision.reason}",
            reference=decision.target.to_dict(),
            author=author,
            approved=approved,
            reason=decision.reason,
        )

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def find_entry(self, reference: EntryReference) -> Optional[tuple[Block, Entry]]:
        """Locate an entry by its original (block number, entry number).

        The original position wins if it is still living; otherwise the
        newest carried-forward copy inside a living summary block is
        returned.  Returns ``None`` when the entry does not exist (anymore).
        The chain index answers in O(1) per block plus O(living summaries)
        — the complexity the paper claims in Section IV-D (*"blocks are
        referenced directly by number"*).
        """
        return self._index.find(reference)

    def entry_exists(self, reference: EntryReference) -> bool:
        """True when the referenced entry is still retrievable from the chain."""
        return self.find_entry(reference) is not None

    def is_marked_for_deletion(self, reference: EntryReference) -> bool:
        """True when the entry is approved for (delayed) deletion.

        Applications must refuse new transactions that depend on marked data
        (Section IV-D3: *"Subsequent incoming transactions based on this
        marked data are no longer permitted"*).
        """
        return self.registry.is_marked(reference)

    def iter_entries(self) -> Iterable[tuple[Block, Entry]]:
        """Iterate over every (block, entry) pair in the living chain."""
        for block in self._store:
            for entry in block.entries:
                yield block, entry

    # ------------------------------------------------------------------ #
    # Validation and persistence
    # ------------------------------------------------------------------ #

    def validate(self, *, verify_signatures: bool = False) -> None:
        """Validate the living chain; raises on inconsistency."""
        from repro.core.validation import validate_chain

        validate_chain(
            list(self._store),
            config=self.config,
            genesis_marker=self._genesis_marker,
            verify_signatures=verify_signatures,
        )

    def statistics(self) -> dict[str, Any]:
        """Operational counters used by reports and benchmarks.

        Every chain-level figure comes from the rolling aggregates of the
        chain index, so this is O(1) — no repartitioning, no re-serialising.
        """
        return {
            "living_blocks": self.length,
            "living_entries": self._index.entry_count,
            "total_blocks_created": self._total_blocks_created,
            "deleted_blocks": self._deleted_block_count,
            "dropped_entries": self._deleted_entry_count,
            "genesis_marker": self._genesis_marker,
            "byte_size": self._index.byte_size,
            "completed_sequences": self._index.completed_view_count,
            "deletions": self.registry.statistics(),
        }

    def verify_index(self) -> None:
        """Validate the incremental index against the legacy linear scans.

        O(total entries); used by the equivalence tests and snapshot loads.
        Raises :class:`ChainIntegrityError` on any divergence.
        """
        self._index.self_check(list(self._store), self._genesis_marker)

    def to_dict(self) -> dict[str, Any]:
        """Serialise the full chain state (blocks, marker, registry, events)."""
        return {
            "config": self.config.to_dict(),
            "genesis_marker": self._genesis_marker,
            "total_blocks_created": self._total_blocks_created,
            "deleted_block_count": self._deleted_block_count,
            "deleted_entry_count": self._deleted_entry_count,
            "blocks": [block.to_dict() for block in self._store],
            "registry": self.registry.to_dict(),
            "events": [event.to_dict() for event in self.bus.audit_log],
        }

    @classmethod
    def from_dict(
        cls,
        payload: Mapping[str, Any],
        *,
        clock: Optional[Clock] = None,
        schema: Optional[EntrySchema] = None,
        cohesion_checker: Optional[CohesionChecker] = None,
        admins: Iterable[str] = (),
        store: Optional[BlockStore] = None,
        event_bus: Optional[EventBus] = None,
    ) -> "Blockchain":
        """Restore a chain previously serialised with :meth:`to_dict`.

        ``store`` selects the storage backend the restored chain runs on
        (fresh in-memory store by default); it must be empty — the snapshot's
        blocks are loaded into it.  The serialised audit trail is restored
        into the event bus, so the trail survives snapshot round-trips.
        """
        config = ChainConfig.from_dict(payload["config"])
        chain = cls.__new__(cls)
        chain.config = config
        chain.clock = clock or LogicalClock(start=0)
        chain.schema = schema
        chain.scheme = new_scheme(config.signature_scheme)
        chain.registry = DeletionRegistry.from_dict(payload.get("registry", {}))
        chain.summarizer = Summarizer(config)
        chain.cohesion_checker = cohesion_checker
        chain.admins = frozenset(admins)
        chain.block_finalizer = None
        chain.bus = event_bus if event_bus is not None else EventBus()
        chain.bus.restore_audit_log(
            ChainEvent.from_dict(item) for item in payload.get("events", ())
        )
        blocks = [Block.from_dict(item) for item in payload.get("blocks", ())]
        if not blocks:
            raise ChainIntegrityError("serialised chain contains no blocks")
        chain._store = store if store is not None else MemoryBlockStore()
        if len(chain._store):
            raise ChainIntegrityError("the store passed to from_dict must be empty")
        with chain._store.commit_scope():
            for block in blocks:
                chain._store.append(block)
        chain._head = blocks[-1]
        chain._genesis_marker = int(payload.get("genesis_marker", blocks[0].block_number))
        chain._pending = []
        chain._total_blocks_created = int(payload.get("total_blocks_created", len(blocks)))
        chain._deleted_block_count = int(payload.get("deleted_block_count", 0))
        chain._deleted_entry_count = int(payload.get("deleted_entry_count", 0))
        chain._index = ChainIndex.build(blocks, config.sequence_length)
        # Restore the clock to continue after the last timestamp.
        if isinstance(chain.clock, LogicalClock) and clock is None:
            chain.clock = LogicalClock(start=blocks[-1].timestamp + 1)
        return chain

    def __len__(self) -> int:
        return self.length

    def __repr__(self) -> str:
        return (
            f"Blockchain(length={self.length}, marker={self._genesis_marker}, "
            f"head={self.head.block_number}, sequences={self._index.view_count})"
        )
