"""Replica synchronisation: the summary-hash check and status-quo adoption.

Section IV-B: every anchor computes the summary blocks itself, and the
quorum compares their hashes (``SUMMARY_HASH``) to detect a diverging
replica.  Section V-B4: a replica that fell behind adopts the status quo —
by replaying the missed blocks (catch-up, ``SYNC_REQUEST``) or, when the
gap spans a genesis-marker shift, by pulling a peer's snapshot
(``SNAPSHOT_REQUEST``).  Anti-entropy beacons (``SYNC_DIGEST``) trigger
the pull; a forked replica is repaired by the same two steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING, Optional

from repro.core.block import Block
from repro.core.chain import Blockchain
from repro.core.errors import ChainIntegrityError, SelectiveDeletionError, SynchronisationError
from repro.network.message import Message, MessageKind
from repro.network.protocols import Protocol
from repro.network.transport import Process, blocking, spawn
from repro.storage.snapshot import chain_from_payload
from repro.sync.bootstrap import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MAX_RETRIES,
    BootstrapError,
    BootstrapReport,
    SnapshotChunkCache,
    fetch_snapshot_process,
    fetch_snapshot_striped_process,
)

if TYPE_CHECKING:  # pragma: no cover - the node composes the protocols
    from repro.network.node import AnchorNode


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
    #: (:meth:`ReplicaSync.bootstrap_from`) can converge it.
    SNAPSHOT_REQUIRED = "snapshot-required"
    #: The consensus engine rejected a replayed block; replay stopped there.
    BLOCK_REJECTED = "block-rejected"
    #: :meth:`ReplicaSync.synchronize` adopted a peer snapshot over the wire.
    BOOTSTRAPPED = "bootstrapped"


@dataclass(frozen=True)
class CatchUpResult:
    """Outcome of :meth:`ReplicaSync.catch_up` / :meth:`ReplicaSync.synchronize`.

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


class ReplicaSync(Protocol):
    """Summary-hash checks, catch-up, snapshot bootstrap and anti-entropy."""

    HANDLES = {
        MessageKind.SUMMARY_HASH: "_handle_summary_hash",
        MessageKind.SYNC_REQUEST: "_handle_sync_request",
        MessageKind.SYNC_DIGEST: "_handle_sync_digest",
        MessageKind.SNAPSHOT_REQUEST: "_handle_snapshot_request",
    }

    def __init__(self, node: "AnchorNode") -> None:
        super().__init__(node)
        #: The serving side of the bootstrap protocol (the serialised chain
        #: cached per head), built by ``AnchorNode._bind`` for every chain.
        self.snapshot_cache: SnapshotChunkCache
        #: While a digest-triggered pull process is running, further digests
        #: reaching this node must not start a second, overlapping pull.
        self.in_progress = False
        #: Most advanced ``(peer, head)`` digest absorbed by the guard; the
        #: pull loop chases it once the running pull completes, so a pull
        #: from a lagging peer cannot strand the replica behind a peer whose
        #: digest happened to arrive mid-pull.
        self._deferred_digest: Optional[tuple[str, int]] = None
        #: Aggregated into simulation reports by
        #: :class:`repro.sync.antientropy.AntiEntropyService`.
        self.counters = {
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
        }

    def _handle_summary_hash(self, message: Message) -> Message:
        block_number = int(message.payload["block_number"])
        expected_hash = str(message.payload["block_hash"])
        try:
            own = self.node.chain.block_by_number(block_number)
        except KeyError:
            return message.reply(
                MessageKind.SYNC_RESPONSE, self.node.node_id, {"match": False, "reason": "block unknown"}
            )
        matches = own.is_summary and own.block_hash == expected_hash
        return message.reply(MessageKind.SYNC_RESPONSE, self.node.node_id, {"match": matches})

    def _handle_sync_request(self, message: Message) -> Message:
        chain = self.node.chain
        from_number = int(message.payload.get("from_block", chain.genesis_marker))
        if message.payload.get("contiguous") and from_number < chain.genesis_marker:
            # A catch-up needs the blocks *right after* the requester's head,
            # and those were physically deleted by a marker shift.  Decline
            # without shipping the living chain — the requester would have
            # to discard it and bootstrap anyway, so serialising it here
            # would just double the bytes of every wire bootstrap.
            return message.reply(
                MessageKind.SYNC_RESPONSE,
                self.node.node_id,
                {"blocks": [], "genesis_marker": chain.genesis_marker, "snapshot_required": True},
            )
        blocks = [block.to_dict() for block in chain.blocks if block.block_number >= from_number]
        return message.reply(
            MessageKind.SYNC_RESPONSE,
            self.node.node_id,
            {"blocks": blocks, "genesis_marker": chain.genesis_marker},
        )

    def _handle_snapshot_request(self, message: Message) -> Message:
        """Serve one bounded chunk of the serialised local replica, with the
        manifest (a puller restarts when the head moved mid-transfer); a
        probe gets the manifest and this node's serving load only."""
        chunk_size = int(message.payload.get("chunk_size", DEFAULT_CHUNK_SIZE))
        index = int(message.payload.get("chunk", 0))
        probe = bool(message.payload.get("probe"))
        try:
            payload: dict = {"manifest": self.snapshot_cache.manifest(chunk_size).to_dict()}
            if probe:
                payload["load"] = self.counters["chunks_served"]
            else:
                payload.update(chunk=index, data=self.snapshot_cache.chunk(index, chunk_size))
        except BootstrapError as exc:
            return message.error(self.node.node_id, str(exc))
        self.counters["snapshot_probes_served" if probe else "chunks_served"] += 1
        return message.reply(MessageKind.SNAPSHOT_CHUNK, self.node.node_id, payload)

    def _handle_sync_digest(self, message: Message) -> None:
        """Anti-entropy beacon: pull from the sender when behind, push the
        local digest back when strictly ahead.

        The pull is a kernel process that outlives this delivery; digests
        arriving while it runs are absorbed by :attr:`in_progress`.  The
        push-back makes the digest gossip *push-pull*: a stale replica whose
        digest reaches an up-to-date peer learns of the newer head in the
        same round — halving convergence rounds on sparse overlays.
        """
        node = self.node
        head = node.chain.head
        self.counters["digests_received"] += 1
        peer_head = int(message.payload.get("head", -1))
        if peer_head < head.block_number:
            self.counters["digests_pushed_back"] += 1
            self.transport.post(
                message.sender,
                Message(
                    kind=MessageKind.SYNC_DIGEST,
                    sender=node.node_id,
                    payload={
                        "head": head.block_number,
                        "head_hash": head.block_hash,
                        "genesis_marker": node.chain.genesis_marker,
                        "pushback": True,
                    },
                ),
            )
            return None
        if peer_head == head.block_number:
            peer_hash = str(message.payload.get("head_hash", ""))
            if peer_hash and peer_hash != head.block_hash:
                # Same height, different block: a fork.  Replaying cannot
                # reconcile it (the peer's blocks do not link to our head) —
                # the paper treats divergence as a detected failure
                # (Section IV-B), so surface it in the counters instead of
                # attempting a pull that must fail.
                self.counters["digests_diverged"] += 1
            return None
        if self.in_progress:
            best = self._deferred_digest
            if best is None or peer_head > best[1]:
                self._deferred_digest = (message.sender, peer_head)
            return None
        self.counters["digests_behind"] += 1
        spawn(self.transport.kernel, node._guarded(message, self.synchronize_process(message.sender)))
        return None

    def latest_summary_block(self) -> Optional[Block]:
        """Most recent summary block of the local replica."""
        for block in reversed(self.node.chain.blocks):
            if block.is_summary:
                return block
        return None

    def sync_check_process(self, *, raise_on_divergence: bool = False) -> Process:
        """Compare the latest locally computed summary block with all peers."""
        summary = self.latest_summary_block()
        if summary is None:
            return SyncReport(block_number=-1, own_hash="")
        message = Message(
            kind=MessageKind.SUMMARY_HASH,
            sender=self.node.node_id,
            payload={"block_number": summary.block_number, "block_hash": summary.block_hash},
        )
        peers = self.node.peers
        replies = yield [self.transport.request(peer, message) for peer in peers]
        report = SyncReport(block_number=summary.block_number, own_hash=summary.block_hash)
        for peer, (response, _) in zip(peers, replies):
            answered = response is not None and not response.is_error
            report.peer_results[peer] = answered and bool(response.payload.get("match", False))
        if raise_on_divergence and not report.in_sync:
            raise SynchronisationError(
                f"summary block {summary.block_number} diverges on peers {report.diverged_peers}"
            )
        return report

    sync_check = blocking(sync_check_process)

    def catch_up_process(self, peer_id: str) -> Process:
        """Fetch the blocks after the local head from a peer and replay the
        *normal* ones through the live-replication step, recomputing the
        summary blocks locally, so the replica ends byte-identical to the
        peer (Section V-B4's isolation discussion).

        Returns a :class:`CatchUpResult`.  A decline names its cause in
        ``detail``: the transport's reason (``PEER_UNREACHABLE``), the
        blocks the peer no longer serves (``SNAPSHOT_REQUIRED`` — call
        :meth:`bootstrap_from`, or :meth:`synchronize`, which does both), or
        why a replayed or buffered block was refused or forks from the head
        (``BLOCK_REJECTED``; the block is kept in the dissemination
        protocol's ``rejected_blocks``).
        """
        chain, announce = self.node.chain, self.node.announce
        self.counters["catch_ups"] += 1
        request = Message(
            kind=MessageKind.SYNC_REQUEST,
            sender=self.node.node_id,
            payload={"from_block": chain.head.block_number + 1, "contiguous": True},
        )
        response = yield from self.transport.exchange(peer_id, request)
        chain = self.node.chain  # a bootstrap may have replaced it meanwhile
        if response is None or response.is_error:
            reason = "" if response is None else str(response.payload.get("reason", ""))
            detail = reason or f"no response from {peer_id!r}"
            return CatchUpResult(CatchUpStatus.PEER_UNREACHABLE, detail=detail)
        peer_marker = int(response.payload.get("genesis_marker", 0))
        if response.payload.get("snapshot_required"):
            # The peer declined without shipping any blocks: our next-needed
            # block lies before its marker and was physically deleted.
            detail = _unserved(chain.next_block_number, peer_marker, peer_marker)
            return CatchUpResult(CatchUpStatus.SNAPSHOT_REQUIRED, detail=detail)
        adopted = 0
        status = CatchUpStatus.ALREADY_CURRENT
        reason: Optional[str] = None
        for payload in response.payload.get("blocks", []):
            block = Block.from_dict(payload)
            if block.is_summary:
                continue  # summary blocks are recomputed locally (Section IV-B)
            if block.block_number > chain.next_block_number:
                # Defence in depth for peers that did ship blocks despite a
                # marker past our head: the needed predecessors are gone.
                status = CatchUpStatus.SNAPSHOT_REQUIRED
                reason = _unserved(chain.next_block_number, block.block_number, peer_marker)
                break
            if block.block_number < chain.next_block_number:
                continue  # already part of the local replica
            announce.block_buffer.pop(block.block_number, None)  # replayed, not drained
            try:
                reason = announce.apply(block)
            except ChainIntegrityError as exc:
                # A same-height fork: the peer's block does not link to our
                # head.  Forks are *detected* (sync_check), never silently
                # replayed over — stop and report instead of crashing the
                # caller (which may be a kernel event handler).
                reason = str(exc)
            if reason is not None:
                status = CatchUpStatus.BLOCK_REJECTED
                break
            adopted += 1
        if adopted and status is CatchUpStatus.ALREADY_CURRENT:
            status = CatchUpStatus.ADOPTED
        self.counters["blocks_replayed"] += adopted
        # Gossiped announcements that overtook the gap can now be applied —
        # unless one of them forks from the head just replayed.
        try:
            announce.drain()
        except ChainIntegrityError as exc:
            status, reason = CatchUpStatus.BLOCK_REJECTED, str(exc)
        return CatchUpResult(status=status, adopted=adopted, detail=reason or "")

    catch_up = blocking(catch_up_process)

    def bootstrap_from_process(
        self,
        peer_id: str,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        max_retries: int = DEFAULT_MAX_RETRIES,
    ) -> Process:
        """Adopt a peer's snapshot, pulled in bounded, retransmitted chunks
        (:func:`repro.sync.bootstrap.fetch_snapshot_process`) and verified
        before it replaces the local replica (:meth:`_adopt_snapshot_report`);
        on failure the replica is untouched and the report says why."""
        report = yield from fetch_snapshot_process(
            self.transport, self.node.node_id, peer_id, chunk_size=chunk_size, max_retries=max_retries
        )
        return self._adopt_snapshot_report(report)

    bootstrap_from = blocking(bootstrap_from_process)

    def bootstrap_from_best_process(
        self,
        peer_ids: Optional[list[str]] = None,
        *,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> Process:
        """The load-aware :meth:`bootstrap_from` the digest-triggered pull
        uses: candidates (default: every connected peer) are probed for
        proximity and serving load, and the chunks are striped across every
        donor serving the winning head
        (:func:`repro.sync.bootstrap.fetch_snapshot_striped_process`)."""
        candidates = list(peer_ids) if peer_ids is not None else list(self.node.peers)
        report = yield from fetch_snapshot_striped_process(
            self.transport, self.node.node_id, candidates, chunk_size=chunk_size
        )
        if report.manifest is not None and report.manifest.head_number < self.node.chain.head.block_number:
            # The freshest peer that answered is behind us (a spoofed digest
            # baited the pull): never trade the local head for an older one.
            report.succeeded, report.reason = False, "every answering peer is behind the local head"
        return self._adopt_snapshot_report(report)

    def _adopt_snapshot_report(self, report: BootstrapReport) -> BootstrapReport:
        """Rebuild a fetched snapshot (hash chain and index verified), check
        its head against the peer's manifest and adopt it."""
        if not report.succeeded:
            return report
        assert report.payload is not None and report.manifest is not None
        local = self.node.chain
        try:
            chain = chain_from_payload(
                report.payload,
                clock=local.clock,
                schema=local.schema,
                authorizer=local.authorizer,
                cohesion_checker=local.cohesion_checker,
                event_bus=local.bus,
            )
        except SelectiveDeletionError as exc:
            report.succeeded, report.reason = False, f"snapshot rejected: {exc}"
            return report
        if chain.head.block_hash != report.manifest.head_hash:
            report.succeeded, report.reason = False, "rebuilt head hash does not match the peer's manifest"
            return report
        self.adopt_chain(chain)
        self.counters["bootstraps"] += 1
        self.counters["bootstrap_bytes"] += report.payload_bytes
        self.counters["bootstrap_retransmits"] += report.retransmits
        return report

    def adopt_chain(self, chain: Blockchain) -> None:
        """Replace the local replica wholesale: re-wire the node to
        ``chain`` (``AnchorNode._bind``), then drop the buffered
        announcements it covers and drain the newer ones against it."""
        self.node._bind(chain)
        self.node.announce.discard_covered()
        self.node.announce.drain()

    def synchronize_process(self, peer_id: str) -> Process:
        """Converge on ``peer_id`` whatever the gap: catch up, else bootstrap.

        The pull path anti-entropy digests trigger.  A catch-up that ends
        ``PEER_UNREACHABLE`` (its request or reply was lost) is retried up to
        ``DEFAULT_MAX_RETRIES`` times; one that declines across a marker
        shift pulls a snapshot and tops off with a catch-up.  Then the most
        advanced digest absorbed meanwhile is chased while its sender claims
        a strictly newer head, so the call converges on the best peer it
        *heard of*, not merely the one that triggered it.
        """
        while True:
            result = yield from self._synchronize_once(peer_id)
            deferred, self._deferred_digest = self._deferred_digest, None
            if deferred is None or deferred[1] <= self.node.chain.head.block_number:
                return result
            peer_id = deferred[0]

    synchronize = blocking(synchronize_process)

    def _synchronize_once(self, peer_id: str) -> Process:
        """One guarded catch-up-or-bootstrap pull against a single peer."""
        self.in_progress = True
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
            candidates = [peer_id] + [peer for peer in self.node.peers if peer != peer_id]
            report = yield from self.bootstrap_from_best_process(candidates)
            if not report.succeeded:
                detail = f"bootstrap failed: {report.reason}"
                return CatchUpResult(CatchUpStatus.SNAPSHOT_REQUIRED, detail=detail)
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
            self.in_progress = False

    def repair_from_process(self, producer: "AnchorNode") -> Process:
        """Converge this replica on ``producer`` if their heads differ;
        returns whether that repaired it.

        Divergence detection is the summary-hash comparison of
        Section IV-B; *repair* is the status-quo adoption of Section V-B4: a
        merely lagging replica converges by catch-up, while a forked one
        cannot replay its way back (the honest blocks no longer link to its
        head), so it then adopts the producer's snapshot wholesale.
        """
        if self.node.chain.head.block_hash == producer.chain.head.block_hash:
            return False
        yield from self.catch_up_process(producer.node_id)
        if self.node.chain.head.block_hash != producer.chain.head.block_hash:
            yield from self.bootstrap_from_process(producer.node_id)
        return self.node.chain.head.block_hash == producer.chain.head.block_hash


def _unserved(first: int, stop: int, peer_marker: int) -> str:
    """The decline detail for blocks ``first..stop - 1`` a peer no longer serves."""
    return (
        f"blocks {first}..{stop - 1} are no longer served (peer's genesis marker "
        f"shifted to {peer_marker}); adopt a snapshot via bootstrap_from"
    )
