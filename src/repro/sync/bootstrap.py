"""Snapshot bootstrap over the wire.

Incremental catch-up (``ReplicaSync.catch_up``) replays missed *living* blocks
from a peer.  Once the peer's genesis marker has shifted past a replica's
head, the blocks the replica would need next have been physically deleted —
Section V-B4's isolation discussion: a node isolated across a summarisation
cycle cannot reconstruct the gap and must instead adopt the *"current status
quo"* wholesale.  This module implements that adoption as a chunked pull
protocol over the ordinary message transport:

1. The stale replica sends ``SNAPSHOT_REQUEST {chunk, chunk_size}`` requests.
2. The peer serialises its chain once per head
   (:class:`SnapshotChunkCache`), answers each request with a
   ``SNAPSHOT_CHUNK`` carrying one bounded slice plus the
   :class:`SnapshotManifest` (total size, chunk count, head hash, payload
   digest).
3. :func:`fetch_snapshot` pulls every chunk, retransmitting lost ones
   (bounded retries per chunk), restarts cleanly when the peer's head moves
   mid-transfer, and verifies the assembled payload against the manifest
   digest before handing it to
   :func:`repro.storage.snapshot.chain_from_payload`.

Everything is deterministic: chunk boundaries are pure arithmetic, the
digest is sha256 over the canonical payload, and each request/response
consumes virtual time on the transport's kernel — so a bootstrap under loss
replays byte-identically for a given seed.  Each fetch is a kernel process
(``*_process``, see :func:`repro.network.transport.spawn`); the plain names
drive it from outside any kernel event.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Sequence

from repro.core.errors import SelectiveDeletionError
from repro.network.message import Message, MessageKind
from repro.network.transport import Process, blocking
from repro.storage.snapshot import snapshot_digest, snapshot_payload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.chain import Blockchain
    from repro.network.transport import InMemoryTransport

#: Default chunk size in characters of the serialised payload.  Small enough
#: that a single loss costs one bounded retransmit, large enough that the
#: per-chunk message framing stays a minor overhead.
DEFAULT_CHUNK_SIZE = 4096

#: How often one chunk is re-requested before the fetch gives up.
DEFAULT_MAX_RETRIES = 4

#: How often the whole transfer restarts when the peer's head moves
#: mid-transfer (the peer kept sealing blocks while we were pulling chunks).
DEFAULT_MAX_RESTARTS = 4


class BootstrapError(SelectiveDeletionError):
    """Raised when a snapshot bootstrap cannot complete."""


@dataclass(frozen=True)
class SnapshotManifest:
    """Advertised shape of one wire snapshot (carried in every chunk)."""

    head_number: int
    head_hash: str
    genesis_marker: int
    total_bytes: int
    total_chunks: int
    chunk_size: int
    digest: str

    def to_dict(self) -> dict[str, Any]:
        """JSON view for the message payload."""
        return {
            "head_number": self.head_number,
            "head_hash": self.head_hash,
            "genesis_marker": self.genesis_marker,
            "total_bytes": self.total_bytes,
            "total_chunks": self.total_chunks,
            "chunk_size": self.chunk_size,
            "digest": self.digest,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "SnapshotManifest":
        """Rebuild a manifest from a message payload."""
        return cls(
            head_number=int(payload["head_number"]),
            head_hash=str(payload["head_hash"]),
            genesis_marker=int(payload["genesis_marker"]),
            total_bytes=int(payload["total_bytes"]),
            total_chunks=int(payload["total_chunks"]),
            chunk_size=int(payload["chunk_size"]),
            digest=str(payload["digest"]),
        )


class SnapshotChunkCache:
    """Serving side: serialise the chain once per head, slice on demand.

    Serialising a whole chain is the expensive part of answering a snapshot
    request; a bootstrap asks for dozens of chunks of the *same* state.  The
    cache keys the serialised payload by the chain's head hash, so repeated
    chunk requests (and retransmissions) cost string slicing only, and a new
    head naturally invalidates the cached payload.
    """

    def __init__(self, chain: "Blockchain") -> None:
        self.chain = chain
        self._head_hash: Optional[str] = None
        self._payload: str = ""
        self._digest: str = ""

    def _refresh(self) -> None:
        head_hash = self.chain.head.block_hash
        if head_hash == self._head_hash:
            return
        self._payload = snapshot_payload(self.chain)
        self._digest = snapshot_digest(self._payload)
        self._head_hash = head_hash

    def manifest(self, chunk_size: int = DEFAULT_CHUNK_SIZE) -> SnapshotManifest:
        """Manifest of the snapshot at the chain's current head."""
        if chunk_size < 1:
            raise BootstrapError(f"chunk_size must be positive, got {chunk_size}")
        self._refresh()
        total = len(self._payload)
        return SnapshotManifest(
            head_number=self.chain.head.block_number,
            head_hash=self.chain.head.block_hash,
            genesis_marker=self.chain.genesis_marker,
            total_bytes=total,
            total_chunks=max(1, -(-total // chunk_size)),
            chunk_size=chunk_size,
            digest=self._digest,
        )

    def chunk(self, index: int, chunk_size: int = DEFAULT_CHUNK_SIZE) -> str:
        """Slice ``index`` of the current snapshot payload."""
        manifest = self.manifest(chunk_size)
        if not 0 <= index < manifest.total_chunks:
            raise BootstrapError(
                f"chunk {index} out of range (snapshot has {manifest.total_chunks} chunks)"
            )
        start = index * chunk_size
        return self._payload[start : start + chunk_size]


@dataclass
class BootstrapReport:
    """Outcome and accounting of one :func:`fetch_snapshot` attempt."""

    peer_id: str
    succeeded: bool = False
    reason: str = ""
    chunks_fetched: int = 0
    retransmits: int = 0
    restarts: int = 0
    payload_bytes: int = 0
    manifest: Optional[SnapshotManifest] = None
    payload: Optional[str] = field(default=None, repr=False)
    #: Peers that actually served chunks (striped fetches only; a plain
    #: single-peer fetch leaves this at ``[peer_id]`` semantics via
    #: ``peer_id`` itself).
    donors: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        """Counter view for simulation reports (payload omitted)."""
        return {
            "peer_id": self.peer_id,
            "succeeded": self.succeeded,
            "reason": self.reason,
            "chunks_fetched": self.chunks_fetched,
            "retransmits": self.retransmits,
            "restarts": self.restarts,
            "payload_bytes": self.payload_bytes,
            "donors": list(self.donors),
        }


def _request_chunk(
    transport: "InMemoryTransport",
    requester_id: str,
    peer_id: str,
    index: int,
    chunk_size: int,
    *,
    max_retries: int,
    report: BootstrapReport,
) -> Process:
    """One chunk request with bounded retransmission on loss.

    Transport-generated errors (lost message, blocked link) are retried;
    an error the *peer* produced is a verdict about the request itself —
    most importantly "chunk out of range" after the peer's snapshot shrank
    mid-transfer — so it is returned to the caller immediately instead of
    burning every retry on the same doomed index.
    """
    for attempt in range(max_retries + 1):
        if attempt:
            report.retransmits += 1
        request = Message(
            kind=MessageKind.SNAPSHOT_REQUEST,
            sender=requester_id,
            payload={"chunk": index, "chunk_size": chunk_size},
        )
        response = yield from transport.exchange(peer_id, request)
        if response is None or (response.is_error and response.sender == "transport"):
            continue
        return response
    return None


def fetch_snapshot_process(
    transport: "InMemoryTransport",
    requester_id: str,
    peer_id: str,
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
    max_retries: int = DEFAULT_MAX_RETRIES,
) -> Process:
    """Pull a peer's snapshot in bounded chunks; verify it against the manifest.

    Returns a :class:`BootstrapReport`; on success ``report.payload`` holds
    the assembled wire payload (feed it to
    :func:`repro.storage.snapshot.chain_from_payload`) and
    ``report.manifest`` the manifest it was verified against.  The fetch
    never raises on delivery failures — loss and outages are expected
    operating conditions — only on programmer errors.
    """
    report = BootstrapReport(peer_id=peer_id)
    for restart in range(DEFAULT_MAX_RESTARTS + 1):
        if restart:
            report.restarts += 1
        first = yield from _request_chunk(
            transport, requester_id, peer_id, 0, chunk_size,
            max_retries=max_retries, report=report,
        )
        if first is None:
            report.reason = f"peer {peer_id!r} unreachable (chunk 0 exhausted retries)"
            return report
        if first.is_error:
            # Chunk 0 always exists, so a peer verdict here means the
            # request itself was malformed (e.g. invalid chunk size).
            report.reason = str(first.payload.get("reason", "peer rejected the request"))
            return report
        manifest = SnapshotManifest.from_dict(first.payload["manifest"])
        parts: list[str] = [str(first.payload["data"])]
        report.chunks_fetched += 1
        stale = False
        for index in range(1, manifest.total_chunks):
            response = yield from _request_chunk(
                transport, requester_id, peer_id, index, chunk_size,
                max_retries=max_retries, report=report,
            )
            if response is None:
                report.reason = f"chunk {index} exhausted retries"
                return report
            if response.is_error:
                # A peer verdict mid-transfer ("chunk out of range"): the
                # snapshot shrank under us — same remedy as a moved head.
                stale = True
                break
            current = SnapshotManifest.from_dict(response.payload["manifest"])
            if current.head_hash != manifest.head_hash:
                # The peer sealed new blocks mid-transfer; chunks of the old
                # and new snapshot cannot be mixed — start over.
                stale = True
                break
            parts.append(str(response.payload["data"]))
            report.chunks_fetched += 1
        if stale:
            continue
        payload = "".join(parts)
        if len(payload) != manifest.total_bytes or snapshot_digest(payload) != manifest.digest:
            report.reason = "assembled payload does not match the manifest digest"
            return report
        report.succeeded = True
        report.reason = "ok"
        report.manifest = manifest
        report.payload = payload
        report.payload_bytes = manifest.total_bytes
        return report
    report.reason = f"peer's head kept moving ({DEFAULT_MAX_RESTARTS} restarts exhausted)"
    return report


fetch_snapshot = blocking(fetch_snapshot_process)


# --------------------------------------------------------------------- #
# Load-aware multi-peer bootstrap
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class PeerProbe:
    """One answered bootstrap probe: who, how far, how busy, serving what."""

    peer_id: str
    #: Probe round-trip time in virtual ms, measured from the wave's shared
    #: departure instant (equal for every peer on a zero-latency transport).
    rtt_ms: float
    #: Chunks the peer has served so far — its snapshot-serving load.
    load: int
    manifest: SnapshotManifest


def rank_bootstrap_peers_process(
    transport: "InMemoryTransport",
    requester_id: str,
    peer_ids: Sequence[str],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Process:
    """Probe every candidate and rank them nearest-and-least-loaded first.

    A probe asks for the peer's snapshot manifest and serving load, no data.
    All probes depart in one wave (one round trip of virtual time, not one
    per candidate), so the RTTs are directly comparable across peers.  The
    sort key is ``(rtt_ms, load, peer_id)``: proximity dominates (a
    bootstrap is dozens of round trips), serving load breaks latency ties,
    and the peer id makes the ranking a total order so runs replay
    byte-identically.  Unreachable and snapshot-less peers drop out.
    """
    candidates = [peer_id for peer_id in sorted(set(peer_ids)) if peer_id != requester_id]
    replies = yield [
        transport.request(
            peer_id,
            Message(
                kind=MessageKind.SNAPSHOT_REQUEST,
                sender=requester_id,
                payload={"probe": True, "chunk_size": chunk_size},
            ),
        )
        for peer_id in candidates
    ]
    probes = [
        PeerProbe(
            peer_id=peer_id,
            rtt_ms=round(rtt, 6),
            load=int(response.payload.get("load", 0)),
            manifest=SnapshotManifest.from_dict(response.payload["manifest"]),
        )
        for peer_id, (response, rtt) in zip(candidates, replies)
        if response is not None and not response.is_error
    ]
    probes.sort(key=lambda probe: (probe.rtt_ms, probe.load, probe.peer_id))
    return probes


rank_bootstrap_peers = blocking(rank_bootstrap_peers_process)


def fetch_snapshot_striped_process(
    transport: "InMemoryTransport",
    requester_id: str,
    peer_ids: Sequence[str],
    *,
    chunk_size: int = DEFAULT_CHUNK_SIZE,
) -> Process:
    """Pull one snapshot with chunks striped across the best-ranked peers.

    Candidates are probed and ranked (:func:`rank_bootstrap_peers_process`); every
    peer serving the best peer's exact *payload* joins the donor set, and
    chunk ``i``
    is assigned to donor ``(i + attempts) % len(donors)`` — deterministic,
    load-spreading, and self-healing: a chunk whose donor lost it is re-
    requested from the *next* donor rather than burning all retries on one
    sick peer.  Each wave issues ``len(donors)`` requests concurrently.

    Donors are replicas with independent clocks: under live traffic they
    seal and replay new blocks at slightly different instants, so one donor
    drifting off the snapshot head mid-transfer is the *expected* case, not
    a failed transfer.  A drifted donor (new head hash, or a "chunk out of
    range" verdict after its snapshot shrank) is evicted from the donor set
    and its chunks reassigned to the remaining donors; only when every
    donor has drifted does the transfer restart with a fresh ranking,
    exactly like :func:`fetch_snapshot`'s moved-head restart.
    """
    report = BootstrapReport(peer_id="")
    for restart in range(DEFAULT_MAX_RESTARTS + 1):
        if restart:
            report.restarts += 1
        ranked = yield from rank_bootstrap_peers_process(
            transport, requester_id, peer_ids, chunk_size=chunk_size
        )
        if not ranked:
            report.reason = "no bootstrap peer answered the probe"
            return report
        # Freshness dominates the ranking: a near peer serving a stale head
        # would be adopted only to need another pull.  Among the peers at
        # the most advanced head, the probe order (nearest, least loaded)
        # picks the lead donor.
        top_head = max(probe.manifest.head_number for probe in ranked)
        fresh = [probe for probe in ranked if probe.manifest.head_number == top_head]
        best = fresh[0]
        report.peer_id = best.peer_id
        manifest = best.manifest
        # Donor membership is keyed by the payload *digest*, not the head
        # hash: the wire payload carries replica-local history (the chain
        # event log) the head hash does not commit, so two replicas at the
        # identical head can serve different bytes — and chunks of
        # different byte streams cannot be mixed.
        donors = [
            probe.peer_id
            for probe in fresh
            if probe.manifest.digest == manifest.digest
        ]
        report.donors = list(donors)
        parts: dict[int, str] = {}
        attempts = {index: 0 for index in range(manifest.total_chunks)}
        work: deque[int] = deque(range(manifest.total_chunks))
        active = list(donors)
        stale = False
        failure = ""
        while work and not failure:
            if not active:
                # Every donor drifted off the snapshot head: nobody can
                # serve the remaining chunks — re-rank and start over.
                stale = True
                break
            wave: list[tuple[int, str]] = []
            while work and len(wave) < len(active):
                index = work.popleft()
                wave.append((index, active[(index + attempts[index]) % len(active)]))
            replies = yield [
                transport.request(
                    donor,
                    Message(
                        kind=MessageKind.SNAPSHOT_REQUEST,
                        sender=requester_id,
                        payload={"chunk": index, "chunk_size": chunk_size},
                    ),
                )
                for index, donor in wave
            ]
            for (index, donor), (response, _) in zip(wave, replies):
                if response is None or (
                    response.is_error and response.sender == "transport"
                ):
                    attempts[index] += 1
                    report.retransmits += 1
                    if attempts[index] > DEFAULT_MAX_RETRIES:
                        failure = f"chunk {index} exhausted retries"
                        break
                    work.append(index)
                    continue
                if response.is_error or (
                    SnapshotManifest.from_dict(
                        response.payload["manifest"]
                    ).digest
                    != manifest.digest
                ):
                    # This donor no longer serves the snapshot we are
                    # assembling (sealed past it, or it shrank).  Evict it
                    # and re-request the chunk from the remaining donors.
                    if donor in active:
                        active.remove(donor)
                    work.append(index)
                    continue
                parts[index] = str(response.payload["data"])
                report.chunks_fetched += 1
        if stale:
            continue
        if failure:
            report.reason = failure
            return report
        payload = "".join(parts[index] for index in range(manifest.total_chunks))
        if len(payload) != manifest.total_bytes or snapshot_digest(payload) != manifest.digest:
            report.reason = "assembled payload does not match the manifest digest"
            return report
        report.succeeded = True
        report.reason = "ok"
        report.manifest = manifest
        report.payload = payload
        report.payload_bytes = manifest.total_bytes
        return report
    report.reason = f"peers' heads kept moving ({DEFAULT_MAX_RESTARTS} restarts exhausted)"
    return report


fetch_snapshot_striped = blocking(fetch_snapshot_striped_process)
