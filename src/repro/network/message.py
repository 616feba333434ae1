"""Messages exchanged between clients and anchor nodes.

The paper's prototype was a CORBA client–server system; the reproduction
replaces the middleware with explicit message objects over an in-memory
transport.  Message kinds cover the
interactions the concept needs: submitting entries / deletion requests,
announcing sealed blocks, comparing locally computed summary-block hashes as
a synchronisation check (Section IV-B), incremental catch-up and snapshot
bootstrap for replicas that fell behind (Section V-B4), and the periodic
anti-entropy digests that keep sparse gossip overlays converged.

Message-kind taxonomy
---------------------
Every protocol message is one of the kinds below.  "reply" names the kind
the receiver answers with; one-way kinds (gossip hops, digests) have no
reply — their handler return value is discarded by ``InMemoryTransport.post``.

===================== ================= =============== ============================================== =================
kind                  sender            receiver        payload schema                                 reply
===================== ================= =============== ============================================== =================
``SUBMIT_ENTRY``      client            any anchor      ``{entry}``                                    ``ACK``/``ERROR``
``SUBMIT_DELETION``   client            any anchor      ``{entry}`` (a deletion-request entry)         ``ACK``/``ERROR``
``IDLE_TICK``         client            producer        ``{ticks}``                                    ``ACK``
``FIND_ENTRY``        client            any anchor      ``{reference}``                                ``SYNC_RESPONSE``
``QUERY_STATISTICS``  client            any anchor      ``{}``                                         ``SYNC_RESPONSE``
``BLOCK_ANNOUNCE``    producer/relay    peers           ``{block, gossip?: {item, hops}}``; ``block``  ``ACK`` or one-way
                                                        is a :class:`BlockFrame` or its plain dict
``SUMMARY_HASH``      anchor            peers           ``{block_number, block_hash}``                 ``SYNC_RESPONSE``
``SYNC_REQUEST``      anchor/client     anchor          ``{from_block}``                               ``SYNC_RESPONSE``
``SYNC_RESPONSE``     anchor            requester       kind-specific result fields                    —
``SYNC_DIGEST``       anchor            overlay targets ``{head, head_hash, genesis_marker, round}``   one-way
``SNAPSHOT_REQUEST``  stale anchor      peer anchor     ``{chunk, chunk_size}``                        ``SNAPSHOT_CHUNK``
``SNAPSHOT_CHUNK``    peer anchor       stale anchor    ``{manifest, chunk, data}``                    —
``VOTE_REQUEST``      candidate         online anchors  ``{proposal_id, candidate, candidate_head}``   ``VOTE_RESPONSE``
``VOTE_RESPONSE``     anchor            candidate       ``{proposal_id, approve, head}``               —
``PRODUCER_CHANGE``   new producer      online anchors  ``{producer}``                                 ``ACK``
``ACK``               handler           requester       request-specific receipt fields                —
``ERROR``             handler/transport requester       ``{reason}``                                   —
===================== ================= =============== ============================================== =================

The snapshot kinds implement the wire bootstrap of :mod:`repro.sync.bootstrap`:
a replica whose catch-up gap spans a marker shift pulls its peer's serialised
snapshot in bounded chunks (``manifest`` carries total size/chunk count, the
head hash the snapshot captures, and a digest the assembled payload must
match).  ``SYNC_DIGEST`` is the anti-entropy beacon of
:mod:`repro.sync.antientropy`: receivers that learn they are behind pull via
``SYNC_REQUEST`` or, across a marker shift, the snapshot kinds.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Mapping, Optional

from repro.crypto.hashing import canonical_size

_MESSAGE_COUNTER = itertools.count(1)


def reset_message_counter() -> None:
    """Rewind the process-global message-id counter.

    Message ids exist to link responses to requests; they are process-global
    state, so their absolute values depend on everything that ran earlier in
    the process.  The scenario engine resets the counter before each run so
    that byte accounting (serialised messages include their id) is identical
    across repeated runs — the determinism pin of the scenario catalogue.
    """
    global _MESSAGE_COUNTER
    _MESSAGE_COUNTER = itertools.count(1)


class MessageKind(str, Enum):
    """All message types of the anchor-node protocol (see module taxonomy)."""

    SUBMIT_ENTRY = "submit_entry"
    SUBMIT_DELETION = "submit_deletion"
    IDLE_TICK = "idle_tick"
    FIND_ENTRY = "find_entry"
    QUERY_STATISTICS = "query_statistics"
    BLOCK_ANNOUNCE = "block_announce"
    SUMMARY_HASH = "summary_hash"
    SYNC_REQUEST = "sync_request"
    SYNC_RESPONSE = "sync_response"
    SYNC_DIGEST = "sync_digest"
    SNAPSHOT_REQUEST = "snapshot_request"
    SNAPSHOT_CHUNK = "snapshot_chunk"
    VOTE_REQUEST = "vote_request"
    VOTE_RESPONSE = "vote_response"
    PRODUCER_CHANGE = "producer_change"
    ACK = "ack"
    ERROR = "error"


@dataclass(frozen=True, slots=True)
class BlockFrame:
    """A block as it travels: its ``to_dict()`` fields plus their canonical
    text, encoded once for the whole fan-out.  ``canonical_json`` returns the
    text, so a receiver hashes it and every hop's :attr:`Message.wire_size`
    reuses it; ``Block.from_dict`` reads the fields, as it reads a plain dict."""

    fields: Mapping[str, Any]
    text: str

    def __canonical_json__(self) -> str:
        return self.text


@dataclass(frozen=True)
class Message:
    """A single protocol message."""

    kind: MessageKind
    sender: str
    payload: Mapping[str, Any] = field(default_factory=dict)
    message_id: int = field(default_factory=lambda: next(_MESSAGE_COUNTER))
    in_reply_to: Optional[int] = None
    _wire_size: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    @property
    def wire_size(self) -> int:
        """Bytes of the canonical :meth:`to_dict` encoding, counted once even
        when a fan-out delivers the message k times; a frame adds its text's length."""
        if self._wire_size is None:
            size = canonical_size(self.to_dict())
            # repro: allow[REPRO-F301] write-once memo of a pure function of frozen fields
            object.__setattr__(self, "_wire_size", size)
        return self._wire_size

    def reply(self, kind: MessageKind, sender: str, payload: Optional[Mapping[str, Any]] = None) -> "Message":
        """Build a response message linked to this one."""
        return Message(
            kind=kind,
            sender=sender,
            payload=payload or {},
            in_reply_to=self.message_id,
        )

    def error(self, sender: str, reason: str) -> "Message":
        """Build an error response."""
        return self.reply(MessageKind.ERROR, sender, {"reason": reason})

    @property
    def is_error(self) -> bool:
        """True for error responses."""
        return self.kind is MessageKind.ERROR

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (used for size accounting)."""
        return {
            "kind": self.kind.value,
            "sender": self.sender,
            "payload": dict(self.payload),
            "message_id": self.message_id,
            "in_reply_to": self.in_reply_to,
        }
