"""Anchor nodes.

Section IV-A: anchor nodes *"manage the full copy of the blockchain and build
the quorum"*; clients *"obtain the current status quo of the blockchain"*
from them (Section V-B4).  In this reproduction each :class:`AnchorNode`
holds its own :class:`~repro.core.chain.Blockchain` replica.  One node acts
as the block producer; every other node replays the announced blocks and
computes the summary blocks locally, then the quorum compares summary hashes
as the synchronisation check of Section IV-B.

The node's four duties are four protocol objects
(:mod:`repro.network.protocols`): :attr:`AnchorNode.service`,
:attr:`AnchorNode.announce`, :attr:`AnchorNode.sync` and
:attr:`AnchorNode.election`.  Callers use the protocol that owns an
operation (``node.sync.catch_up(peer)``); the node itself only wires the
chain and routes every delivered message through one dispatch table.
"""

from __future__ import annotations

from types import GeneratorType
from typing import Any, Callable, Optional

from repro.consensus.base import ConsensusEngine, NullConsensus
from repro.core.chain import Blockchain
from repro.core.errors import SelectiveDeletionError
from repro.core.events import EventType, Subscription
from repro.network.gossip import GossipOverlay
from repro.network.kernel import KernelError
from repro.network.message import Message, MessageKind
from repro.network.protocols.announce import BlockDissemination
from repro.network.protocols.election import ProducerElection
from repro.network.protocols.service import ClientService
from repro.network.protocols.sync import ReplicaSync
from repro.network.transport import InMemoryTransport, Process
from repro.sync.bootstrap import SnapshotChunkCache

#: What a handler or the process it started may raise on a bad request or
#: reply; each is answered with a typed rejection (:meth:`AnchorNode._rejection`).
_REJECTED = (SelectiveDeletionError, KeyError, TypeError, ValueError)


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
        self.service = ClientService(self)
        self.announce = BlockDissemination(self)
        self.sync = ReplicaSync(self)
        self.election = ProducerElection(self)
        #: Message kind -> the handler of the protocol that serves it.
        self.handlers: dict[MessageKind, Callable[[Message], Any]] = {
            kind: getattr(protocol, name)
            for protocol in (self.service, self.announce, self.sync, self.election)
            for kind, name in protocol.HANDLES.items()
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
            self.sync.snapshot_cache = SnapshotChunkCache(chain)
        if self.is_producer:
            self._announce_subscription = self.chain.bus.subscribe(
                self.announce.on_block_sealed, types=(EventType.BLOCK_SEALED,)
            )

    def connect(self, peer_ids: list[str]) -> None:
        """Record the ids of the other anchor nodes."""
        self.peers = [peer for peer in peer_ids if peer != self.node_id]

    def handle_message(self, message: Message) -> Any:
        """Dispatch an incoming protocol message; the reply may be a process."""
        handler = self.handlers.get(message.kind)
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
