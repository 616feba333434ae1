"""Producer election: the quorum duty of Section IV-A.

When the producer fails, the most up-to-date reachable replica — the
highest head, the lowest id on a tie (:func:`most_up_to_date`) — asks the
other replicas to confirm it (``VOTE_REQUEST``).  Each approves when the
candidate is at least as far as itself; ballots travel with real delay, so
the outcome depends on how far each replica has caught up when its ballot
arrives.  An accepted candidate takes the role and tells the voters
(``PRODUCER_CHANGE``).  The concrete leader election is outside the
paper's scope; this is the reproduction's.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from repro.consensus.quorum import Quorum
from repro.network.message import Message, MessageKind
from repro.network.protocols import Protocol
from repro.network.transport import Process

if TYPE_CHECKING:  # pragma: no cover - the node composes the protocols
    from repro.network.node import AnchorNode


def most_up_to_date(candidates: Iterable["AnchorNode"]) -> "AnchorNode":
    """The candidate rule: the highest head, then the lowest id."""
    return min(candidates, key=lambda node: (-node.chain.head.block_number, node.node_id))


class ProducerElection(Protocol):
    """Votes on failover ballots, runs its own, and follows producer changes."""

    HANDLES = {
        MessageKind.VOTE_REQUEST: "_handle_vote_request",
        MessageKind.PRODUCER_CHANGE: "_handle_producer_change",
    }

    def _handle_vote_request(self, message: Message) -> Message:
        """Approve a candidate claiming a head at least as high as ours."""
        head = self.node.chain.head.block_number
        candidate = str(message.payload.get("candidate", ""))
        claimed_head = int(message.payload.get("candidate_head", -1))
        approve = bool(candidate) and claimed_head >= head
        return message.reply(
            MessageKind.VOTE_RESPONSE,
            self.node.node_id,
            {"proposal_id": message.payload.get("proposal_id"), "approve": approve, "head": head},
        )

    def _handle_producer_change(self, message: Message) -> Message:
        """Adopt a quorum-decided producer change."""
        self.set_producer(str(message.payload["producer"]))
        return message.reply(MessageKind.ACK, self.node.node_id, {"producer": self.node.producer_id})

    def set_producer(self, producer_id: str) -> None:
        """Point this node at a (possibly new) block producer.

        Becoming the producer attaches the seal-announcement subscription;
        losing the role detaches it, so exactly one node announces.
        """
        node = self.node
        node.producer_id = producer_id
        becoming = producer_id == node.node_id
        if becoming != node.is_producer:
            node.is_producer = becoming
            node._bind()

    def ballot_process(self, electorate: list[str], proposal_id: str) -> Process:
        """Ask every other member of ``electorate`` to confirm this node as
        producer; returns whether the quorum accepted.  The candidate backs
        itself, and an unanswered ballot counts as no vote."""
        candidate = self.node.node_id
        voters = [peer for peer in electorate if peer != candidate]
        quorum = Quorum(electorate)
        quorum.propose(proposal_id, "producer-failover", {"candidate": candidate})
        votes = {candidate: True}
        ballot = Message(
            kind=MessageKind.VOTE_REQUEST,
            sender=candidate,
            payload={
                "proposal_id": proposal_id,
                "candidate": candidate,
                "candidate_head": self.node.chain.head.block_number,
            },
        )
        replies = yield [self.transport.request(peer, ballot) for peer in voters]
        for peer, (response, _) in zip(voters, replies):
            if response is None or response.is_error:
                continue
            votes[peer] = bool(response.payload.get("approve", False))
        return quorum.record_votes(proposal_id, votes).state.value == "accepted"

    def take_over_process(self, electorate: list[str]) -> Process:
        """Become the producer and tell the rest of ``electorate``."""
        candidate = self.node.node_id
        self.set_producer(candidate)
        notice = Message(kind=MessageKind.PRODUCER_CHANGE, sender=candidate, payload={"producer": candidate})
        yield [self.transport.request(peer, notice) for peer in electorate if peer != candidate]
