"""The concrete byzantine actor roles.

Each actor attacks one mechanism the paper relies on:

========================== ============================================== =================================
actor                      attacks                                        honest defence that must hold
========================== ============================================== =================================
:class:`EquivocatingProducer` block dissemination (Section IV-B)          fork detection via summary-hash
                                                                          comparison; repair by snapshot
                                                                          bootstrap (Section V-B4)
:class:`DeletionForger`    deletion authorization (Section IV-D1/D2)      typed rejections from the
                                                                          authorizer and cohesion layers
:class:`DigestSpoofer`     anti-entropy pulls (:mod:`repro.sync`)         baited pulls fail harmlessly;
                                                                          replicas keep their state
:class:`ClockSkewedReplica` block timestamps (Sections IV-D3/D4)          expiry evaluates on *on-chain*
                                                                          time, so skew cannot fork the
                                                                          quorum — only a skewed producer
                                                                          can age entries prematurely
========================== ============================================== =================================

Everything an actor does is a deterministic function of its constructor
arguments and call order; scenarios seed those from the scenario seed, so
adversarial runs replay byte-identically like every other catalogue entry.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Iterable, Optional

from repro.adversary.base import AdversaryActor
from repro.core.block import Block
from repro.core.clock import SimulationClock
from repro.core.deletion import build_deletion_request
from repro.core.entry import Entry, EntryReference
from repro.crypto.signatures import new_scheme, sign_entry
from repro.network.message import Message, MessageKind
from repro.network.transport import Process, blocking

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.kernel import EventHandle
    from repro.network.node import AnchorNode
    from repro.network.transport import InMemoryTransport


class EquivocatingProducer(AdversaryActor):
    """Seals conflicting blocks for one height and splits them over victims.

    The paper warns that a diverging replica *"would result in a fork in the
    blockchain and thus split the network"* (Section IV-B).  This actor
    manufactures exactly that situation on purpose: it crafts ``variants``
    mutually conflicting blocks that all extend the same honest head, then
    announces a different variant to each victim.  Victims whose replica
    still sits on that head accept the forged block and fork; victims that
    already advanced reject it (the rejection lands in their bounded
    ``rejected_blocks`` window).  Honest recovery — divergence detection via
    the summary-hash check, wholesale repair via snapshot bootstrap — is the
    scenario's job; see
    :meth:`repro.network.simulator.NetworkSimulator.repair_divergent_replicas`.
    """

    kind = "equivocating-producer"

    def equivocate_process(
        self,
        victims: list[str],
        *,
        head: Block,
        variants: int = 2,
    ) -> Process:
        """Craft ``variants`` conflicting blocks on ``head``, one per victim.

        Victims are served round-robin: victim *i* receives variant
        ``i % variants``.  Returns the forged blocks (tests assert their
        mutual conflict).  Counters: ``blocks_forged``, ``victims_accepted``
        (replicas that adopted a forged block), ``victims_rejected``.
        """
        if variants < 2:
            raise ValueError("equivocation needs at least two conflicting variants")
        round_number = self.stats.get("rounds", 0)
        self._bump("rounds")
        blocks: list[Block] = []
        for variant in range(variants):
            entry = Entry(
                data={
                    "D": f"equivocation round {round_number} variant {variant}",
                    "K": self.actor_id,
                    "S": "forged",
                },
                author=self.actor_id,
                signature="forged",
            )
            blocks.append(
                Block(
                    block_number=head.block_number + 1,
                    timestamp=head.timestamp + 1,
                    previous_hash=head.block_hash,
                    entries=[entry],
                )
            )
        self._bump("blocks_forged", len(blocks))
        for index, victim in enumerate(victims):
            block = blocks[index % len(blocks)]
            announce = Message(
                kind=MessageKind.BLOCK_ANNOUNCE,
                sender=self.actor_id,
                payload={"block": block.to_dict()},
            )
            response = yield from self.transport.exchange(victim, announce)
            if response is not None and not response.is_error:
                self._bump("victims_accepted")
            else:
                self._bump("victims_rejected")
        return blocks

    equivocate = blocking(equivocate_process)


class DeletionForger(AdversaryActor):
    """Forged, impersonated and replayed deletion requests.

    Three escalating attacks on the authorization rule of Section IV-D1:

    * :meth:`forge` signs a deletion request under the forger's *own*
      identity for somebody else's entry — the paper's signature comparison
      must reject it,
    * :meth:`impersonate` signs *claiming the victim's identity*.  The
      simplified signature scheme of the console figures is not
      cryptographically binding, so this passes the signature comparison —
      the semantic-cohesion layer (Section IV-D2: Bell-LaPadula) is the
      defence in depth that must catch it,
    * :meth:`replay` re-transmits the ``SUBMIT_DELETION`` messages the
      forger captured since it was placed — it taps the wire when it is
      constructed, so it hears only later traffic.  A replay of an already
      *executed* deletion dies on the missing-target check (the target
      physically left the chain).

    Every response is classified into a typed counter
    (``rejected_unauthorized`` / ``rejected_cohesion`` /
    ``rejected_missing_target`` / ``rejected_other`` / ``approved``), so a
    scenario can assert not merely *that* the attack failed but *which*
    layer stopped it.
    """

    kind = "deletion-forger"

    def __init__(self, actor_id: str, transport: "InMemoryTransport") -> None:
        super().__init__(actor_id, transport)
        self.scheme = new_scheme("simplified")
        self._captured = transport.tap(
            lambda message: message.kind is MessageKind.SUBMIT_DELETION
        )

    # ------------------------------------------------------------------ #
    # The three attacks
    # ------------------------------------------------------------------ #

    def forge_process(
        self, anchor_id: str, target: EntryReference, *, reason: str = "forged"
    ) -> Process:
        """Request deletion of ``target`` signed as the forger itself."""
        return (yield from self._submit(anchor_id, target, signer=self.actor_id, reason=reason))

    def impersonate_process(
        self,
        anchor_id: str,
        target: EntryReference,
        *,
        victim: str,
        reason: str = "forged",
    ) -> Process:
        """Request deletion of ``target`` signed *claiming* ``victim``."""
        self._bump("impersonations")
        return (yield from self._submit(anchor_id, target, signer=victim, reason=reason))

    forge = blocking(forge_process)
    impersonate = blocking(impersonate_process)

    def replay_process(self, anchor_id: str, *, limit: Optional[int] = None) -> Process:
        """Re-transmit captured ``SUBMIT_DELETION`` messages verbatim.

        Re-sends up to ``limit`` of the deletion submissions captured since
        the forger was placed (the wire, as heard by an eavesdropper) to
        ``anchor_id`` and classifies each response.  Returns the number of
        replays sent.
        """
        captured = self._captured[:limit]
        for original in captured:
            replayed = Message(
                kind=MessageKind.SUBMIT_DELETION,
                sender=original.sender,
                payload=dict(original.payload),
            )
            self._bump("replays_sent")
            self._classify((yield from self.transport.exchange(anchor_id, replayed)))
        return len(captured)

    replay = blocking(replay_process)

    # ------------------------------------------------------------------ #
    # Plumbing
    # ------------------------------------------------------------------ #

    def _submit(
        self, anchor_id: str, target: EntryReference, *, signer: str, reason: str
    ) -> Process:
        request = build_deletion_request(
            target, author=signer, signature="", reason=reason
        )
        request = sign_entry(self.scheme, request, signer)
        message = Message(
            kind=MessageKind.SUBMIT_DELETION,
            sender=self.actor_id,
            payload={"entry": request.to_dict()},
        )
        self._bump("forgeries_sent")
        response = yield from self.transport.exchange(anchor_id, message)
        self._classify(response)
        return response

    def _classify(self, response: Optional[Message]) -> str:
        """Map a submission response onto a typed outcome counter."""
        if response is None:
            outcome = "no_response"
        elif response.is_error:
            outcome = "transport_error"
        else:
            status = str(response.payload.get("deletion_status", ""))
            reason = str(response.payload.get("deletion_reason", ""))
            if status in ("approved", "executed"):
                outcome = "approved"
            elif "does not exist in the living chain" in reason:
                outcome = "rejected_missing_target"
            elif reason.startswith("semantic cohesion violated"):
                outcome = "rejected_cohesion"
            elif "is not allowed to delete" in reason:
                outcome = "rejected_unauthorized"
            else:
                outcome = "rejected_other"
        self._bump(outcome)
        return outcome


class DigestSpoofer(AdversaryActor):
    """An anti-entropy peer advertising fabricated ``SYNC_DIGEST`` heads.

    Honest replicas that believe the spoofed head pull from the spoofer:
    the catch-up request is answered with a fake ``snapshot_required``
    marker and the follow-up snapshot request with an error, so every baited
    pull fails — the defence under test is *containment*: a failed pull must
    leave the victim's replica untouched and the deployment convergent.

    The spoofer registers a handler on the transport (victims address their
    pulls at it) and books its spoof rounds on the kernel like the honest
    :class:`~repro.sync.antientropy.AntiEntropyService` books digest rounds.
    """

    kind = "digest-spoofer"

    def __init__(self, actor_id: str, transport: "InMemoryTransport") -> None:
        super().__init__(actor_id, transport)
        self._handle: Optional["EventHandle"] = None
        transport.register(actor_id, self._handle_message)

    def _handle_message(self, message: Message) -> Optional[Message]:
        if message.kind is MessageKind.SYNC_REQUEST:
            # The bait worked: a victim believed the fake head and pulls.
            # Claim a marker shift so the victim escalates to a snapshot
            # bootstrap — which the handler below then refuses to serve.
            self._bump("pulls_baited")
            return message.reply(
                MessageKind.SYNC_RESPONSE,
                self.actor_id,
                {
                    "blocks": [],
                    "genesis_marker": 10**9,
                    "snapshot_required": True,
                },
            )
        if message.kind is MessageKind.SNAPSHOT_REQUEST:
            self._bump("snapshots_refused")
            return message.error(self.actor_id, "spoofed peer has no snapshot to serve")
        self._bump("other_messages_dropped")
        return message.error(self.actor_id, "spoofed peer ignores honest traffic")

    def start(
        self,
        *,
        targets: Iterable[str],
        interval_ms: float,
        head_fn: Callable[[], int],
        lead: int = 5,
        until: Optional[float] = None,
    ) -> "EventHandle":
        """Book recurring spoof rounds on the transport's kernel.

        Each round posts a digest claiming ``head_fn() + lead`` — always
        ahead of the honest head, so victims keep believing they are behind.
        """
        if self._handle is not None and not self._handle.cancelled:
            raise ValueError("spoof rounds are already running")
        target_ids = [target for target in targets if target != self.actor_id]

        def _round() -> None:
            self.spoof_round(target_ids, fake_head=head_fn() + lead)

        self._handle = self.transport.kernel.every(
            interval_ms, _round, label=f"digest-spoof:{self.actor_id}", until=until
        )
        return self._handle

    def stop(self) -> None:
        """Cancel the recurring spoof rounds."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    def spoof_round(self, targets: list[str], *, fake_head: int) -> int:
        """Post one fabricated digest to every target; returns posts made."""
        self._bump("rounds")
        digest = Message(
            kind=MessageKind.SYNC_DIGEST,
            sender=self.actor_id,
            payload={
                "head": fake_head,
                "head_hash": "f" * 64,
                "genesis_marker": 0,
                "round": self.stats["rounds"],
            },
        )
        posted = self.transport.publish(self.actor_id, targets, digest)
        self._bump("spoofs_posted", posted)
        return posted


class ClockSkewedReplica(AdversaryActor):
    """Re-clocks one replica's chain by a fixed virtual-time offset.

    Summary-block expiry evaluates at the timestamp of the *preceding
    block* (on-chain time, Section IV-B determinism), so a skewed clock on
    a mere replica cannot fork the quorum — every node ages entries by the
    same on-chain timestamps.  The skew becomes observable the moment the
    skewed node is elected producer (Section V-B4 failover): blocks it seals
    stamp future timestamps, and temporary entries (Section IV-D4) expire
    *prematurely in honest-clock terms*.  The scenario around this actor
    measures exactly that window.
    """

    kind = "clock-skewed-replica"

    def __init__(
        self,
        actor_id: str,
        transport: "InMemoryTransport",
        *,
        skew_ticks: int,
    ) -> None:
        super().__init__(actor_id, transport)
        if skew_ticks < 0:
            raise ValueError("skew_ticks must be non-negative (clocks only run forward)")
        self.skew_ticks = skew_ticks
        self.stats["skew_ticks"] = skew_ticks

    def apply(self, node: "AnchorNode") -> None:
        """Swap the node's chain clock for one running ``skew_ticks`` ahead."""
        node.chain.clock = SimulationClock(self.transport.kernel, start=self.skew_ticks)
        self._bump("replicas_skewed")


__all__ = [
    "ClockSkewedReplica",
    "DeletionForger",
    "DigestSpoofer",
    "EquivocatingProducer",
]
