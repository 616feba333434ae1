"""Gossip anti-entropy: periodic digest exchange between anchor replicas.

Push gossip alone leaves a residue: on sparse overlays with small fan-out a
block announcement can die out one hop short of some replica, and a node
that was offline misses the hops entirely.  The scenario catalogue used to
paper over this with an explicit catch-up call at the end of each run.  This
module replaces that fallback with the classic *anti-entropy* mechanism:

* every ``interval_ms`` of virtual time (a :meth:`EventKernel.every`
  booking), each online replica posts a tiny ``SYNC_DIGEST`` — head number,
  head hash, genesis marker — to a per-round fan-out subset of its overlay
  neighbours;
* a receiver that learns it is behind *pulls*: incremental catch-up
  (``SYNC_REQUEST``) while the gap is still served, snapshot bootstrap
  (:mod:`repro.sync.bootstrap`) when the sender's marker has shifted past
  the receiver's head.

Digest target selection reuses :meth:`GossipOverlay.targets` keyed by the
round number, so each round spreads over different neighbour subsets while
remaining a pure function of ``(seed, node, round)`` — runs replay
byte-identically.  The service keeps convergence counters (rounds run,
digests posted, first round at which all online replicas shared one head
hash) that :class:`~repro.network.simulator.NetworkSimulator` surfaces in
its reports.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Mapping, Optional

from repro.network.message import Message, MessageKind

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.gossip import GossipOverlay
    from repro.network.kernel import EventHandle
    from repro.network.node import AnchorNode
    from repro.network.transport import InMemoryTransport

#: Default virtual-time gap between digest rounds.
DEFAULT_INTERVAL_MS = 150.0


class AntiEntropyService:
    """Books and accounts the periodic digest rounds of one deployment."""

    def __init__(
        self,
        *,
        transport: "InMemoryTransport",
        overlay: "GossipOverlay",
        nodes: Mapping[str, "AnchorNode"],
        interval_ms: float = DEFAULT_INTERVAL_MS,
    ) -> None:
        if interval_ms <= 0:
            raise ValueError(f"interval_ms must be positive, got {interval_ms}")
        self.transport = transport
        self.overlay = overlay
        self.kernel = transport.kernel
        self.nodes = dict(nodes)
        self.interval_ms = float(interval_ms)
        self.rounds = 0
        self.digests_posted = 0
        #: First round whose *starting* state had every online replica on one
        #: head hash — i.e. the previous rounds had already converged the
        #: deployment.  ``None`` until observed.
        self.converged_at_round: Optional[int] = None
        self._handle: Optional["EventHandle"] = None

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self, *, until: Optional[float] = None) -> "EventHandle":
        """Book the recurring digest round on the kernel."""
        if self._handle is not None and not self._handle.cancelled:
            raise ValueError("anti-entropy rounds are already running")
        self._handle = self.kernel.every(
            self.interval_ms, self._round, label="anti-entropy", until=until
        )
        return self._handle

    def stop(self) -> None:
        """Cancel the recurring rounds."""
        if self._handle is not None:
            self._handle.cancel()
            self._handle = None

    # ------------------------------------------------------------------ #
    # One round
    # ------------------------------------------------------------------ #

    def _online_ids(self) -> list[str]:
        return [
            node_id for node_id in sorted(self.nodes)
            if not self.transport.is_offline(node_id)
        ]

    def _is_converged(self) -> bool:
        heads = {
            self.nodes[node_id].chain.head.block_hash for node_id in self._online_ids()
        }
        return len(heads) <= 1

    def _round(self) -> None:
        """Post one digest per online replica to its per-round targets."""
        self.rounds += 1
        if self.converged_at_round is None and self._is_converged():
            self.converged_at_round = self.rounds
        for node_id in self._online_ids():
            chain = self.nodes[node_id].chain
            digest = Message(
                kind=MessageKind.SYNC_DIGEST,
                sender=node_id,
                payload={
                    "head": chain.head.block_number,
                    "head_hash": chain.head.block_hash,
                    "genesis_marker": chain.genesis_marker,
                    "round": self.rounds,
                },
            )
            targets = self.overlay.targets(node_id, f"anti-entropy:{self.rounds}")
            self.digests_posted += self.transport.publish(node_id, targets, digest)

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def statistics(self) -> dict[str, Any]:
        """Service counters plus the per-node sync counters, aggregated."""
        totals: dict[str, int] = {}
        for node in self.nodes.values():
            for key, value in node.sync_stats.items():
                totals[key] = totals.get(key, 0) + value
        return {
            "interval_ms": self.interval_ms,
            "rounds": self.rounds,
            "digests_posted": self.digests_posted,
            "converged_at_round": self.converged_at_round,
            # Convergence as of *now* — a pull triggered by the final round
            # may have converged the deployment after that round started.
            "converged": self._is_converged(),
            "nodes": totals,
        }
