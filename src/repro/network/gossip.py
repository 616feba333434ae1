"""Push gossip for block dissemination.

Large anchor-node sets do not broadcast every block to every peer directly;
they gossip.  :class:`GossipTopology` is the peer graph (ring, random-regular,
clique); :class:`GossipOverlay` is the overlay anchor nodes use when block
announcements are disseminated over the kernel-backed transport: each hop
picks a deterministic per-``(node, item)`` fan-out subset of its neighbours
and forwards via one-way posts, so dissemination consumes virtual time and
interleaves with faults and other traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable


@dataclass
class GossipTopology:
    """An undirected peer graph."""

    adjacency: dict[str, set[str]] = field(default_factory=dict)

    def add_node(self, node_id: str) -> None:
        """Ensure a node exists in the topology."""
        self.adjacency.setdefault(node_id, set())

    def add_edge(self, first: str, second: str) -> None:
        """Connect two nodes."""
        if first == second:
            return
        self.add_node(first)
        self.add_node(second)
        self.adjacency[first].add(second)
        self.adjacency[second].add(first)

    def remove_node(self, node_id: str) -> None:
        """Remove a node and all its links (models a crashed/isolated node)."""
        for peer in self.adjacency.pop(node_id, set()):
            self.adjacency[peer].discard(node_id)

    def neighbours(self, node_id: str) -> set[str]:
        """Peers directly connected to ``node_id``."""
        return set(self.adjacency.get(node_id, set()))

    @property
    def nodes(self) -> list[str]:
        """All node ids."""
        return sorted(self.adjacency)

    @classmethod
    def fully_connected(cls, node_ids: Iterable[str]) -> "GossipTopology":
        """Clique topology: every anchor node knows every other."""
        topology = cls()
        ids = list(node_ids)
        for i, first in enumerate(ids):
            topology.add_node(first)
            for second in ids[i + 1 :]:
                topology.add_edge(first, second)
        return topology

    @classmethod
    def ring(cls, node_ids: Iterable[str]) -> "GossipTopology":
        """Ring topology — the worst reasonable case for dissemination."""
        topology = cls()
        ids = list(node_ids)
        for index, node_id in enumerate(ids):
            topology.add_edge(node_id, ids[(index + 1) % len(ids)])
        return topology

    @classmethod
    def random_regular(cls, node_ids: Iterable[str], degree: int, *, seed: int = 13) -> "GossipTopology":
        """Random topology where every node gets roughly ``degree`` links."""
        topology = cls()
        ids = list(node_ids)
        rng = random.Random(seed)
        for node_id in ids:
            topology.add_node(node_id)
            others = [candidate for candidate in ids if candidate != node_id]
            rng.shuffle(others)
            for peer in others[:degree]:
                topology.add_edge(node_id, peer)
        return topology


class GossipOverlay:
    """Fan-out target selection for transport-level gossip dissemination.

    The overlay is shared by every anchor node of a deployment.  Target
    selection is a pure function of ``(seed, node, item)`` — no shared RNG
    state — so two runs of the same scenario pick identical forwarding sets
    regardless of delivery interleaving, which is what keeps kernel-backed
    simulations byte-for-byte reproducible.
    """

    def __init__(self, topology: GossipTopology, *, fanout: int = 2, seed: int = 29) -> None:
        if fanout < 1:
            raise ValueError("fanout must be at least 1")
        self.topology = topology
        self.fanout = fanout
        self.seed = seed

    def targets(self, node_id: str, item_key: str) -> list[str]:
        """Peers ``node_id`` forwards ``item_key`` to (≤ fan-out neighbours)."""
        neighbours = sorted(self.topology.neighbours(node_id))
        if len(neighbours) <= self.fanout:
            return neighbours
        # String seeds hash stably (sha512) across processes, unlike tuples.
        rng = random.Random(f"{self.seed}:{node_id}:{item_key}")
        return sorted(rng.sample(neighbours, self.fanout))
