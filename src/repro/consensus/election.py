"""Election of anchor nodes.

Section IV-A: *"For the election of the group of these trusted nodes,
several community based approaches can be applied.  This depends on the type
of the blockchain: public, private, consortium, hybrid.  For example, the
trusted community could consist of a non-profit organisation or participated
users, who have previously done transaction in the blockchain."*

This module implements three such election strategies so deployments (and
the network simulator) can pick the one matching their chain type:

* :class:`StaticElection` — a fixed, operator-provided list (private /
  consortium chains),
* :class:`ActivityElection` — the most active past participants become
  anchors (public chains, the paper's "participated users" example),
* :class:`BordaElection` — committee election by ranked ballots, following
  the committee-voting literature the paper cites (Black, *The Theory of
  Committees and Elections*).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from repro.core.chain import Blockchain
from repro.core.errors import ConsensusError


@dataclass(frozen=True)
class ElectionResult:
    """Outcome of an anchor-node election."""

    anchors: tuple[str, ...]
    scores: Mapping[str, float]
    strategy: str

    def is_anchor(self, candidate: str) -> bool:
        """True when ``candidate`` was elected."""
        return candidate in self.anchors


class ElectionStrategy(ABC):
    """Interface for anchor-node election strategies."""

    name: str = "abstract"

    @abstractmethod
    def elect(self, seats: int) -> ElectionResult:
        """Elect ``seats`` anchor nodes."""


@dataclass
class StaticElection(ElectionStrategy):
    """Operator-defined anchor set for private and consortium chains."""

    candidates: Sequence[str]
    name: str = "static"

    def elect(self, seats: int) -> ElectionResult:
        """Return the first ``seats`` configured candidates."""
        if seats <= 0:
            raise ConsensusError("the number of seats must be positive")
        chosen = tuple(self.candidates[:seats])
        if len(chosen) < seats:
            raise ConsensusError("not enough configured candidates for the requested seats")
        return ElectionResult(
            anchors=chosen,
            scores={candidate: 1.0 for candidate in chosen},
            strategy=self.name,
        )


@dataclass
class ActivityElection(ElectionStrategy):
    """Elect the participants with the most past transactions in the chain."""

    chain: Blockchain
    minimum_entries: int = 1
    name: str = "activity"

    def activity_scores(self) -> dict[str, float]:
        """Count entries per author over the living chain (copies included)."""
        counts: Counter[str] = Counter()
        for _, entry in self.chain.iter_entries():
            if not entry.is_deletion_request:
                counts[entry.author] += 1
        return {author: float(count) for author, count in counts.items()}

    def elect(self, seats: int) -> ElectionResult:
        """Pick the ``seats`` most active authors (ties broken by name)."""
        if seats <= 0:
            raise ConsensusError("the number of seats must be positive")
        scores = {
            author: score
            for author, score in self.activity_scores().items()
            if score >= self.minimum_entries
        }
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        chosen = tuple(author for author, _ in ranked[:seats])
        if len(chosen) < seats:
            raise ConsensusError(
                f"only {len(chosen)} participants meet the activity threshold; {seats} seats requested"
            )
        return ElectionResult(anchors=chosen, scores=scores, strategy=self.name)


@dataclass
class BordaElection(ElectionStrategy):
    """Committee election by Borda count over ranked ballots."""

    ballots: list[Sequence[str]] = field(default_factory=list)
    name: str = "borda"

    def add_ballot(self, ranking: Sequence[str]) -> None:
        """Register one voter's ranking (most preferred first)."""
        if len(set(ranking)) != len(ranking):
            raise ConsensusError("a ballot must not rank the same candidate twice")
        self.ballots.append(tuple(ranking))

    def scores_from_ballots(self) -> dict[str, float]:
        """Borda scores: the top of an n-candidate ballot earns n-1 points."""
        scores: dict[str, float] = {}
        for ballot in self.ballots:
            top = len(ballot) - 1
            for position, candidate in enumerate(ballot):
                scores[candidate] = scores.get(candidate, 0.0) + (top - position)
        return scores

    def elect(self, seats: int) -> ElectionResult:
        """Elect the ``seats`` candidates with the highest Borda scores."""
        if seats <= 0:
            raise ConsensusError("the number of seats must be positive")
        if not self.ballots:
            raise ConsensusError("no ballots have been cast")
        scores = self.scores_from_ballots()
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        chosen = tuple(candidate for candidate, _ in ranked[:seats])
        if len(chosen) < seats:
            raise ConsensusError("fewer distinct candidates than requested seats")
        return ElectionResult(anchors=chosen, scores=scores, strategy=self.name)


@dataclass
class HeadElection(ElectionStrategy):
    """Elect the most up-to-date replicas (highest head block number).

    Used for producer failover: under real message delay replicas progress
    unevenly — gossip hops still in flight, catch-ups pending — so when the
    producer disappears, the quorum promotes the replica that has replayed
    the most blocks (ties broken by node id) and loses nothing.
    """

    chains: Mapping[str, "Blockchain"] = field(default_factory=dict)
    name: str = "head"

    def elect(self, seats: int) -> ElectionResult:
        """Pick the ``seats`` candidates with the highest replica heads."""
        if seats <= 0:
            raise ConsensusError("the number of seats must be positive")
        scores = {
            node_id: float(chain.head.block_number) for node_id, chain in self.chains.items()
        }
        ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
        chosen = tuple(node_id for node_id, _ in ranked[:seats])
        if len(chosen) < seats:
            raise ConsensusError(
                f"only {len(chosen)} candidate replicas available; {seats} seats requested"
            )
        return ElectionResult(anchors=chosen, scores=scores, strategy=self.name)


def elect_anchor_nodes(strategy: ElectionStrategy, seats: int) -> ElectionResult:
    """Elect ``seats`` anchor nodes with ``strategy`` (``strategy.elect(seats)``)."""
    return strategy.elect(seats)


def rotate_quorum(current: Iterable[str], newly_elected: Sequence[str], *, keep: int) -> list[str]:
    """Blend a new election result into an existing quorum.

    Keeps up to ``keep`` of the current members for stability and fills the
    remaining seats from the new election in order; the resulting quorum has
    the same size as the new election result.
    """
    if keep < 0:
        raise ConsensusError("keep must be non-negative")
    seats = len(newly_elected)
    retained = list(current)[:keep][:seats]
    for candidate in newly_elected:
        if len(retained) >= seats:
            break
        if candidate not in retained:
            retained.append(candidate)
    return retained
