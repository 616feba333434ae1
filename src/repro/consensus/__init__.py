"""Consensus layer: pluggable block-acceptance rules and quorum voting.

The selective-deletion concept is consensus-agnostic (Sections IV-A and
V-B3); this package supplies the engines the network simulator and the
benchmarks run against — an accept-all null engine, hash-prefix proof of
work, and anchor-node proof of authority — plus majority voting for the
quorum decisions (genesis-marker shifts, deletion approvals, producer
failover).
"""

from repro.consensus.base import ConsensusDecision, ConsensusEngine, NullConsensus
from repro.consensus.poa import ProofOfAuthority, ValidatorSet
from repro.consensus.pow import ProofOfWork
from repro.consensus.quorum import Proposal, ProposalState, Quorum, VoteOutcome

__all__ = [
    "ConsensusDecision",
    "ConsensusEngine",
    "NullConsensus",
    "ProofOfAuthority",
    "ValidatorSet",
    "ProofOfWork",
    "Proposal",
    "ProposalState",
    "Quorum",
    "VoteOutcome",
]
