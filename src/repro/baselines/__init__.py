"""Comparison baselines from the related-work discussion (Section III)."""

from repro.baselines.base import BaselineSystem, EffortCounter, ErasureOutcome, RecordRef
from repro.baselines.chameleon_chain import RedactableChain
from repro.baselines.full_chain import ImmutableChain, SimpleBlock
from repro.baselines.hard_fork import HardForkChain
from repro.baselines.offchain import OffChainStore
from repro.baselines.pruning import LocalPruningNode

__all__ = [
    "BaselineSystem",
    "EffortCounter",
    "ErasureOutcome",
    "RecordRef",
    "RedactableChain",
    "ImmutableChain",
    "SimpleBlock",
    "HardForkChain",
    "OffChainStore",
    "LocalPruningNode",
]
