"""Common interface of the comparison baselines (Section III related work).

Every baseline models one of the alternatives the paper discusses — keeping
the full immutable chain, pruning locally, hard-forking, chameleon-hash
redaction, and off-chain storage of the payload — behind one small interface
so the comparison benchmark (``bench_baseline_comparison.py``) can sweep them
uniformly:

* ``append_record`` adds one data record,
* ``request_erasure`` attempts to remove a record and reports whether the
  removal is *globally effective* (gone from what every node stores),
* ``storage_bytes`` / ``record_count`` measure what a full node must keep,
* ``erasure_effort`` accumulates the work units spent on erasures,
* ``capabilities`` summarises the qualitative properties.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class RecordRef:
    """Reference to a record inside a baseline system."""

    index: int


@dataclass(frozen=True)
class ErasureOutcome:
    """Result of one erasure attempt against a baseline."""

    accepted: bool
    globally_effective: bool
    effort_units: float
    detail: str = ""


class BaselineSystem(ABC):
    """Interface shared by all baselines."""

    #: Short name used in comparison tables.
    name: str = "abstract"

    @abstractmethod
    def append_record(self, data: Mapping[str, Any], author: str) -> RecordRef:
        """Store one record and return its reference."""

    @abstractmethod
    def request_erasure(self, reference: RecordRef, author: str) -> ErasureOutcome:
        """Attempt to erase a record."""

    @abstractmethod
    def storage_bytes(self) -> int:
        """Bytes a full node must currently store."""

    @abstractmethod
    def record_count(self) -> int:
        """Number of records still retrievable from the system."""

    @abstractmethod
    def record_retrievable(self, reference: RecordRef) -> bool:
        """True when the record's payload can still be read back."""

    def capabilities(self) -> dict[str, Any]:
        """Qualitative properties for the comparison table."""
        return {
            "name": self.name,
            "selective_deletion": False,
            "global_effect": False,
            "keeps_chain_verifiable": True,
            "requires_trapdoor_holder": False,
        }


class EffortCounter:
    """Small helper accumulating erasure work units for a baseline."""

    def __init__(self) -> None:
        self.total = 0.0
        self.operations = 0

    def charge(self, units: float) -> float:
        """Add work units and return them (for convenient inlining)."""
        self.total += units
        self.operations += 1
        return units


def payload_size(data: Mapping[str, Any]) -> int:
    """Approximate serialised size of a record payload."""
    from repro.crypto.hashing import canonical_json

    return len(canonical_json(dict(data)).encode("utf-8"))
