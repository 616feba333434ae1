"""Configuration objects for the selective-deletion blockchain.

The paper leaves several knobs to the deployment:

* the sequence length *l* (distance between summary blocks, Section IV-B;
  the evaluation uses "a summary block for every third block"),
* the maximum chain length *l_max* that triggers summarisation and genesis
  shifting (Section IV-C, Eq. 1), alternatively a maximum number of
  sequences,
* a minimum remaining length / minimum number of summary blocks / minimum
  time-span coverage so the chain is never shortened too far
  (Section IV-D3),
* the summary-block content mode — full copies versus hash/Merkle references
  to off-chain packages (Section V-B2),
* the redundancy policy that hampers the 51 % attack by re-embedding a middle
  sequence or its Merkle root (Section V-B1, Fig. 9),
* the empty-block interval used to guarantee progress of delayed deletion
  when no transactions arrive (Section IV-D3).

:class:`ChainConfig` bundles all of them with validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Optional

from repro.core.errors import ConfigurationError
from repro.crypto.hashing import canonical_json


class SummaryMode(str, Enum):
    """How a summary block carries forward data from expiring sequences."""

    #: Copy the full data part of every retained entry (paper default).
    FULL_COPY = "full_copy"
    #: Store only Merkle roots / hash pointers to the retained data; the data
    #: itself lives off-chain (the mitigation of Section V-B2).
    MERKLE_REFERENCE = "merkle_reference"


class RedundancyPolicy(str, Enum):
    """What extra confirmation material a summary block embeds (Fig. 9)."""

    #: No redundancy; a deleted sequence loses its confirmations.
    NONE = "none"
    #: Embed the Merkle root of the middle sequence omega_{l_beta/2}.
    MIDDLE_MERKLE_ROOT = "middle_merkle_root"
    #: Embed a full copy of the middle sequence's data.
    MIDDLE_FULL_COPY = "middle_full_copy"


class LengthUnit(str, Enum):
    """Unit in which the retention limit is expressed (Section IV-D3)."""

    BLOCKS = "blocks"
    SEQUENCES = "sequences"
    TIME = "time"


class ShrinkStrategy(str, Enum):
    """How many old sequences are merged once the retention limit is hit.

    Eq. 1 of the paper removes the first sequence; the evaluation (Fig. 7)
    merges *"the first and second sequence ... into the last summary block"*
    and Section IV-D3 notes that *"multiple sequences can also being combined
    in one summary block"*.  The strategy makes this choice explicit;
    ``benchmarks/bench_paper.py`` sweeps it (``ablation_shrink_strategy``).
    """

    #: Apply Eq. 1 exactly once: merge only the oldest sequence.
    SINGLE_SEQUENCE = "single_sequence"
    #: Apply Eq. 1 repeatedly until the chain is back within the limit.
    TO_LIMIT = "to_limit"
    #: Merge every completed old sequence, keeping only the sequence that is
    #: being closed by the new summary block (matches the paper's evaluation).
    ALL_OLD = "all_old"


@dataclass(frozen=True)
class RetentionPolicy:
    """When the chain is considered "too long" and how far it may shrink.

    Attributes
    ----------
    unit:
        Whether ``max_length`` / ``min_length`` count blocks, sequences, or a
        time span (in clock ticks / seconds).
    max_length:
        Upper bound; exceeding it triggers summarisation of the oldest
        sequence(s).  ``None`` disables automatic shrinking.
    min_length:
        Lower bound that must remain after shrinking (Section IV-D3's
        "minimum length ... for the remaining blockchain").
    min_summary_blocks:
        Minimum number of summary blocks that must remain.
    min_time_span:
        Minimum covered time span (in the same unit as block timestamps)
        that must remain.
    """

    unit: LengthUnit = LengthUnit.BLOCKS
    max_length: Optional[int] = None
    min_length: int = 0
    min_summary_blocks: int = 0
    min_time_span: int = 0

    def __post_init__(self) -> None:
        if self.max_length is not None and self.max_length <= 0:
            raise ConfigurationError("max_length must be positive when set")
        if self.min_length < 0 or self.min_summary_blocks < 0 or self.min_time_span < 0:
            raise ConfigurationError("minimum retention bounds must be non-negative")
        if (
            self.max_length is not None
            and self.unit is not LengthUnit.TIME
            and self.min_length > self.max_length
        ):
            raise ConfigurationError("min_length cannot exceed max_length")

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "unit": self.unit.value,
            "max_length": self.max_length,
            "min_length": self.min_length,
            "min_summary_blocks": self.min_summary_blocks,
            "min_time_span": self.min_time_span,
        }

    def __canonical_json__(self) -> str:
        """Canonical form: the serialised :meth:`to_dict` payload."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RetentionPolicy":
        """Rebuild a policy from :meth:`to_dict` output."""
        return cls(
            unit=LengthUnit(payload.get("unit", LengthUnit.BLOCKS.value)),
            max_length=payload.get("max_length"),
            min_length=int(payload.get("min_length", 0)),
            min_summary_blocks=int(payload.get("min_summary_blocks", 0)),
            min_time_span=int(payload.get("min_time_span", 0)),
        )


@dataclass(frozen=True)
class ChainConfig:
    """Complete configuration of a selective-deletion blockchain.

    Attributes
    ----------
    sequence_length:
        Number of blocks per sequence *including* the terminating summary
        block (the paper's *l*; the evaluation uses 3).
    retention:
        When and how far the chain shrinks.
    summary_mode:
        Full copies or Merkle references inside summary blocks.
    redundancy:
        51 %-attack hampering policy of Fig. 9.
    empty_block_interval:
        If no entry arrived for this many clock ticks, an empty block is
        appended so delayed deletions still make progress (Section IV-D3).
        ``None`` disables the behaviour.
    signature_scheme:
        Name of the signature scheme used for entries and deletion requests
        (``"simplified"`` or ``"ecdsa"``).
    allow_foreign_deletion_by_admin:
        Whether holders of the ``ADMIN`` role (the quorum's master signature)
        may delete entries they did not author (Section IV-D1).
    """

    sequence_length: int = 3
    retention: RetentionPolicy = field(default_factory=RetentionPolicy)
    shrink_strategy: ShrinkStrategy = ShrinkStrategy.TO_LIMIT
    summary_mode: SummaryMode = SummaryMode.FULL_COPY
    redundancy: RedundancyPolicy = RedundancyPolicy.NONE
    empty_block_interval: Optional[int] = None
    signature_scheme: str = "simplified"
    allow_foreign_deletion_by_admin: bool = True

    def __post_init__(self) -> None:
        if self.sequence_length < 2:
            raise ConfigurationError(
                "sequence_length must be at least 2 (one data block plus the summary block)"
            )
        if self.empty_block_interval is not None and self.empty_block_interval <= 0:
            raise ConfigurationError("empty_block_interval must be positive when set")
        if (
            self.retention.unit is LengthUnit.BLOCKS
            and self.retention.max_length is not None
            and self.retention.max_length < self.sequence_length
        ):
            raise ConfigurationError(
                "retention.max_length must be at least one full sequence of blocks"
            )

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "sequence_length": self.sequence_length,
            "retention": self.retention.to_dict(),
            "shrink_strategy": self.shrink_strategy.value,
            "summary_mode": self.summary_mode.value,
            "redundancy": self.redundancy.value,
            "empty_block_interval": self.empty_block_interval,
            "signature_scheme": self.signature_scheme,
            "allow_foreign_deletion_by_admin": self.allow_foreign_deletion_by_admin,
        }

    def __canonical_json__(self) -> str:
        """Canonical form: the serialised :meth:`to_dict` payload."""
        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ChainConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        return cls(
            sequence_length=int(payload.get("sequence_length", 3)),
            retention=RetentionPolicy.from_dict(payload.get("retention", {})),
            shrink_strategy=ShrinkStrategy(
                payload.get("shrink_strategy", ShrinkStrategy.TO_LIMIT.value)
            ),
            summary_mode=SummaryMode(payload.get("summary_mode", SummaryMode.FULL_COPY.value)),
            redundancy=RedundancyPolicy(payload.get("redundancy", RedundancyPolicy.NONE.value)),
            empty_block_interval=payload.get("empty_block_interval"),
            signature_scheme=str(payload.get("signature_scheme", "simplified")),
            allow_foreign_deletion_by_admin=bool(payload.get("allow_foreign_deletion_by_admin", True)),
        )

    @classmethod
    def paper_evaluation(cls) -> "ChainConfig":
        """The configuration of the paper's evaluation (Section V).

        A summary block every third block, simplified signatures, and — once
        more than two sequences exist — every completed old sequence merged
        into the newest summary block, which is exactly the behaviour shown
        in Figs. 6-8 (two sequences merged at once, genesis marker shifted to
        block 6).
        """
        return cls(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            summary_mode=SummaryMode.FULL_COPY,
            redundancy=RedundancyPolicy.NONE,
            signature_scheme="simplified",
        )
