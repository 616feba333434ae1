"""Baseline: chameleon-hash redactable blockchain.

Section III cites redactable blockchains built from chameleon hashes
(Ateniese et al.; Camenisch et al.) and criticises that they *"leave the
responsibility with the key owners and produce a lot [of] effort"*.  This
baseline implements the construction: block contents are bound to the chain
through a chameleon hash, and whoever holds the trapdoor can replace a
block's content with a redacted version without changing any hash.

The comparison captures the paper's two criticisms quantitatively: the
trapdoor holder is a single point of trust (``requires_trapdoor_holder``),
and redaction leaves a block in place (the chain never shrinks).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.baselines.base import BaselineSystem, EffortCounter, ErasureOutcome, RecordRef, payload_size
from repro.crypto.chameleon import ChameleonHash
from repro.crypto.hashing import GENESIS_PREVIOUS_HASH, hash_hex


@dataclass
class RedactableBlock:
    """A block whose content hash is a chameleon hash."""

    index: int
    previous_hash: str
    data: dict[str, Any]
    author: str
    randomness: int
    content_digest: int
    redacted: bool = False

    def header_hash(self) -> str:
        """Outer header hash binding the chameleon digest into the chain."""
        return hash_hex(
            {
                "index": self.index,
                "previous_hash": self.previous_hash,
                "content_digest": str(self.content_digest),
            }
        )

    def byte_size(self) -> int:
        """Approximate serialised size (content plus chameleon randomness)."""
        return payload_size(self.data) + 2 * 64 + 128


class RedactableChain(BaselineSystem):
    """Chameleon-hash chain with trapdoor-based redaction."""

    name = "chameleon-redaction"
    #: Work units charged per redaction: finding the collision plus the
    #: multi-party coordination overhead the paper points at.
    REDACTION_EFFORT = 25.0

    def __init__(self) -> None:
        self._hasher = ChameleonHash.from_seed("redaction-committee")
        self._blocks: list[RedactableBlock] = []
        self._effort = EffortCounter()

    def append_record(self, data: Mapping[str, Any], author: str) -> RecordRef:
        """Append a record bound by a chameleon hash."""
        previous_hash = self._blocks[-1].header_hash() if self._blocks else GENESIS_PREVIOUS_HASH
        randomness = (len(self._blocks) * 7919 + 13) % self._hasher.parameters.q or 1
        content = {"data": dict(data), "author": author}
        digest = self._hasher.digest(content, randomness)
        block = RedactableBlock(
            index=len(self._blocks),
            previous_hash=previous_hash,
            data=dict(data),
            author=author,
            randomness=randomness,
            content_digest=digest,
        )
        self._blocks.append(block)
        return RecordRef(index=block.index)

    def request_erasure(self, reference: RecordRef, author: str) -> ErasureOutcome:
        """Redact the block content using the trapdoor collision."""
        if not (0 <= reference.index < len(self._blocks)):
            return ErasureOutcome(
                accepted=False, globally_effective=False, effort_units=0.0, detail="unknown record"
            )
        block = self._blocks[reference.index]
        old_content = {"data": block.data, "author": block.author}
        new_content = {"data": {"redacted": True}, "author": block.author}
        collision = self._hasher.find_collision(old_content, block.randomness, new_content)
        block.data = {"redacted": True}
        block.randomness = collision.new_randomness
        block.redacted = True
        effort = self._effort.charge(self.REDACTION_EFFORT)
        return ErasureOutcome(
            accepted=True,
            globally_effective=True,
            effort_units=effort,
            detail="trapdoor holder computed a chameleon collision and redacted the block",
        )

    def verify(self) -> bool:
        """Check chameleon digests and the outer hash chain."""
        previous = GENESIS_PREVIOUS_HASH
        for block in self._blocks:
            if block.previous_hash != previous:
                return False
            content = {"data": block.data, "author": block.author}
            if not self._hasher.verify(content, block.randomness, block.content_digest):
                return False
            previous = block.header_hash()
        return True

    def storage_bytes(self) -> int:
        """Redaction never shrinks the chain; every block stays."""
        return sum(block.byte_size() for block in self._blocks)

    def record_count(self) -> int:
        """Number of blocks still carrying their original payload."""
        return sum(1 for block in self._blocks if not block.redacted)

    def record_retrievable(self, reference: RecordRef) -> bool:
        """Redacted blocks no longer expose the original record."""
        if not (0 <= reference.index < len(self._blocks)):
            return False
        return not self._blocks[reference.index].redacted

    @property
    def total_effort(self) -> float:
        """Accumulated redaction effort."""
        return self._effort.total

    @property
    def block_count(self) -> int:
        """Total blocks including redacted ones (the chain never shortens)."""
        return len(self._blocks)

    def capabilities(self) -> dict[str, Any]:
        """Redaction is selective and global but needs a trusted trapdoor holder."""
        return {
            "name": self.name,
            "selective_deletion": True,
            "global_effect": True,
            "keeps_chain_verifiable": True,
            "requires_trapdoor_holder": True,
        }
