"""Ledger client adapting the Section III comparison baselines.

:class:`BaselineLedgerClient` exposes a
:class:`~repro.baselines.base.BaselineSystem` — immutable chain, local
pruning, hard fork, chameleon redaction, off-chain storage — through the
:class:`~repro.service.client.LedgerClient` protocol, so the comparison
harness and the workload driver sweep the paper's system and every
alternative with literally the same code path.

Baselines address records by insertion index, not by block coordinates.  To
keep workload deletion targets (``EntryReference`` pairs) meaningful, the
adapter mirrors the chain's block numbering under the paper's one-record-
per-block evaluation model: submissions receive the block number the
selective-deletion chain would have assigned (summary slots are skipped,
deletion requests consume a block of their own), and that synthetic
reference maps to the baseline's :class:`~repro.baselines.base.RecordRef`.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.baselines.base import BaselineSystem, RecordRef
from repro.core.sequence import is_summary_slot
from repro.service.client import (
    DeletionReceipt,
    LedgerClient,
    LedgerRecord,
    SubmitReceipt,
    TargetLike,
    as_reference,
)


class BaselineLedgerClient(LedgerClient):
    """Drives one baseline system through the ledger protocol."""

    def __init__(self, system: BaselineSystem, *, sequence_length: int = 3) -> None:
        self.system = system
        self.name = system.name
        self.sequence_length = sequence_length
        #: Synthetic chain numbering: the next block a submission would take.
        self._next_block = 1
        self._summary_slots_skipped = 0
        self._by_reference: dict[tuple[int, int], RecordRef] = {}
        self._records: dict[tuple[int, int], tuple[dict[str, Any], str]] = {}

    def _claim_block_number(self) -> int:
        """Next non-summary slot, mirroring the chain's numbering."""
        number = self._next_block
        while is_summary_slot(number, self.sequence_length):
            self._summary_slots_skipped += 1
            number += 1
        self._next_block = number + 1
        return number

    # ------------------------------------------------------------------ #
    # LedgerClient protocol
    # ------------------------------------------------------------------ #

    def submit(
        self,
        data: Mapping[str, Any],
        author: str,
        *,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> SubmitReceipt:
        """Append one record; expiry bounds are ignored (baselines have no
        temporary entries — one of the capabilities the comparison shows)."""
        record_ref = self.system.append_record(dict(data), author)
        block_number = self._claim_block_number()
        key = (block_number, 1)
        self._by_reference[key] = record_ref
        self._records[key] = (dict(data), author)
        return SubmitReceipt(reference=as_reference(key), block_number=block_number)

    def request_deletion(
        self,
        target: TargetLike,
        author: str,
        *,
        reason: str = "",
    ) -> DeletionReceipt:
        """Attempt an erasure through the baseline's own mechanism."""
        resolved = as_reference(target)
        block_number = self._claim_block_number()  # the request occupies a block
        record_ref = self._by_reference.get((resolved.block_number, resolved.entry_number))
        if record_ref is None:
            return DeletionReceipt(
                approved=False,
                reason=f"target {resolved} does not exist in this ledger",
                block_number=block_number,
            )
        outcome = self.system.request_erasure(record_ref, author)
        return DeletionReceipt(
            approved=outcome.accepted,
            reason=outcome.detail,
            block_number=block_number,
            globally_effective=outcome.globally_effective,
            effort_units=outcome.effort_units,
        )

    def find_entry(self, reference: TargetLike) -> Optional[LedgerRecord]:
        """Return the record while the baseline can still produce it."""
        resolved = as_reference(reference)
        key = (resolved.block_number, resolved.entry_number)
        record_ref = self._by_reference.get(key)
        if record_ref is None or not self.system.record_retrievable(record_ref):
            return None
        data, author = self._records[key]
        return LedgerRecord(reference=resolved, data=data, author=author, block_number=None)

    def statistics(self) -> dict[str, Any]:
        """Uniform counters: baselines count records instead of blocks."""
        return {
            "system": self.system.name,
            "living_blocks": self.system.record_count(),
            "living_entries": self.system.record_count(),
            "byte_size": self.system.storage_bytes(),
            "total_blocks_created": self._next_block - 1 - self._summary_slots_skipped,
            "capabilities": self.system.capabilities(),
        }

    def tick(self, ticks: int = 1) -> bool:
        """No-op: baselines have no idle-block progress rule."""
        return False
