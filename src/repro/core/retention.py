"""Retention decisions: when the chain is too long and what may expire.

This module implements the decision logic of Sections IV-C and IV-D3:

* :func:`chain_exceeds_limit` — evaluates Eq. 1's condition ``l_β > l_max``
  for the configured unit (blocks, sequences, or covered time span),
* :func:`select_sequences_to_expire` — chooses which completed old sequences
  are merged into the next summary block, honouring the shrink strategy and
  the minimum-length / minimum-summary-blocks / minimum-time-span guarantees,
* :func:`entry_survives` — decides whether an individual entry is carried
  forward (not marked for deletion, not a deletion request, not an expired
  temporary entry),
* :func:`needs_empty_block` — the idle-chain progress rule that appends empty
  blocks so delayed deletions do not starve.
"""

from __future__ import annotations

from typing import Sequence as TypingSequence

from repro.core.config import ChainConfig, LengthUnit, RetentionPolicy, ShrinkStrategy
from repro.core.deletion import DeletionRegistry
from repro.core.entry import Entry
from repro.core.sequence import SequenceView


def _chain_measure(
    policy: RetentionPolicy,
    *,
    block_count: int,
    sequence_count: int,
    time_span: int,
) -> int:
    """Current chain length in the unit of the retention policy."""
    if policy.unit is LengthUnit.BLOCKS:
        return block_count
    if policy.unit is LengthUnit.SEQUENCES:
        return sequence_count
    return time_span


def chain_exceeds_limit(
    policy: RetentionPolicy,
    *,
    block_count: int,
    sequence_count: int,
    time_span: int,
) -> bool:
    """Evaluate ``l_β > l_max`` in the policy's unit (Eq. 1)."""
    if policy.max_length is None:
        return False
    measure = _chain_measure(
        policy, block_count=block_count, sequence_count=sequence_count, time_span=time_span
    )
    return measure > policy.max_length


def _violates_minimums(
    policy: RetentionPolicy,
    remaining: TypingSequence[SequenceView],
) -> bool:
    """Would the remaining sequences violate the configured minimums?"""
    remaining_blocks = sum(view.length for view in remaining)
    remaining_summaries = sum(1 for view in remaining if view.is_complete)
    if remaining_blocks < policy.min_length:
        return True
    if remaining_summaries < policy.min_summary_blocks:
        return True
    if policy.min_time_span > 0 and remaining:
        span = remaining[-1].last_timestamp - remaining[0].first_timestamp
        if span < policy.min_time_span:
            return True
    if policy.min_time_span > 0 and not remaining:
        return True
    return False


def select_sequences_to_expire(
    config: ChainConfig,
    sequences: TypingSequence[SequenceView],
) -> list[SequenceView]:
    """Choose the completed old sequences to merge into the next summary block.

    ``sequences`` is the partition of the *living* chain, oldest first; the
    last element is the sequence currently being closed (it never expires).
    Length checks count the summary block that is about to be appended, so
    they reflect the post-append chain.
    """
    if len(sequences) < 2:
        return []

    policy = config.retention
    if policy.max_length is None:
        # No retention limit: Eq. 1 can never trigger.  Returning early keeps
        # summary creation O(1) on unbounded chains instead of measuring the
        # whole partition just to conclude nothing expires.
        return []
    candidates = [view for view in sequences[:-1] if view.is_complete]
    if not candidates:
        return []

    def measure_after(expired: list[SequenceView]) -> tuple[int, int, int]:
        remaining = [view for view in sequences if not any(view is gone for gone in expired)]
        block_count = sum(view.length for view in remaining) + 1
        sequence_count = len(remaining)
        if remaining:
            time_span = remaining[-1].last_timestamp - remaining[0].first_timestamp
        else:
            time_span = 0
        return block_count, sequence_count, time_span

    block_count, sequence_count, time_span = measure_after([])
    if not chain_exceeds_limit(
        policy, block_count=block_count, sequence_count=sequence_count, time_span=time_span
    ):
        return []

    expired: list[SequenceView] = []
    if config.shrink_strategy is ShrinkStrategy.SINGLE_SEQUENCE:
        planned = candidates[:1]
    elif config.shrink_strategy is ShrinkStrategy.ALL_OLD:
        planned = list(candidates)
    else:  # ShrinkStrategy.TO_LIMIT — apply Eq. 1 repeatedly
        planned = []
        for candidate in candidates:
            block_count, sequence_count, time_span = measure_after(planned)
            if not chain_exceeds_limit(
                policy,
                block_count=block_count,
                sequence_count=sequence_count,
                time_span=time_span,
            ):
                break
            planned.append(candidate)

    for candidate in planned:
        tentative = expired + [candidate]
        remaining = [view for view in sequences if not any(view is gone for gone in tentative)]
        if _violates_minimums(policy, remaining):
            break
        expired = tentative
    return expired


def entry_survives(
    entry: Entry,
    *,
    containing_block_number: int,
    registry: DeletionRegistry,
    current_time: int,
    current_block: int,
) -> tuple[bool, str]:
    """Decide whether an entry is copied into the next summary block.

    Returns ``(survives, reason)`` where the reason explains a drop:

    * deletion-request entries are never copied (Section IV-D3 / Fig. 8),
    * entries marked for deletion are skipped (Section IV-D / Fig. 7),
    * expired temporary entries are skipped (Section IV-D4).
    """
    if entry.is_deletion_request:
        return False, "deletion requests are never copied into summary blocks"
    if registry.is_marked_entry(entry, containing_block_number):
        return False, "entry is marked for deletion"
    if entry.is_expired(current_time=current_time, current_block=current_block):
        return False, "temporary entry has expired"
    return True, "retained"


def needs_empty_block(
    config: ChainConfig,
    *,
    last_block_timestamp: int,
    current_time: int,
) -> bool:
    """True when an empty block should be appended to keep deletions moving.

    Section IV-D3: *"To prevent a long delay in deletion, a possibility is to
    extend the blockchain with empty blocks ... after a time interval if no
    transaction has occurred."*
    """
    if config.empty_block_interval is None:
        return False
    return current_time - last_block_timestamp >= config.empty_block_interval
