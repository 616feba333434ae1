"""Sequences — the unit of forgetting.

Section IV-C: *"A sequence ω is a series of blocks including the summary
block at the end of each sequence."*  Summarisation, genesis shifting and
physical deletion all operate on whole sequences, never on single blocks.

Sequence boundaries are defined by absolute block numbers: with sequence
length *l*, the summary slots are the block numbers ``n`` with
``n % l == l - 1``.  Because the genesis marker only ever moves to the block
*after* a summary block, living chains always start at a sequence boundary
and the partition stays aligned no matter how often the chain has been
shortened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

from repro.core.block import Block
from repro.core.entry import Entry
from repro.core.errors import ConfigurationError
from repro.crypto.merkle import merkle_root


def is_summary_slot(block_number: int, sequence_length: int) -> bool:
    """True when ``block_number`` is a summary-block position."""
    if sequence_length < 2:
        raise ConfigurationError("sequence_length must be at least 2")
    return block_number % sequence_length == sequence_length - 1


def sequence_index_of(block_number: int, sequence_length: int) -> int:
    """Index of the sequence that contains ``block_number``."""
    if sequence_length < 2:
        raise ConfigurationError("sequence_length must be at least 2")
    return block_number // sequence_length


@dataclass
class SequenceView:
    """A contiguous slice of the living chain forming one sequence ω."""

    index: int
    blocks: list[Block]

    @property
    def first_block_number(self) -> int:
        """Block number of the first block in the sequence."""
        return self.blocks[0].block_number

    @property
    def last_block_number(self) -> int:
        """Block number of the last block in the sequence."""
        return self.blocks[-1].block_number

    @property
    def length(self) -> int:
        """Number of blocks in the sequence (the paper's l_n)."""
        return len(self.blocks)

    @property
    def is_complete(self) -> bool:
        """True when the sequence is terminated by its summary block."""
        return bool(self.blocks) and self.blocks[-1].is_summary

    @property
    def first_timestamp(self) -> int:
        """Timestamp of the first block."""
        return self.blocks[0].timestamp

    @property
    def last_timestamp(self) -> int:
        """Timestamp of the last block."""
        return self.blocks[-1].timestamp

    def time_span(self) -> int:
        """Covered time span of the sequence."""
        return self.last_timestamp - self.first_timestamp

    def entries(self) -> Iterator[tuple[Block, Entry]]:
        """Iterate over all (block, entry) pairs in the sequence."""
        for block in self.blocks:
            for entry in block.entries:
                yield block, entry

    def data_entries(self) -> list[tuple[Block, Entry]]:
        """All non-deletion-request entries with their containing block."""
        return [(block, entry) for block, entry in self.entries() if not entry.is_deletion_request]

    def entry_count(self) -> int:
        """Total number of entries in the sequence."""
        return sum(block.entry_count for block in self.blocks)

    def byte_size(self) -> int:
        """Approximate serialised size of the sequence."""
        return sum(block.byte_size() for block in self.blocks)

    def merkle_root(self) -> str:
        """Merkle root over the sequence's block contents (Fig. 9 redundancy).

        The blocks are hashed through their cached canonical serialisation,
        which is byte-identical to hashing ``block.to_dict()`` directly.
        """
        return merkle_root(list(self.blocks))

    def __repr__(self) -> str:
        return (
            f"SequenceView(index={self.index}, "
            f"blocks={self.first_block_number}..{self.last_block_number}, "
            f"complete={self.is_complete})"
        )


def partition_into_sequences(blocks: Iterable[Block], sequence_length: int) -> list[SequenceView]:
    """Group living blocks into sequences by their absolute block numbers.

    The final sequence may be incomplete (no terminating summary block yet);
    callers that only care about completed sequences filter on
    :attr:`SequenceView.is_complete`.
    """
    views: list[SequenceView] = []
    current_index: Optional[int] = None
    current_blocks: list[Block] = []
    for block in blocks:
        index = sequence_index_of(block.block_number, sequence_length)
        if current_index is None or index != current_index:
            if current_blocks:
                views.append(SequenceView(index=current_index, blocks=current_blocks))
            current_index = index
            current_blocks = []
        current_blocks.append(block)
    if current_blocks and current_index is not None:
        views.append(SequenceView(index=current_index, blocks=current_blocks))
    return views


def middle_sequence(sequences: list[SequenceView]) -> Optional[SequenceView]:
    """Pick the middle sequence ω_{l_β/2} used for attack-hampering redundancy.

    Section V-B1 stores *"the reference to a middle sequence, for example
    ω_{l_β/2}"* in every new summary block.  With fewer than two completed
    sequences there is nothing meaningful to reference.
    """
    if len(sequences) < 2:
        return None
    return sequences[len(sequences) // 2]
