"""Incremental chain indexing: the block-level backbone of the hot paths.

Section IV-D claims deletion-request processing is *"linear and very low as
blocks are referenced directly by number"*.  The naive implementation of the
chain façade contradicts that claim at scale: locating an entry falls back to
a linear scan over every summary block, the aggregate counters re-walk (and
re-serialise) the whole living chain on every call, and the sequence
partition is recomputed from scratch each time it is needed.

:class:`ChainIndex` restores the paper's complexity promise.  The
:class:`~repro.core.chain.Blockchain` façade maintains one instance
incrementally on every append and marker shift, in O(1) per block — it never
looks at an entry — giving

* an **entry lookup** by original ``(block number, entry number)`` in O(1)
  per block plus O(living summaries): the living blocks by number answer
  first, then the living summaries newest first, each through its own lazily
  built entry lookup (Fig. 4 keeps the original coordinates on copies),
* **rolling aggregates**: living entry count, serialised byte size, and
  per-sequence entry/byte counts, updated in O(changed blocks) on append and
  cut so ``entry_count()``, ``byte_size()`` and ``statistics()`` are O(1),
* an **incrementally maintained sequence partition** replacing the per-call
  :func:`~repro.core.sequence.partition_into_sequences`.

The index is a pure cache over the block list: it never influences which
blocks are built (summary determinism per Section IV-B is untouched) and it
can always be rebuilt from the blocks alone (:meth:`ChainIndex.build`), which
is exactly what ``Blockchain.from_dict`` does after loading a snapshot.

The module also keeps the legacy linear-scan implementations
(:func:`legacy_find_entry`, :func:`legacy_aggregates`) as executable
specifications; :meth:`ChainIndex.self_check` validates the incremental state
against them and is exercised by the property-based equivalence tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Optional, Sequence

from repro.core.block import Block
from repro.core.entry import Entry, EntryReference
from repro.core.errors import ChainIntegrityError
from repro.core.sequence import SequenceView, partition_into_sequences, sequence_index_of
from repro.crypto.hashing import canonical_json


@dataclass
class SequenceAggregate:
    """Rolling per-sequence counters (entries and serialised bytes)."""

    entry_count: int = 0
    byte_size: int = 0

    def to_dict(self) -> dict[str, int]:
        """JSON-serialisable representation for reports."""
        return {"entry_count": self.entry_count, "byte_size": self.byte_size}


class ChainIndex:
    """Incrementally maintained lookup structures over the living chain.

    The owning chain façade must call :meth:`on_append` for every block added
    to the living chain (normal, received, or summary) and
    :meth:`cut_before` when the genesis marker shifts.  The aggregate queries
    are O(1) and :meth:`find` O(1) per block plus O(living summaries);
    :meth:`sequence_views` is O(number of living blocks) because it returns
    defensive copies, while :meth:`live_views` shares the view objects with
    read-only internal callers.
    """

    def __init__(self, sequence_length: int) -> None:
        self.sequence_length = sequence_length
        #: The living blocks by number.
        self._blocks: dict[int, Block] = {}
        #: The living summary blocks that carry entries, oldest first.
        self._summaries: list[Block] = []
        self._views: list[SequenceView] = []
        self._per_sequence: dict[int, SequenceAggregate] = {}
        self._entry_count = 0
        self._byte_size = 0
        self._complete_views = 0

    # ------------------------------------------------------------------ #
    # Construction
    # ------------------------------------------------------------------ #

    @classmethod
    def build(cls, blocks: Iterable[Block], sequence_length: int) -> "ChainIndex":
        """Rebuild the full index from a block list (snapshot load path)."""
        index = cls(sequence_length)
        for block in blocks:
            index.on_append(block)
        return index

    # ------------------------------------------------------------------ #
    # Maintenance hooks
    # ------------------------------------------------------------------ #

    def on_append(self, block: Block) -> None:
        """Register a block just appended at the head of the living chain."""
        view_index = sequence_index_of(block.block_number, self.sequence_length)
        if self._views and self._views[-1].index == view_index:
            view = self._views[-1]
            if view.is_complete:
                self._complete_views -= 1
            view.blocks.append(block)
        else:
            view = SequenceView(index=view_index, blocks=[block])
            self._views.append(view)
        if view.is_complete:
            self._complete_views += 1

        aggregate = self._per_sequence.setdefault(view_index, SequenceAggregate())
        size = block.byte_size()
        aggregate.entry_count += block.entry_count
        aggregate.byte_size += size
        self._entry_count += block.entry_count
        self._byte_size += size
        self._blocks[block.block_number] = block
        if block.is_summary and block.entries:
            self._summaries.append(block)

    def cut_before(self, new_marker: int, cut_blocks: Sequence[Block]) -> None:
        """Unregister the blocks removed by a genesis-marker shift.

        ``cut_blocks`` is the (oldest-first) prefix of living blocks with
        ``block_number < new_marker``; the marker only ever moves to the block
        after a summary block, so the prefix always covers whole sequences.
        """
        for block in cut_blocks:
            view_index = sequence_index_of(block.block_number, self.sequence_length)
            aggregate = self._per_sequence.get(view_index)
            size = block.byte_size()
            if aggregate is not None:
                aggregate.entry_count -= block.entry_count
                aggregate.byte_size -= size
            self._entry_count -= block.entry_count
            self._byte_size -= size
            self._blocks.pop(block.block_number, None)
        while self._summaries and self._summaries[0].block_number < new_marker:
            self._summaries.pop(0)

        while self._views and self._views[0].blocks:
            view = self._views[0]
            if view.last_block_number < new_marker:
                if view.is_complete:
                    self._complete_views -= 1
                self._per_sequence.pop(view.index, None)
                self._views.pop(0)
                continue
            # Partial cut inside a sequence cannot happen on the paper's
            # marker rule, but stay correct for hand-built chains.  The
            # view's last block survives (its number is >= new_marker), so
            # the view itself never empties here.
            while view.blocks and view.blocks[0].block_number < new_marker:
                view.blocks.pop(0)
            break

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def find(self, reference: EntryReference) -> Optional[tuple[Block, Entry]]:
        """Located ``(block, entry)`` for a reference, or ``None``.

        O(1) per block plus O(living summaries): the referenced block, if
        living, answers first; then the living summaries, newest first — the
        legacy linear scan's resolution order.
        """
        number, entry_number = reference.block_number, reference.entry_number
        block = self._blocks.get(number)
        if block is not None:
            try:
                return block, block.entry(entry_number)
            except KeyError:
                pass
        for summary in reversed(self._summaries):
            copy = summary.find_copy_of(number, entry_number)
            if copy is not None:
                return summary, copy
        return None

    @property
    def entry_count(self) -> int:
        """Living entries across all blocks (rolling aggregate)."""
        return self._entry_count

    @property
    def byte_size(self) -> int:
        """Approximate serialised size of the living chain (rolling aggregate)."""
        return self._byte_size

    @property
    def view_count(self) -> int:
        """Number of living sequences."""
        return len(self._views)

    @property
    def completed_view_count(self) -> int:
        """Number of living sequences closed by their summary block."""
        return self._complete_views

    def live_views(self) -> list[SequenceView]:
        """A list copy of the internal partition's view objects.

        The views themselves are shared and mutated in place as blocks are
        appended and cut; internal single-shot consumers (the summarizer) use
        this accessor to avoid copying every view's block list, external
        callers should use :meth:`sequence_views`.
        """
        return list(self._views)

    def sequence_views(self) -> list[SequenceView]:
        """Defensive snapshot of the partition (stable across later appends)."""
        return [SequenceView(index=view.index, blocks=list(view.blocks)) for view in self._views]

    def sequence_aggregates(self) -> dict[int, dict[str, int]]:
        """Per-sequence rolling entry/byte counters, keyed by sequence index."""
        return {index: aggregate.to_dict() for index, aggregate in sorted(self._per_sequence.items())}

    # ------------------------------------------------------------------ #
    # Validation against the legacy linear scans
    # ------------------------------------------------------------------ #

    def self_check(self, blocks: Sequence[Block], genesis_marker: int) -> None:
        """Validate every incremental structure against the linear scans.

        Raises :class:`ChainIntegrityError` on the first divergence.  This is
        O(total entries) and intended for tests and snapshot loads, not for
        the hot path.
        """
        expected_entries, expected_bytes, expected_complete = legacy_aggregates(
            blocks, self.sequence_length
        )
        if self._entry_count != expected_entries:
            raise ChainIntegrityError(
                f"index entry count {self._entry_count} != scanned {expected_entries}"
            )
        if self._byte_size != expected_bytes:
            raise ChainIntegrityError(
                f"index byte size {self._byte_size} != scanned {expected_bytes}"
            )

        expected_views = partition_into_sequences(blocks, self.sequence_length)
        if len(expected_views) != len(self._views):
            raise ChainIntegrityError(
                f"index holds {len(self._views)} sequences, scan found {len(expected_views)}"
            )
        for ours, scanned in zip(self._views, expected_views):
            if ours.index != scanned.index or len(ours.blocks) != len(scanned.blocks):
                raise ChainIntegrityError(f"sequence {scanned.index} diverges from the scan")
            for mine, theirs in zip(ours.blocks, scanned.blocks):
                if mine is not theirs:
                    raise ChainIntegrityError(
                        f"sequence {scanned.index} references a stale block object"
                    )
            aggregate = self._per_sequence.get(ours.index)
            if aggregate is None:
                raise ChainIntegrityError(f"sequence {ours.index} is missing its aggregate")
            if aggregate.entry_count != scanned.entry_count():
                raise ChainIntegrityError(f"sequence {ours.index} entry aggregate diverges")
            if aggregate.byte_size != scanned.byte_size():
                raise ChainIntegrityError(f"sequence {ours.index} byte aggregate diverges")
        if self._complete_views != expected_complete:
            raise ChainIntegrityError(
                f"index counts {self._complete_views} complete sequences, "
                f"scan found {expected_complete}"
            )

        # The living blocks by number and the summaries must be exactly the
        # scanned block objects, in order: a stale or missing one is an
        # on_append/cut_before maintenance bug.
        summaries = [block for block in blocks if block.is_summary and block.entries]
        indexed = (("blocks", list(self._blocks.values()), blocks), ("summaries", self._summaries, summaries))
        for label, ours, theirs in indexed:
            if len(ours) != len(theirs) or any(mine is not scanned for mine, scanned in zip(ours, theirs)):
                raise ChainIntegrityError(f"index's living {label} diverge from the block list")

        # Rebuild the resolution from scratch in one pass over the blocks —
        # first match within a block, the newest summary across blocks, the
        # original position over any copy — and require find() to return the
        # identical (block, entry) for every key: O(total entries).
        originals: dict[tuple[int, int], tuple[Block, Entry]] = {}
        copies: dict[tuple[int, int], tuple[Block, Entry]] = {}
        for block in blocks:
            newest: dict[tuple[int, int], tuple[Block, Entry]] = {}
            for entry in block.entries:
                if entry.entry_number is not None:  # positive once set
                    originals.setdefault((block.block_number, entry.entry_number), (block, entry))
                origin, origin_entry = entry.origin_block_number, entry.origin_entry_number
                if block.is_summary and origin is not None and origin >= 0 and (origin_entry or 0) >= 1:
                    newest.setdefault((origin, origin_entry), (block, entry))
            copies.update(newest)

        def same(found: Optional[tuple[Block, Entry]], expected: Optional[tuple[Block, Entry]]) -> bool:
            if found is None or expected is None:
                return found is expected
            return found[0] is expected[0] and found[1] is expected[1]

        for key, expected in {**copies, **originals}.items():
            if not same(self.find(EntryReference(*key)), expected):
                raise ChainIntegrityError(f"index lookup for {key} is stale")

        # Cross-check a bounded sample of references against the retained
        # linear-scan specification — full-strength semantics (original
        # position wins, newest copy wins) without the O(entries x chain
        # length) cost of scanning per reference.  The sample size shrinks
        # with chain length so the whole cross-check stays bounded (~100k
        # block visits) even on snapshot loads of very long chains.
        budget = max(4, min(128, 100_000 // max(1, len(blocks))))
        sample = [*islice(originals, budget // 2), *islice(copies, budget - budget // 2), (1, 99)]
        for key in sample:  # (1, 99): a miss must miss in both
            reference = EntryReference(*key)
            if not same(self.find(reference), legacy_find_entry(blocks, genesis_marker, reference)):
                raise ChainIntegrityError(f"lookup for {reference} diverges from the linear scan")


# ---------------------------------------------------------------------- #
# Legacy linear-scan reference implementations
# ---------------------------------------------------------------------- #


def legacy_find_entry(
    blocks: Sequence[Block],
    genesis_marker: int,
    reference: EntryReference,
) -> Optional[tuple[Block, Entry]]:
    """The seed's O(chain length) lookup, kept as executable specification.

    Looks first at the original block if it is still living, then scans the
    summary blocks newest-first for a carried-forward copy.  Used by the
    equivalence tests and the scaling benchmark as the baseline shape.
    """
    position = reference.block_number - genesis_marker
    block = blocks[position] if 0 <= position < len(blocks) else None
    if block is not None and block.block_number == reference.block_number:
        for candidate in block.entries:
            if candidate.entry_number == reference.entry_number:
                return block, candidate
    for candidate_block in reversed(blocks):
        if not candidate_block.is_summary:
            continue
        for candidate in candidate_block.entries:
            if (
                candidate.origin_block_number == reference.block_number
                and candidate.origin_entry_number == reference.entry_number
            ):
                return candidate_block, candidate
    return None


def legacy_aggregates(
    blocks: Sequence[Block],
    sequence_length: Optional[int] = None,
) -> tuple[int, int, int]:
    """The seed's O(chain length) counters: (entries, bytes, complete views).

    ``bytes`` walks and serialises every block, matching what ``byte_size()``
    did on each call before the rolling aggregates existed.  ``complete
    views`` repartitions the chain, matching ``completed_sequence_count()``.
    """
    entry_count = sum(block.entry_count for block in blocks)
    byte_size = sum(len(canonical_json(block.to_dict()).encode("utf-8")) for block in blocks)
    complete = 0
    if sequence_length is not None:
        views = partition_into_sequences(blocks, sequence_length)
        complete = sum(1 for view in views if view.is_complete)
    return entry_count, byte_size, complete
