"""Incremental chain indexing: the O(1) backbone of the hot paths.

Section IV-D claims deletion-request processing is *"linear and very low as
blocks are referenced directly by number"*.  The naive implementation of the
chain façade contradicts that claim at scale: locating an entry falls back to
a linear scan over every summary block, the aggregate counters re-walk (and
re-serialise) the whole living chain on every call, and the sequence
partition is recomputed from scratch each time it is needed.

:class:`ChainIndex` restores the paper's complexity promise.  The
:class:`~repro.core.chain.Blockchain` façade maintains one instance
incrementally on every append and marker shift, giving

* an **entry-location index** mapping original ``(block number, entry
  number)`` coordinates to the living ``(block, entry)`` pair — covering both
  entries still sitting in their original block and carried-forward copies
  inside summary blocks (Fig. 4 keeps the original coordinates on copies),
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
from typing import Iterable, Optional, Sequence

from repro.core.block import Block
from repro.core.entry import Entry, EntryReference
from repro.core.errors import ChainIntegrityError
from repro.core.sequence import SequenceView, partition_into_sequences, sequence_index_of
from repro.crypto.hashing import canonical_json

#: Location key: the original coordinates an entry is addressed by.
LocationKey = tuple[int, int]


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
    :meth:`cut_before` when the genesis marker shifts.  All query methods are
    O(1); :meth:`sequence_views` is O(number of living blocks) because it
    returns defensive copies, while :meth:`live_views` exposes the internal
    partition without copying for read-only internal callers.
    """

    def __init__(self, sequence_length: int) -> None:
        self.sequence_length = sequence_length
        #: (block_number, entry_number) -> (block, entry) for entries still
        #: sitting in their original living block.
        self._originals: dict[LocationKey, tuple[Block, Entry]] = {}
        #: (origin_block_number, origin_entry_number) -> (block, entry) for
        #: the *newest* carried-forward copy inside a living summary block.
        self._copies: dict[LocationKey, tuple[Block, Entry]] = {}
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

        number, summary = block.block_number, block.is_summary
        originals = self._originals
        copies: dict[LocationKey, tuple[Block, Entry]] = {}
        # First match wins within a block, mirroring Block.entry() and
        # Block.find_copy_of().
        for entry in block.entries:
            if entry.entry_number is not None:
                originals.setdefault((number, entry.entry_number), (block, entry))
            if summary and entry.origin_block_number is not None:
                copies.setdefault((entry.origin_block_number, entry.origin_entry_number), (block, entry))
        # The newest living summary block wins, mirroring the legacy
        # newest-first scan over summary blocks.
        self._copies.update(copies)

    def cut_before(self, new_marker: int, cut_blocks: Sequence[Block]) -> None:
        """Unregister the blocks removed by a genesis-marker shift.

        ``cut_blocks`` is the (oldest-first) prefix of living blocks with
        ``block_number < new_marker``; the marker only ever moves to the block
        after a summary block, so the prefix always covers whole sequences.
        """
        originals, copies = self._originals, self._copies
        for block in cut_blocks:
            view_index = sequence_index_of(block.block_number, self.sequence_length)
            aggregate = self._per_sequence.get(view_index)
            size = block.byte_size()
            if aggregate is not None:
                aggregate.entry_count -= block.entry_count
                aggregate.byte_size -= size
            self._entry_count -= block.entry_count
            self._byte_size -= size
            number, summary = block.block_number, block.is_summary
            for entry in block.entries:
                if entry.entry_number is not None:
                    original_key = (number, entry.entry_number)
                    located = originals.get(original_key)
                    if located is not None and located[0] is block:
                        del originals[original_key]
                if summary and entry.origin_block_number is not None:
                    copy_key = (entry.origin_block_number, entry.origin_entry_number)
                    located = copies.get(copy_key)
                    if located is not None and located[0] is block:
                        del copies[copy_key]

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
        """O(1) located ``(block, entry)`` for a reference, or ``None``.

        The original position wins over carried-forward copies; among living
        copies the newest summary block wins — both exactly as the legacy
        linear scan resolved references.
        """
        key = (reference.block_number, reference.entry_number)
        located = self._originals.get(key)
        if located is not None:
            return located
        return self._copies.get(key)

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
        """The internal partition (shared, read-only by convention).

        The view objects are mutated in place as blocks are appended and cut;
        internal single-shot consumers (the summarizer) use this accessor to
        avoid copying, external callers should use :meth:`sequence_views`.
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

        # Rebuild both location maps from scratch in one pass over the blocks
        # and require the incrementally maintained maps to be identical (same
        # keys, same block/entry object identities).  This catches any
        # append/cut maintenance bug in O(total entries).
        expected_originals: dict[LocationKey, tuple[Block, Entry]] = {}
        expected_copies: dict[LocationKey, tuple[Block, Entry]] = {}
        for block in blocks:
            seen_copies: set[LocationKey] = set()
            for entry in block.entries:
                if entry.entry_number is not None:
                    expected_originals.setdefault((block.block_number, entry.entry_number), (block, entry))
                if block.is_summary and entry.origin_block_number is not None:
                    copy_key = (entry.origin_block_number, entry.origin_entry_number)
                    if copy_key not in seen_copies:
                        seen_copies.add(copy_key)
                        expected_copies[copy_key] = (block, entry)
        for label, ours, expected in (
            ("original", self._originals, expected_originals),
            ("copy", self._copies, expected_copies),
        ):
            if set(ours) != set(expected):
                raise ChainIntegrityError(f"{label}-location index keys diverge from the blocks")
            for key, (block, entry) in expected.items():
                indexed_block, indexed_entry = ours[key]
                if indexed_block is not block or indexed_entry is not entry:
                    raise ChainIntegrityError(
                        f"{label}-location index for {key} references a stale object"
                    )

        # Cross-check a bounded sample of references against the retained
        # linear-scan specification — full-strength semantics (original
        # position wins, newest copy wins) without the O(entries x chain
        # length) cost of scanning per reference.  The sample size shrinks
        # with chain length so the whole cross-check stays bounded (~100k
        # block visits) even on snapshot loads of very long chains.
        budget = max(4, min(128, 100_000 // max(1, len(blocks))))
        sample: list[LocationKey] = []
        for key in expected_originals:
            sample.append(key)
            if len(sample) >= budget // 2:
                break
        for key in expected_copies:
            sample.append(key)
            if len(sample) >= budget:
                break
        sample.append((1, 99))  # a miss must miss in both implementations
        for block_number, entry_number in sample:
            if block_number < 0 or entry_number is None or entry_number < 1:
                continue
            reference = EntryReference(block_number, entry_number)
            scanned = legacy_find_entry(blocks, genesis_marker, reference)
            indexed = self.find(reference)
            if scanned is None and indexed is None:
                continue
            if (
                scanned is None
                or indexed is None
                or scanned[0] is not indexed[0]
                or scanned[1] is not indexed[1]
            ):
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
