"""Construction of summary blocks Σ.

The summarizer implements Section IV-B/IV-C: at every summary slot it builds
a block that

* carries the same timestamp as the block before it,
* consists of deterministic information only (so every anchor node computes
  an identical block without propagation),
* absorbs the data of every sequence selected for expiry — copying block
  number, timestamp and entry number of each retained entry (Fig. 4) while
  skipping deletion requests, entries marked for deletion and expired
  temporary entries,
* optionally stores only Merkle references instead of full copies
  (Section V-B2), and
* optionally embeds redundancy material for a middle sequence to hamper the
  51 % attack (Section V-B1, Fig. 9).

The copy is paid by block.  Normal blocks go through
:func:`~repro.core.retention.entry_survives` entry by entry; a merged
summary's entries survived the cycle that built it, and only a deletion
approved since (§IV-D3) or a temporary's bound passing (§IV-D4) can drop one.
Its :class:`~repro.core.block.CarryRecord` names exactly those and carries
the entries' memos and location keys, so a cycle that drops nothing costs a
``list.extend`` per list, one join of the memos and one sha256, and a fresh
mark is found by a C-level search of the keys.  The new record's ``runs``
name the slices the summary took from each merged summary, so the journal
(:mod:`repro.storage.wal`) writes those slices, not the entries.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import compress, count
from typing import Optional

from repro.core.block import Block, BlockType, CarryRecord, RedundancyRecord
from repro.core.config import ChainConfig, RedundancyPolicy, SummaryMode
from repro.core.deletion import DeletionRegistry
from repro.core.entry import Entry
from repro.core.retention import entry_survives, select_sequences_to_expire
from repro.core.sequence import SequenceView, middle_sequence
from repro.crypto.merkle import merkle_root


@dataclass(frozen=True)
class DroppedEntry:
    """An entry that was *not* carried forward, together with the reason."""

    block_number: int
    entry: Entry
    reason: str


@dataclass
class SummaryResult:
    """Everything produced by one summarisation step."""

    block: Block
    expired_sequences: list[SequenceView] = field(default_factory=list)
    carried_entries: list[Entry] = field(default_factory=list)
    dropped_entries: list[DroppedEntry] = field(default_factory=list)
    new_marker: Optional[int] = None

    @property
    def shifted_marker(self) -> bool:
        """True when the genesis marker moves as part of this step."""
        return self.new_marker is not None


#: Fresh marks located by C-level searches of a summary's location keys
#: before one C-level membership pass over the keys is the cheaper way.  A
#: search seeks every position, so each is a full pass; measured at 0.4–0.7
#: of a membership pass (220–8,000 keys, CPython 3.11 on a 2-core Xeon
#: virtual host), two searches break even and three lose.
_SEARCHES_PER_SCAN = 2


class Summarizer:
    """Builds summary blocks for a configured chain."""

    def __init__(self, config: ChainConfig) -> None:
        self.config = config

    # ------------------------------------------------------------------ #
    # Entry selection
    # ------------------------------------------------------------------ #

    def collect_entries(
        self,
        expiring: list[SequenceView],
        registry: DeletionRegistry,
        *,
        current_time: int,
        current_block: int,
    ) -> tuple[list[Entry], list[DroppedEntry]]:
        """Split the expiring sequences' entries into carried and dropped."""
        return self._carry(expiring, registry, current_time=current_time, current_block=current_block)[:2]

    def _carry(
        self,
        expiring: list[SequenceView],
        registry: DeletionRegistry,
        *,
        current_time: int,
        current_block: int,
    ) -> tuple[list[Entry], list[DroppedEntry], CarryRecord]:
        """:meth:`collect_entries`, plus the record the new summary keeps.  A
        merged summary re-checks only its watch positions and the entries
        under keys approved since its watermark; the rest ride along."""
        carried: list[Entry] = []
        memos: list[str] = []
        keys: Optional[list[tuple[int, int]]] = []
        watch: list[int] = []
        runs: list[tuple[Optional[int], int, int]] = []
        dropped: list[DroppedEntry] = []

        def survives(block: Block, entry: Entry) -> bool:
            kept, reason = entry_survives(
                entry,
                containing_block_number=block.block_number,
                registry=registry,
                current_time=current_time,
                current_block=current_block,
            )
            if not kept:
                dropped.append(DroppedEntry(block_number=block.block_number, entry=entry, reason=reason))
            return kept

        for view in expiring:
            for block in view.blocks:
                if not block.is_summary:
                    first = len(carried)
                    for entry in block.entries:
                        if survives(block, entry):
                            copy = entry.as_copy(
                                origin_block_number=block.block_number, origin_timestamp=block.timestamp
                            )
                            if copy.is_temporary:
                                watch.append(len(carried))
                            carried.append(copy)
                            memos.append(copy.__canonical_json__())
                            if keys is not None:
                                keys.append(copy.location_key(block.block_number))
                    if len(carried) > first:
                        runs.append((None, first, len(carried)))
                    continue
                if not block.entries:  # empty, or MERKLE_REFERENCE: nothing to carry or check
                    continue
                entries, record = block.entries, block._carry
                if record is None or record.registry is not registry:  # loaded, hand-built or foreign
                    watched = (p for p, e in enumerate(entries) if e.is_temporary or e.is_deletion_request)
                    # A non-copy entry's key changes with the block holding it.
                    located = block.location_keys() if all(entry.is_copy for entry in entries) else None
                    record = CarryRecord(block.entry_memos(), located, registry, 0, tuple(watched))
                checked = set(record.watch)
                fresh = registry.approved_since(record.watermark)
                if len(fresh) > _SEARCHES_PER_SCAN:
                    checked.update(compress(count(), map(set(fresh).__contains__, block.location_keys())))
                else:
                    checked.update(position for key in fresh for position in block.positions_of(key))
                gone = [p for p in sorted(checked) if not survives(block, entries[p])]
                watch.extend(len(carried) + p - bisect_left(gone, p) for p in record.watch if p not in gone)
                if record.keys is None:
                    keys = None
                start = 0
                for stop in gone + [len(entries)]:
                    if stop > start:
                        runs.append((block.block_number, start, stop))
                    carried.extend(entries[start:stop])
                    memos.extend(record.memos[start:stop])
                    if keys is not None:
                        keys.extend(record.keys[start:stop])
                    start = stop + 1
        return carried, dropped, CarryRecord(memos, keys, registry, registry.decision_count, tuple(watch), tuple(runs))

    # ------------------------------------------------------------------ #
    # Redundancy (Fig. 9)
    # ------------------------------------------------------------------ #

    def build_redundancy(
        self,
        remaining: list[SequenceView],
        expiring: list[SequenceView],
    ) -> list[RedundancyRecord]:
        """Build the redundancy records for the new summary block.

        The paper stores *"the sequence to be deleted and the reference to a
        middle sequence"*; the deleted sequences' data is already inside the
        summary block via the carried entries, so the redundancy records
        cover the middle sequence of the remaining chain.
        """
        if self.config.redundancy is RedundancyPolicy.NONE:
            return []
        candidates = [view for view in remaining if view.is_complete]
        target = middle_sequence(candidates)
        if target is None and candidates:
            target = candidates[0]
        if target is None:
            return []
        if self.config.redundancy is RedundancyPolicy.MIDDLE_MERKLE_ROOT:
            return [
                RedundancyRecord(
                    sequence_index=target.index,
                    first_block_number=target.first_block_number,
                    last_block_number=target.last_block_number,
                    merkle_root=target.merkle_root(),
                )
            ]
        entries = tuple(
            entry.as_copy(origin_block_number=block.block_number, origin_timestamp=block.timestamp)
            for block, entry in target.data_entries()
        )
        return [
            RedundancyRecord(
                sequence_index=target.index,
                first_block_number=target.first_block_number,
                last_block_number=target.last_block_number,
                merkle_root=target.merkle_root(),
                entries=entries,
            )
        ]

    # ------------------------------------------------------------------ #
    # Summary block construction
    # ------------------------------------------------------------------ #

    def build_summary_block(
        self,
        *,
        sequences: list[SequenceView],
        previous_block: Block,
        next_block_number: int,
        registry: DeletionRegistry,
        current_time: int,
    ) -> SummaryResult:
        """Build the summary block that closes the current sequence.

        ``sequences`` is the partition of the living chain (oldest first,
        the last one being the sequence the new summary block terminates).
        """
        expiring = select_sequences_to_expire(self.config, sequences)
        carried, dropped, record = self._carry(
            expiring,
            registry,
            current_time=current_time,
            current_block=next_block_number,
        )

        entries: list[Entry] = []
        summary_references: list[dict] = []
        if self.config.summary_mode is SummaryMode.FULL_COPY:
            entries = carried
        else:
            record = None
            # Group the carried entries by the expiring sequence whose block
            # range their origin falls into — one pass over ``carried``
            # instead of rescanning it per expiring view.  Entries whose
            # origin lies outside every expiring range (re-carried copies of
            # long-gone sequences) stay unreferenced, as before.
            view_of_origin: dict[int, int] = {}
            retained_by_view: list[list[Entry]] = []
            for position, view in enumerate(expiring):
                retained_by_view.append([])
                for number in range(view.first_block_number, view.last_block_number + 1):
                    view_of_origin[number] = position
            for entry in carried:
                if entry.origin_block_number is None:
                    continue
                position = view_of_origin.get(entry.origin_block_number)
                if position is not None:
                    retained_by_view[position].append(entry)
            for view, retained_in_view in zip(expiring, retained_by_view):
                summary_references.append(
                    {
                        "sequence_index": view.index,
                        "first_block_number": view.first_block_number,
                        "last_block_number": view.last_block_number,
                        "entry_count": len(retained_in_view),
                        # The entries hash through their cached canonical
                        # serialisation — identical root, no re-serialising.
                        "merkle_root": merkle_root(retained_in_view),
                    }
                )

        if self.config.redundancy is RedundancyPolicy.NONE:
            redundancy: list[RedundancyRecord] = []
        else:
            remaining = [view for view in sequences if not any(view is gone for gone in expiring)]
            redundancy = self.build_redundancy(remaining, expiring)

        block = Block(
            block_number=next_block_number,
            timestamp=previous_block.timestamp,
            previous_hash=previous_block.block_hash,
            entries=entries,
            block_type=BlockType.SUMMARY,
            redundancy=redundancy,
            merged_sequences=[view.index for view in expiring],
            summary_references=summary_references,
            _carry=record,
        )

        new_marker = expiring[-1].last_block_number + 1 if expiring else None
        return SummaryResult(
            block=block,
            expired_sequences=expiring,
            carried_entries=carried,
            dropped_entries=dropped,
            new_marker=new_marker,
        )
