"""Append-only journal (write-ahead log) block store that rewrites itself.

One canonical JSON record per line: ``{"before":n,"kind":"truncate"}`` for a
marker shift, ``{"block":…,"kind":"block"}`` for an append.  A block record
is the block's ``to_dict()`` form, except that each ``"entries"`` item is an
inline body (a dict) or a run ``[block, start, stop]``: entries
``start..stop-1`` of a block the journal holds — the paper's §V-B2 reference
idea on disk.  A summary the chain built knows the slices it took from each
merged summary (:attr:`~repro.core.block.CarryRecord.runs`), so its record
is one run per slice plus the newly expired sequence's copies, not the
living set; a run is written only when the stored source holds those very
``Entry`` objects.  Replay extends the rebuilt summary with the source's
objects and their memos (a replayed block keeps the memos it was hashed
from), and still checks the block's hash.  A truncation is its record and
the index cut; no other state is kept.  Compaction rewrites the file from
the stored blocks alone — the first summary inline, each living body once,
erased bodies physically gone — which is how a node recovers the disk space
the paper's data-reduction claim promises.

The store compacts itself by the doubling rule: once the file has grown past
its last rewrite by that rewrite's size, and by at least
:data:`REWRITE_FLOOR`, the commit that grew it is followed by a rewrite.  A
rewrite writes at most the last one's size plus the growth since, so each
byte appended costs at most two bytes rewritten; the file never passes its
rewritten size plus the larger of that size and the floor, plus one step.
Opening counts as a rewrite to nothing: the first commit after opening a file
of at least the floor rewrites it, for no more than the replay that opened
it cost, so a store reopened often forgets its history too.  A restart thus
replays about the living chain rather than its history, and an erased body
leaves the file at the first rewrite after its ``deletion-executed``.  The
rewrite runs only once the memory index holds the committed records — after
the outermost commit scope closes, or after a write made outside any scope —
and the step that triggered it is already durable, so a failed rewrite is
counted (``counters["failed_rewrites"]``), never raised.  One that failed
before its rename left the journal as it was and is tried again once the
file has grown by the rule again; one whose directory ``fsync`` failed leaves
the store refusing writes, as a failed commit does.  A rewrite that never
took over (``<journal>.compact``) is deleted when the journal is opened.

Records are written by commits: one ``open``, ``write``, ``flush`` and
``fsync`` per commit.  A write outside any
:meth:`~repro.storage.memstore.BlockStore.commit_scope` is its own commit;
inside one, records wait in memory until the outermost scope closes, so a
chain step — a sealed block, the summary it makes due and the marker shift —
costs one ``fsync`` (group commit) and returns only once all of it is on
disk.  A commit that fails is cut back off the file and leaves the store
refusing writes until it is reopened: the chain's memory is then ahead of
the file.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager, suppress
from operator import is_
from pathlib import Path
from typing import Iterator, Mapping, Optional, TextIO, Union

from repro.core.block import Block
from repro.core.entry import Entry
from repro.core.errors import StorageError
from repro.crypto.hashing import canonical_json
from repro.storage.memstore import MemoryBlockStore

#: The least growth, in bytes, past the journal's last rewrite that makes it
#: rewrite itself.  Below it a journal is not rewritten every few records: on
#: ``examples/durable_ledger.py`` the floor saves 12 of 13 rewrites and 24 of
#: 88 ``fsync``s, on ``repro scenario --store wal`` all 5 rewrites and 10 of 22
#: ``fsync``s.
REWRITE_FLOOR = 64 * 1024

#: The suffix of a rewrite in progress, beside the journal it replaces.
_REWRITE_SUFFIX = ".compact"


@contextmanager
def replace_durably(path: Path, suffix: str = ".tmp", sync_directory: bool = True) -> Iterator[TextIO]:
    """Write ``path`` + ``suffix``, fsync it, rename it over ``path`` and, unless
    ``sync_directory`` is false, fsync the directory; a write that fails
    part-way leaves ``path`` and removes the rest."""
    temporary = path.with_suffix(path.suffix + suffix)
    try:
        with temporary.open("w", encoding="utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        temporary.replace(path)
    finally:
        temporary.unlink(missing_ok=True)
    if sync_directory:
        _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Make the renames made in ``directory`` durable."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def _same(taken: list[Entry], held: list[Entry]) -> bool:
    """True when both lists hold the very same objects (a C-level pass)."""
    return len(taken) == len(held) and all(map(is_, taken, held))


def _block_line(block: Block, stored: Mapping[int, Block]) -> str:
    """A block's canonical record: each slice its summary took from a block in
    ``stored`` — the very same entries — becomes a run, the rest is inline."""
    carry = block._carry
    memos, entries = block.entry_memos(), block.entries
    items: list[str] = []
    done = 0
    for source_number, start, stop in carry.runs if carry is not None else ():
        end = done + stop - start
        source = stored.get(source_number)  # None for new copies
        if source is not None and _same(source.entries[start:stop], entries[done:end]):
            items.append("[%d,%d,%d]" % (source_number, start, stop))
        else:
            items.extend(memos[done:end])
        done = end
    items.extend(memos[done:])
    rest = block.fields_json()
    return f'{{"block":{{"block_hash":"{block.block_hash}","entries":[{",".join(items)}],{rest[1:]},"kind":"block"}}'


def _run_source(item: list, stored: Mapping[int, Block]) -> Block:
    """The stored block a ``[block, start, stop]`` run takes its entries from."""
    if len(item) != 3 or not all(type(part) is int for part in item) or not 0 <= item[1] < item[2]:
        raise ValueError(f"malformed entry run {item!r}")
    source = stored.get(item[0])
    if source is None:
        raise KeyError(f"run {item!r} names no block the journal holds")
    if item[2] > len(source.entries):
        raise ValueError(f"run {item!r} passes the end of block {item[0]}")
    return source


def _decode_record(line: bytes, stored: Mapping[int, Block]) -> Union[Block, int]:
    """The block a journal line appends, or the number its marker truncates before.

    A run extends the block by its source's entries and their memos; the block
    keeps the memos, so it is hashed without a call per entry and, its entries
    all numbered, without the numbering pass."""
    record = json.loads(line)
    if record["kind"] == "block":
        payload = record["block"]
        entries: list[Entry] = []
        memos: list[str] = []
        numbered = True
        for item in payload.get("entries", ()):
            if type(item) is list:
                source, start, stop = _run_source(item, stored), item[1], item[2]
                entries.extend(source.entries[start:stop])
                memos.extend(source.entry_memos()[start:stop])
            else:
                entry = Entry.from_dict(item)
                numbered = numbered and entry.entry_number is not None
                entries.append(entry)
                memos.append(entry.__canonical_json__())
        return Block.from_dict(payload, entries=entries, memos=memos if numbered else None)
    if record["kind"] == "truncate":
        return int(record["before"])
    raise ValueError(f"unknown record kind {record['kind']!r}")


class JournalBlockStore(MemoryBlockStore):
    """File-backed append-only store that compacts itself by the doubling rule.

    The in-memory index is :class:`MemoryBlockStore`'s; every mutation hands
    its journal record to the current commit first — outside a
    :meth:`commit_scope` it is fsynced before the mutation returns, inside
    one when the outermost scope closes.  ``counters`` holds the rewrites
    made and the automatic ones that failed.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)
        self._buffer: list[str] = []
        self._depth = 0
        self._failed: Optional[OSError] = None
        self.counters = {"rewrites": 0, "failed_rewrites": 0}
        self.path.parent.mkdir(parents=True, exist_ok=True)
        # A rewrite that never took over is not the journal, and it may hold
        # bodies erased since.
        self.path.with_suffix(self.path.suffix + _REWRITE_SUFFIX).unlink(missing_ok=True)
        if self.path.exists():
            self._load()
        else:
            self.path.touch()
        #: The file's size right after its last rewrite; 0 at open, so the
        #: first commit after opening rewrites whatever history the file holds.
        self._rewritten = 0

    def _load(self) -> None:
        # Bytes, not text: a flipped high bit is a corrupt line like any other.
        with self.path.open("rb") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = _decode_record(line, self._blocks)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise StorageError(f"corrupt journal line {line_number}: {exc!r}") from exc
                if isinstance(record, Block):
                    super().append(record)
                else:
                    super().truncate_before(record)

    @contextmanager
    def commit_scope(self) -> Iterator[None]:
        """Buffer the records written inside; the outermost scope's exit
        writes them with one ``fsync`` (and raises :class:`StorageError` if
        that fails)."""
        self._depth += 1
        try:
            yield
        finally:
            # Committed even when the step raised part-way: the memory index
            # already holds these records, and the file must not fall behind.
            self._depth -= 1
            if self._depth == 0 and self._buffer:
                self._commit()
                self._rewrite_if_grown()

    def _writable(self) -> None:
        if self._failed is not None:
            raise StorageError(
                f"journal {self.path} refuses writes after a failed write ({self._failed}); reopen it"
            )

    def _write_record(self, line: str) -> None:
        self._writable()
        self._buffer.append(line)
        if self._depth == 0:
            self._commit()

    def _commit(self) -> None:
        """Write and fsync the buffered records as one commit.  On failure the
        file is cut back to the last commit and the store refuses writes."""
        data = ("\n".join(self._buffer) + "\n").encode("utf-8")
        self._buffer.clear()
        committed = None
        try:
            with self.path.open("ab") as handle:
                committed = handle.tell()
                handle.write(data)
                handle.flush()
                os.fsync(handle.fileno())
        except OSError as exc:
            self._failed = exc
            if committed is not None:
                with suppress(OSError):
                    os.truncate(self.path, committed)
            raise StorageError(f"journal commit to {self.path} failed: {exc}") from exc

    def append(self, block: Block) -> None:
        """Append a block record to the journal; durable before returning
        outside a :meth:`commit_scope`, at the scope's close inside one.

        A summary the chain built costs its new bodies plus one run per slice
        it kept of a merged summary; any other block is written inline.
        """
        self._check_next(block)
        self._write_record(_block_line(block, self._blocks))
        super().append(block)
        self._rewrite_if_grown()

    def truncate_before(self, block_number: int) -> int:
        """Record a truncation marker and drop the blocks from the index.

        The dropped blocks stay in the file until it is rewritten — by the
        doubling rule, or by an explicit :meth:`compact`.
        """
        if self._first is None or block_number <= self._first:
            return 0
        self._write_record(canonical_json({"before": block_number, "kind": "truncate"}))
        removed = super().truncate_before(block_number)
        self._rewrite_if_grown()
        return removed

    def _rewrite_if_grown(self) -> None:
        """Compact once the file has grown past its last rewrite by the larger
        of that rewrite's size and :data:`REWRITE_FLOOR`.  Runs only outside
        any scope, after the memory index holds every committed record; the
        step is durable already, so a failed rewrite is counted, not raised."""
        if self._depth or self.file_size() - self._rewritten < max(self._rewritten, REWRITE_FLOOR):
            return
        try:
            self.compact()
        except OSError:
            # Try again only once the file has grown by the rule again, so a
            # lasting failure (a full disk) costs no more than the rule allows.
            self._rewritten = self.file_size()
            self.counters["failed_rewrites"] += 1

    def file_size(self) -> int:
        """Size of the journal file in bytes."""
        return self.path.stat().st_size if self.path.exists() else 0

    def compact(self) -> int:
        """Rewrite the journal with only the stored blocks; returns bytes saved.
        A run is kept only when its source precedes it in the new file.

        A failure before the rename leaves the journal as it was.  A failed
        directory fsync after it leaves the rewrite in place under a name a
        crash may undo, so the store then refuses writes until reopened."""
        self._writable()
        before = self.file_size()
        written: dict[int, Block] = {}
        # The rename discards a journal whose commits were each fsynced; the
        # rewrite must be as durable before it takes over.
        with replace_durably(self.path, _REWRITE_SUFFIX, sync_directory=False) as handle:
            for block in self:
                handle.write(_block_line(block, written) + "\n")
                written[block.block_number] = block
        # The rewrite holds every buffered record's effect.
        self._buffer.clear()
        self._rewritten = self.file_size()
        try:
            _fsync_directory(self.path.parent)
        except OSError as exc:
            # A crash may still bring back the old journal: it holds every
            # commit so far, but would lose any commit made after this one.
            self._failed = exc
            raise
        self.counters["rewrites"] += 1
        return before - self._rewritten
