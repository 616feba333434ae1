"""Append-only journal (write-ahead log) block store.

One canonical JSON record per line: ``{"before":n,"kind":"truncate"}`` for a
marker shift, ``{"block":…,"kind":"block"}`` for an append.  A block record
is the block's ``to_dict()`` form, except that each ``"entries"`` item is an
inline body (a dict) or an ``[origin_block, origin_entry]`` reference to a
body the journal already holds — the paper's §V-B2 reference idea on disk.
Summaries carry their copies by identity, so a summary record inlines only
the newly expired sequence, not the living set.  Writer and reader keep the
same body map, location key → (entry, newest block holding it); replay
resolves a reference to that very ``Entry``, memo included, and still checks
the rebuilt block's hash.  A truncation forgets the keys no stored block
holds, so the map is bounded by the living entries.  Compaction rewrites the
file from an empty map — each living body once, erased bodies physically
gone — which is how a node recovers the disk space the paper's
data-reduction claim promises.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Iterator, TextIO, Union

from repro.core.block import Block
from repro.core.entry import Entry
from repro.core.errors import StorageError
from repro.crypto.hashing import canonical_json
from repro.storage.memstore import MemoryBlockStore

#: Location key → (the entry last journalled under it, newest block holding it).
BodyMap = dict[tuple[int, int], tuple[Entry, int]]


@contextmanager
def replace_durably(path: Path, suffix: str = ".tmp") -> Iterator[TextIO]:
    """Write ``path`` + ``suffix``, fsync it, rename it over ``path``, fsync the
    directory; a write that fails part-way leaves ``path`` and removes the rest."""
    temporary = path.with_suffix(path.suffix + suffix)
    try:
        with temporary.open("w", encoding="utf-8") as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        temporary.replace(path)
    finally:
        temporary.unlink(missing_ok=True)
    directory = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)


def _block_line(block: Block, bodies: BodyMap) -> str:
    """A block's canonical record; entries ``bodies`` holds become references."""
    items = []
    for entry in block.entries:
        key = entry.location_key(block.block_number)
        held = bodies.get(key)
        items.append("[%d,%d]" % key if held and held[0] is entry else entry.__canonical_json__())
    rest = canonical_json({"header": block.header_dict(), "merged_sequences": block.merged_sequences,
                           "redundancy": block.redundancy, "summary_references": block.summary_references})
    return f'{{"block":{{"block_hash":"{block.block_hash}","entries":[{",".join(items)}],{rest[1:]},"kind":"block"}}'


def _remember(block: Block, bodies: BodyMap) -> None:
    for entry in block.entries:
        bodies[entry.location_key(block.block_number)] = (entry, block.block_number)


def _resolve(item: Any, bodies: BodyMap) -> Entry:
    """An inline body, or the entry a reference names."""
    if not isinstance(item, list):
        return Entry.from_dict(item)
    if len(item) != 2 or type(item[0]) is not int or type(item[1]) is not int:
        raise ValueError(f"malformed entry reference {item!r}")
    held = bodies.get((item[0], item[1]))
    if held is None:
        raise KeyError(f"reference {item!r} names no entry body the journal holds")
    return held[0]


def _decode_record(line: bytes, bodies: BodyMap) -> Union[Block, int]:
    """The block a journal line appends, or the number its marker truncates before."""
    record = json.loads(line)
    if record["kind"] == "block":
        payload = record["block"]
        entries = [_resolve(item, bodies) for item in payload.get("entries", ())]
        return Block.from_dict(payload, entries=entries)
    if record["kind"] == "truncate":
        return int(record["before"])
    raise ValueError(f"unknown record kind {record['kind']!r}")


class JournalBlockStore(MemoryBlockStore):
    """File-backed append-only store with explicit compaction.

    The in-memory index is :class:`MemoryBlockStore`'s; every mutation
    writes (and fsyncs) its journal record first.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self._bodies: BodyMap = {}
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        if self.path.exists():
            self._load()
        else:
            self.path.touch()

    def _load(self) -> None:
        # Bytes, not text: a flipped high bit is a corrupt line like any other.
        with self.path.open("rb") as handle:
            for line_number, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = _decode_record(line, self._bodies)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise StorageError(f"corrupt journal line {line_number}: {exc!r}") from exc
                if isinstance(record, Block):
                    super().append(record)
                    _remember(record, self._bodies)
                else:
                    self._forget_before(record)

    def _write_record(self, line: str) -> None:
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, block: Block) -> None:
        """Append a block record to the journal (O(1) plus the new bodies)."""
        self._check_next(block)
        self._write_record(_block_line(block, self._bodies))
        super().append(block)
        # Only after the write: no later record may reference an unwritten body.
        _remember(block, self._bodies)

    def truncate_before(self, block_number: int) -> int:
        """Record a truncation marker and drop the blocks from the index.

        The journal file itself keeps growing until :meth:`compact` is
        called; this mirrors WAL-style storage engines and lets tests verify
        that compaction — not just logical truncation — reclaims space.
        """
        if self._first is None or block_number <= self._first:
            return 0
        self._write_record(canonical_json({"before": block_number, "kind": "truncate"}))
        return self._forget_before(block_number)

    def _forget_before(self, block_number: int) -> int:
        """Truncate the index and the bodies only the dropped blocks held."""
        self._bodies = {key: held for key, held in self._bodies.items() if held[1] >= block_number}
        return super().truncate_before(block_number)

    def file_size(self) -> int:
        """Size of the journal file in bytes."""
        return self.path.stat().st_size if self.path.exists() else 0

    def compact(self) -> int:
        """Rewrite the journal with each living body once; returns bytes saved."""
        before = self.file_size()
        bodies: BodyMap = {}
        # The rename discards a journal whose appends were each fsynced; the
        # rewrite must be as durable before it takes over.
        with replace_durably(self.path, ".compact") as handle:
            for block in self:
                handle.write(_block_line(block, bodies) + "\n")
                _remember(block, bodies)
        self._bodies = bodies
        return before - self.file_size()
