"""Append-only journal (write-ahead log) block store.

The journal stores one JSON document per line.  Appends are O(1); physical
reclamation after a genesis-marker shift happens through compaction, which
rewrites the file without the truncated blocks — mirroring how a production
node would actually recover the disk space the paper's data-reduction claim
promises.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Union

from repro.core.block import Block
from repro.core.errors import StorageError
from repro.storage.memstore import MemoryBlockStore


def _decode_record(line: bytes) -> Union[Block, int]:
    """The block a journal line appends, or the number its marker truncates before."""
    record = json.loads(line)
    if record["kind"] == "block":
        return Block.from_dict(record["block"])
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
                    record = _decode_record(line)
                except (KeyError, TypeError, ValueError, AttributeError) as exc:
                    raise StorageError(f"corrupt journal line {line_number}: {exc!r}") from exc
                if isinstance(record, Block):
                    super().append(record)
                else:
                    super().truncate_before(record)

    def _write_record(self, record: dict) -> None:
        with self.path.open("a", encoding="utf-8") as handle:
            handle.write(json.dumps(record, sort_keys=True) + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def append(self, block: Block) -> None:
        """Append a block record to the journal (O(1) plus the disk write)."""
        self._check_next(block)
        self._write_record({"kind": "block", "block": block.to_dict()})
        super().append(block)

    def truncate_before(self, block_number: int) -> int:
        """Record a truncation marker and drop the blocks from the index.

        The journal file itself keeps growing until :meth:`compact` is
        called; this mirrors WAL-style storage engines and lets tests verify
        that compaction — not just logical truncation — reclaims space.
        """
        if self._first is None or block_number <= self._first:
            return 0
        self._write_record({"kind": "truncate", "before": block_number})
        return super().truncate_before(block_number)

    def file_size(self) -> int:
        """Size of the journal file in bytes."""
        return self.path.stat().st_size if self.path.exists() else 0

    def compact(self) -> int:
        """Rewrite the journal without truncated blocks; returns bytes saved."""
        before = self.file_size()
        temporary = self.path.with_suffix(self.path.suffix + ".compact")
        with temporary.open("w", encoding="utf-8") as handle:
            for block in self:
                handle.write(json.dumps({"kind": "block", "block": block.to_dict()}, sort_keys=True) + "\n")
            # The rename below discards a journal whose appends were each
            # fsynced; the rewrite must be as durable before it takes over.
            handle.flush()
            os.fsync(handle.fileno())
        temporary.replace(self.path)
        directory = os.open(self.path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        return before - self.file_size()
