"""In-memory block store.

Anchor nodes *"manage the full copy of the blockchain"* (Section IV-A); the
storage backends decouple that copy from the chain logic so deployments can
choose volatile memory (tests, simulation), an append-only journal
(:mod:`repro.storage.wal`) or JSON snapshots (:mod:`repro.storage.snapshot`).
All backends share the :class:`BlockStore` interface, including the
``truncate_before`` operation the marker shift needs to physically reclaim
space.  A chain step that writes several records opens the store's
:meth:`~BlockStore.commit_scope`, so the step becomes durable as one commit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from contextlib import AbstractContextManager, nullcontext
from typing import Iterator, Optional

from repro.core.block import Block
from repro.core.errors import StorageError

#: The commit scope of a store that has nothing to commit: one shared no-op.
_NO_COMMIT = nullcontext()


class BlockStore(ABC):
    """Interface every storage backend implements."""

    def commit_scope(self) -> AbstractContextManager[None]:
        """A scope whose writes become durable together when its outermost
        level closes; nested scopes join it.  Outside any scope each write is
        durable before it returns.  A volatile store returns a shared no-op."""
        return _NO_COMMIT

    @abstractmethod
    def append(self, block: Block) -> None:
        """Persist one block at the end of the store."""

    @abstractmethod
    def get(self, block_number: int) -> Block:
        """Load a block by number (raises :class:`StorageError` if missing)."""

    @abstractmethod
    def truncate_before(self, block_number: int) -> int:
        """Physically remove all blocks before ``block_number``.

        Returns the number of removed blocks.  This is what reclaims disk
        space after a genesis-marker shift.
        """

    @abstractmethod
    def __len__(self) -> int:
        """Number of stored blocks."""

    @abstractmethod
    def __iter__(self) -> Iterator[Block]:
        """Iterate over stored blocks in ascending block-number order."""

    def head(self) -> Optional[Block]:
        """The stored block with the highest number, or ``None`` when empty."""
        last = None
        for block in self:
            last = block
        return last

    def byte_size(self) -> int:
        """Approximate serialised size of all stored blocks."""
        return sum(block.byte_size() for block in self)


class MemoryBlockStore(BlockStore):
    """Dict-backed store; the default backend of the chain façade.

    Appends enforce contiguous numbering, so the stored numbers always form
    one gap-free range ``[first, last]``; the cached bounds make ``append``,
    ``head`` and ``get`` O(1) — the chain façade sits on this store, so the
    store must not reintroduce the linear scans the chain index removed.
    """

    def __init__(self) -> None:
        self._blocks: dict[int, Block] = {}
        self._first: Optional[int] = None
        self._last: Optional[int] = None

    def _check_next(self, block: Block) -> None:
        if block.block_number in self._blocks:
            raise StorageError(f"block {block.block_number} is already stored")
        if self._last is not None and block.block_number != self._last + 1:
            raise StorageError(
                f"expected block {self._last + 1}, got {block.block_number}"
            )

    def append(self, block: Block) -> None:
        """Store a block, rejecting duplicates and number regressions."""
        self._check_next(block)
        self._blocks[block.block_number] = block
        if self._first is None:
            self._first = block.block_number
        self._last = block.block_number

    def get(self, block_number: int) -> Block:
        """Load a block by number."""
        try:
            return self._blocks[block_number]
        except KeyError:
            raise StorageError(f"block {block_number} is not stored") from None

    def truncate_before(self, block_number: int) -> int:
        """Drop all blocks with a smaller number."""
        if self._first is None:
            return 0
        doomed = range(self._first, min(block_number, self._last + 1))
        for number in doomed:
            del self._blocks[number]
        if self._blocks:
            self._first = max(self._first, block_number)
        else:
            self._first = self._last = None
        return len(doomed)

    def head(self) -> Optional[Block]:
        """The newest stored block (O(1))."""
        return self._blocks[self._last] if self._last is not None else None

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        if self._first is None:
            return
        for number in range(self._first, self._last + 1):
            yield self._blocks[number]
