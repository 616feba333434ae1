"""Storage backends for anchor nodes: memory, append-only journal, snapshots."""

from repro.storage.memstore import BlockStore, MemoryBlockStore
from repro.storage.snapshot import (
    chain_from_payload,
    load_snapshot,
    save_snapshot,
    snapshot_digest,
    snapshot_payload,
)
from repro.storage.wal import JournalBlockStore

__all__ = [
    "BlockStore",
    "MemoryBlockStore",
    "chain_from_payload",
    "load_snapshot",
    "save_snapshot",
    "snapshot_digest",
    "snapshot_payload",
    "JournalBlockStore",
]
