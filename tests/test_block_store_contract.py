"""Conformance suite for the BlockStore protocol.

Every storage backend the chain façade can run on must satisfy the same
contract: ordered contiguous appends, O(1) addressing by block number,
prefix truncation (what a genesis-marker shift maps to), ascending
iteration and byte-size accounting.  The suite is parametrized over the
in-memory store and the write-ahead journal, and additionally checks the
journal's compaction — physical space reclamation after marker shifts.
"""

import functools
from collections import Counter

import pytest

from repro.core import Blockchain, ChainConfig, EntryReference
from repro.core.errors import SelectiveDeletionError, StorageError
from repro.storage import JournalBlockStore, MemoryBlockStore, wal


def make_store(kind, tmp_path):
    if kind == "memory":
        return MemoryBlockStore()
    return JournalBlockStore(tmp_path / f"{kind}.journal")


def build_blocks(entries=7):
    """Living blocks of a chain long enough to have shifted its marker once
    (config: unlimited retention so nothing is cut — all blocks survive)."""
    from repro.core.config import ChainConfig as Config

    chain = Blockchain(Config(sequence_length=4))
    for i in range(entries):
        chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
    return chain.blocks


STORE_KINDS = ["memory", "wal"]


@pytest.mark.parametrize("kind", STORE_KINDS)
class TestBlockStoreContract:
    def test_append_get_len_iter(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        blocks = build_blocks()
        for block in blocks:
            store.append(block)
        assert len(store) == len(blocks)
        for block in blocks:
            assert store.get(block.block_number).block_hash == block.block_hash
        assert [b.block_number for b in store] == [b.block_number for b in blocks]

    def test_head_is_newest_block(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        assert store.head() is None
        blocks = build_blocks()
        for block in blocks:
            store.append(block)
            assert store.head().block_number == block.block_number

    def test_rejects_duplicates_gaps_and_unknown_numbers(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        blocks = build_blocks()
        store.append(blocks[0])
        with pytest.raises(StorageError):
            store.append(blocks[0])  # duplicate
        with pytest.raises(StorageError):
            store.append(blocks[2])  # gap
        with pytest.raises(StorageError):
            store.get(99)

    def test_truncate_before_removes_exactly_the_prefix(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        blocks = build_blocks()
        for block in blocks:
            store.append(block)
        cut_at = blocks[3].block_number
        removed = store.truncate_before(cut_at)
        assert removed == 3
        assert len(store) == len(blocks) - 3
        assert next(iter(store)).block_number == cut_at
        with pytest.raises(StorageError):
            store.get(blocks[0].block_number)
        # Truncating again at the same point is a no-op.
        assert store.truncate_before(cut_at) == 0
        # Appends continue after the surviving suffix.
        assert store.head().block_number == blocks[-1].block_number

    def test_truncate_everything_allows_restart(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        blocks = build_blocks()
        for block in blocks[:3]:
            store.append(block)
        removed = store.truncate_before(blocks[2].block_number + 1)
        assert removed == 3
        assert len(store) == 0
        assert store.head() is None
        store.append(blocks[5])  # a fresh range may start anywhere
        assert store.head().block_number == blocks[5].block_number

    def test_byte_size_parity_across_backends(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        blocks = build_blocks()
        for block in blocks:
            store.append(block)
        assert store.byte_size() == sum(block.byte_size() for block in blocks)


class TestBackendParity:
    def test_memory_and_wal_hold_identical_content(self, tmp_path):
        blocks = build_blocks()
        memory = MemoryBlockStore()
        journal = JournalBlockStore(tmp_path / "parity.journal")
        for block in blocks:
            memory.append(block)
            journal.append(block)
        cut_at = blocks[4].block_number
        assert memory.truncate_before(cut_at) == journal.truncate_before(cut_at)
        assert [b.to_dict() for b in memory] == [b.to_dict() for b in journal]
        assert memory.byte_size() == journal.byte_size()
        # A reload from disk reproduces the same content.
        reloaded = JournalBlockStore(tmp_path / "parity.journal")
        assert [b.to_dict() for b in reloaded] == [b.to_dict() for b in memory]


class TestChainOnStores:
    """The chain façade maps marker shifts onto truncate_before."""

    @pytest.mark.parametrize("kind", STORE_KINDS)
    def test_marker_shift_truncates_the_store(self, kind, tmp_path):
        store = make_store(kind, tmp_path)
        chain = Blockchain(ChainConfig.paper_evaluation(), store=store)
        for i in range(9):
            chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
        assert chain.genesis_marker > 0
        assert len(store) == chain.length
        assert next(iter(store)).block_number == chain.genesis_marker
        assert store.head().block_number == chain.head.block_number

    def test_wal_compaction_after_marker_shifts_reclaims_space(self, tmp_path):
        store = JournalBlockStore(tmp_path / "chain.journal")
        chain = Blockchain(ChainConfig.paper_evaluation(), store=store)
        for i in range(12):
            chain.add_entry_block({"D": f"login {i}", "K": "A", "S": "s"}, "A")
        assert chain.deleted_block_count > 0
        grown = store.file_size()
        saved = store.compact()
        assert saved > 0
        assert store.file_size() < grown
        # Compaction must not lose living blocks: a restart resumes the
        # identical chain and keeps sealing.
        restarted = Blockchain(
            ChainConfig.paper_evaluation(), store=JournalBlockStore(tmp_path / "chain.journal")
        )
        assert restarted.head.block_hash == chain.head.block_hash
        assert restarted.statistics()["byte_size"] == chain.statistics()["byte_size"]
        restarted.add_entry_block({"D": "after restart", "K": "A", "S": "s"}, "A")
        restarted.validate()

    def test_restart_preserves_pending_deletions(self, tmp_path):
        """An approved deletion that is still pending when the node restarts
        must keep its mark and execute at the next summarisation cycle."""
        store = JournalBlockStore(tmp_path / "pending.journal")
        chain = Blockchain(ChainConfig.paper_evaluation(), store=store)
        block = chain.add_entry_block({"D": "personal data", "K": "A", "S": "sig_A"}, "A")
        reference = EntryReference(block.block_number, 1)
        decision = chain.request_deletion(reference, "A")
        chain.seal_block()
        assert decision.is_approved
        assert chain.find_entry(reference) is not None  # delayed, not yet executed

        restarted = Blockchain(
            ChainConfig.paper_evaluation(),
            store=JournalBlockStore(tmp_path / "pending.journal"),
        )
        assert restarted.is_marked_for_deletion(reference)
        for i in range(12):
            restarted.add_entry_block({"D": f"fill {i}", "K": "B", "S": "sig_B"}, "B")
        assert restarted.find_entry(reference) is None
        assert restarted.registry.executed_count >= 1

    def test_reload_after_full_truncation_accepts_new_blocks(self, tmp_path):
        """A journal whose trailing truncate record emptied the store must
        reload into a usable (appendable) state."""
        store = JournalBlockStore(tmp_path / "emptied.journal")
        blocks = build_blocks()
        for block in blocks[:3]:
            store.append(block)
        store.truncate_before(blocks[2].block_number + 1)
        reloaded = JournalBlockStore(tmp_path / "emptied.journal")
        assert len(reloaded) == 0
        assert reloaded.head() is None
        reloaded.append(blocks[0])
        assert reloaded.head().block_number == blocks[0].block_number

    def test_truncate_at_exactly_head_plus_one_survives_two_reloads(self, tmp_path):
        """The "emptied store accepts a fresh range" comment in ``wal.py``
        is load-bearing twice: once live (``truncate_before`` at exactly
        ``head + 1`` clears the contiguity anchor) and once in ``_load``,
        which must mirror it for a truncate record sitting *mid-journal*.
        Empty the store at ``head + 1``, reopen, start a fresh range at an
        unrelated number, then reopen again — the second reload replays
        [appends, truncate-to-empty, fresh appends] from one file and must
        land in the identical usable state.
        """
        path = tmp_path / "midfile.journal"
        blocks = build_blocks()
        store = JournalBlockStore(path)
        for block in blocks[:4]:
            store.append(block)
        head = store.head().block_number
        assert store.truncate_before(head + 1) == 4
        assert len(store) == 0 and store.head() is None

        # First reload: the truncate record is the journal's tail.
        reopened = JournalBlockStore(path)
        assert len(reopened) == 0 and reopened.head() is None
        # A fresh range may start anywhere — here past a gap from the old
        # head, the shape a marker shift to a future number produces.
        for block in blocks[5:7]:
            reopened.append(block)
        assert reopened.head().block_number == blocks[6].block_number

        # Second reload: the truncate record now sits mid-journal and _load
        # must mirror the live semantics to accept the fresh range after it.
        final = JournalBlockStore(path)
        assert len(final) == 2
        assert [b.block_number for b in final] == [
            blocks[5].block_number, blocks[6].block_number
        ]
        assert final.head().block_hash == blocks[6].block_hash
        # The reloaded store is fully usable: contiguous appends continue,
        # non-contiguous ones are still rejected.
        final.append(blocks[7])
        assert final.head().block_number == blocks[7].block_number
        with pytest.raises(StorageError):
            final.append(blocks[0])

    def test_restart_resumes_counters_and_lookups(self, tmp_path):
        store = JournalBlockStore(tmp_path / "resume.journal")
        chain = Blockchain(ChainConfig.paper_evaluation(), store=store)
        block = chain.add_entry_block({"D": "keep me", "K": "A", "S": "s"}, "A")
        reference = EntryReference(block.block_number, 1)
        for i in range(4):
            chain.add_entry_block({"D": f"fill {i}", "K": "A", "S": "s"}, "A")
        restarted = Blockchain(
            ChainConfig.paper_evaluation(), store=JournalBlockStore(tmp_path / "resume.journal")
        )
        assert restarted.total_blocks_created == chain.total_blocks_created
        assert restarted.deleted_block_count == chain.deleted_block_count
        assert restarted.genesis_marker == chain.genesis_marker
        located = restarted.find_entry(reference)
        assert located is not None
        assert located[1].data["D"] == "keep me"
        restarted.verify_index()


class TestJournalCrashPointsByEnumeration:
    """ROADMAP item 3(d): a torn or bit-rotted journal tail reopens on a chain
    that validates or fails typed — at every byte offset, not at examples."""

    CONFIG = ChainConfig.paper_evaluation()

    @pytest.fixture
    def journal(self, tmp_path, monkeypatch):
        """The 40-entry ``paper_evaluation`` journal: 70 records whose last six
        are a 10 kB summary block, a truncation marker and four more blocks."""
        chain = Blockchain(self.CONFIG, store=JournalBlockStore(tmp_path / "fixed.journal"))
        for i in range(40):
            chain.add_entry_block({"D": f"login {i}", "K": "A", "S": "s"}, "A")
        # Every reopening re-reads the same untouched records in front of the
        # damaged one; decode each distinct line once.  A failing decode is
        # not cached, and a damaged line is a distinct line.
        monkeypatch.setattr(wal, "_decode_record", functools.lru_cache(None)(wal._decode_record))
        return (tmp_path / "fixed.journal").read_bytes()

    @classmethod
    def reopen(cls, path, content):
        path.write_bytes(content)
        try:
            chain = Blockchain(cls.CONFIG, store=JournalBlockStore(path))
        except SelectiveDeletionError as error:
            return type(error).__name__
        chain.validate()
        return "valid"

    def test_truncation_at_every_byte_of_the_last_three_records(self, journal, tmp_path):
        records = journal.splitlines(keepends=True)
        first = len(journal) - sum(len(record) for record in records[-3:])
        outcomes = Counter(
            self.reopen(tmp_path / "torn.journal", journal[:cut]) for cut in range(first, len(journal))
        )
        # A cut on a record boundary, or one that only loses the newline,
        # leaves a valid prefix; every cut inside a record is a torn write.
        assert outcomes == {"valid": 6, "StorageError": len(journal) - first - 6}

    def test_one_flipped_bit_at_every_byte_of_the_last_six_records(self, journal, tmp_path):
        records = journal.splitlines(keepends=True)
        first = len(journal) - sum(len(record) for record in records[-6:])
        damaged = bytearray(journal)
        outcomes = set()
        for offset in range(first, len(journal)):
            damaged[offset] ^= 0x01
            outcomes.add(self.reopen(tmp_path / "rot.journal", bytes(damaged)))
            damaged[offset] ^= 0x01
        # ``reopen`` lets anything untyped escape (at the parent: 965 bare
        # ``KeyError``s, 184 bare ``ValueError``s); a flip inside an optional
        # key's name or in the trailing newline is what still opens valid.
        assert outcomes == {"valid", "StorageError", "ChainIntegrityError", "SchemaError"}
