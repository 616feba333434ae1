"""Tests for the storage backends and the Section III baseline systems."""

import errno
import io
import json
import os
import stat
from pathlib import Path

import pytest

from repro.baselines import (
    HardForkChain,
    ImmutableChain,
    LocalPruningNode,
    OffChainStore,
    RecordRef,
    RedactableChain,
)
from repro.core import Blockchain, ChainConfig
from repro.core.block import Block
from repro.baselines.base import EffortCounter, payload_size
from repro.baselines.chameleon_chain import RedactableBlock
from repro.core.errors import StorageError
from repro.crypto.hashing import canonical_json
from repro.storage.wal import replace_durably
from repro.storage import (
    JournalBlockStore,
    MemoryBlockStore,
    load_snapshot,
    save_snapshot,
)


class _TornWriter:
    """A text file handle whose first write stops half-way with ENOSPC."""

    def __init__(self, handle):
        self._handle = handle

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()

    def write(self, text):
        self._handle.write(text[: len(text) // 2])
        self._handle.flush()
        raise OSError(errno.ENOSPC, "no space left on device")

    def __getattr__(self, name):
        return getattr(self._handle, name)


def build_chain(entries=5, *, config=None):
    chain = Blockchain(config or ChainConfig.paper_evaluation())
    for i in range(entries):
        chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
    return chain


class TestMemoryStore:
    def test_append_get_iterate(self):
        chain = build_chain(2)
        store = MemoryBlockStore()
        for block in chain.blocks:
            store.append(block)
        assert len(store) == chain.length
        assert store.get(chain.blocks[1].block_number).block_hash == chain.blocks[1].block_hash
        assert [b.block_number for b in store] == [b.block_number for b in chain.blocks]
        assert store.head().block_number == chain.head.block_number
        assert store.byte_size() > 0

    def test_rejects_duplicates_and_gaps(self):
        chain = build_chain(1)
        store = MemoryBlockStore()
        store.append(chain.blocks[0])
        with pytest.raises(StorageError):
            store.append(chain.blocks[0])
        with pytest.raises(StorageError):
            store.append(chain.blocks[2])
        with pytest.raises(StorageError):
            store.get(99)

    def test_truncate_before(self):
        chain = build_chain(3)
        store = MemoryBlockStore()
        for block in chain.blocks:
            store.append(block)
        removed = store.truncate_before(chain.blocks[2].block_number)
        assert removed == 2
        assert len(store) == chain.length - 2


class TestJournalStore:
    def test_roundtrip_and_reload(self, tmp_path):
        chain = build_chain(3)
        path = tmp_path / "journal.log"
        store = JournalBlockStore(path)
        for block in chain.blocks:
            store.append(block)
        reloaded = JournalBlockStore(path)
        assert len(reloaded) == chain.length
        assert reloaded.get(chain.head.block_number).block_hash == chain.head.block_hash

    def test_truncate_and_compact_reclaims_space(self, tmp_path):
        chain = build_chain(6, config=ChainConfig(sequence_length=3))
        path = tmp_path / "journal.log"
        store = JournalBlockStore(path)
        for block in chain.blocks:
            store.append(block)
        size_before = store.file_size()
        removed = store.truncate_before(chain.blocks[4].block_number)
        assert removed == 4
        saved = store.compact()
        assert saved > 0
        assert store.file_size() < size_before
        reloaded = JournalBlockStore(path)
        assert len(reloaded) == len(store)

    def test_compact_fsyncs_the_rewrite_before_replacing_the_journal(self, tmp_path, monkeypatch):
        chain = build_chain(6, config=ChainConfig(sequence_length=3))
        store = JournalBlockStore(tmp_path / "journal.log")
        for block in chain.blocks:
            store.append(block)
        store.truncate_before(chain.blocks[4].block_number)

        calls = []
        real_fsync, real_replace = os.fsync, Path.replace

        def fsync(descriptor):
            kind = "directory" if stat.S_ISDIR(os.fstat(descriptor).st_mode) else "file"
            calls.append(f"fsync {kind}")
            real_fsync(descriptor)

        def replace(self, target):
            calls.append(f"replace {self.name} -> {Path(target).name}")
            return real_replace(self, target)

        monkeypatch.setattr(os, "fsync", fsync)
        monkeypatch.setattr(Path, "replace", replace)
        store.compact()
        assert calls == [
            "fsync file",
            "replace journal.log.compact -> journal.log",
            "fsync directory",
        ]

    def test_replace_durably_swaps_in_the_finished_file(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_text("old", encoding="utf-8")
        with replace_durably(target, ".next") as handle:
            handle.write("new")
            assert target.read_text(encoding="utf-8") == "old"
            assert (tmp_path / "state.json.next").exists()
        assert target.read_text(encoding="utf-8") == "new"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_replace_durably_keeps_the_old_file_when_the_writer_fails(self, tmp_path):
        target = tmp_path / "state.json"
        target.write_text("old", encoding="utf-8")
        with pytest.raises(RuntimeError):
            with replace_durably(target) as handle:
                handle.write("half")
                raise RuntimeError("writer failed")
        assert target.read_text(encoding="utf-8") == "old"
        assert sorted(tmp_path.iterdir()) == [target]

    def test_truncation_survives_reload_without_compaction(self, tmp_path):
        chain = build_chain(6, config=ChainConfig(sequence_length=3))
        path = tmp_path / "journal.log"
        store = JournalBlockStore(path)
        for block in chain.blocks:
            store.append(block)
        store.truncate_before(chain.blocks[3].block_number)
        reloaded = JournalBlockStore(path)
        assert len(reloaded) == len(store)
        with pytest.raises(StorageError):
            reloaded.get(chain.blocks[0].block_number)

    def test_corrupt_journal_detected(self, tmp_path):
        path = tmp_path / "journal.log"
        path.write_text("not json\n", encoding="utf-8")
        with pytest.raises(StorageError):
            JournalBlockStore(path)

    def test_gap_rejected(self, tmp_path):
        chain = build_chain(2)
        store = JournalBlockStore(tmp_path / "j.log")
        store.append(chain.blocks[0])
        with pytest.raises(StorageError):
            store.append(chain.blocks[3])


class TestJournalCommits:
    """One commit per chain step: the journal writes and fsyncs the step's
    records together, and a step returns only once they are on disk."""

    @pytest.fixture
    def fsyncs(self, monkeypatch):
        calls = []
        real_fsync = os.fsync

        def fsync(descriptor):
            calls.append(descriptor)
            real_fsync(descriptor)

        monkeypatch.setattr(os, "fsync", fsync)
        return calls

    @staticmethod
    def records(path, skip=0):
        """The kinds of the journal's records after the first ``skip``."""
        return [
            record["kind"] if record["kind"] == "truncate" else record["block"]["header"]["block_type"]
            for record in map(json.loads, path.read_bytes().splitlines()[skip:])
        ]

    @pytest.mark.parametrize("step", ["seal", "receive"])
    def test_each_step_is_one_fsync_even_with_a_summary_and_a_marker_shift(self, tmp_path, fsyncs, step):
        config = ChainConfig.paper_evaluation()
        path = tmp_path / "chain.journal"
        chain = Blockchain(config, store=JournalBlockStore(path))
        producer = chain if step == "seal" else Blockchain(config)
        written = []
        for i in range(40):
            lines, calls = len(self.records(path)), len(fsyncs)
            block = producer.add_entry_block({"D": f"login {i}", "K": "A", "S": "s"}, "A")
            if step == "receive":
                chain.receive_block(block)
            assert len(fsyncs) == calls + 1
            written.append(self.records(path, lines))
            assert JournalBlockStore(path).head().block_hash == chain.head.block_hash
        assert ["normal", "summary", "truncate"] in written

    def test_a_direct_write_is_durable_before_it_returns(self, tmp_path, fsyncs):
        path = tmp_path / "direct.journal"
        store = JournalBlockStore(path)
        blocks = build_chain(6, config=ChainConfig(sequence_length=3)).blocks
        for count, block in enumerate(blocks, start=1):
            store.append(block)
            assert len(fsyncs) == count
            assert JournalBlockStore(path).head().block_hash == block.block_hash
        store.truncate_before(blocks[4].block_number)
        assert len(fsyncs) == len(blocks) + 1
        assert len(JournalBlockStore(path)) == len(store)

    def test_nested_scopes_commit_once_when_the_outermost_closes(self, tmp_path, fsyncs):
        blocks = build_chain(6, config=ChainConfig(sequence_length=3)).blocks
        direct = JournalBlockStore(tmp_path / "direct.journal")
        for block in blocks:
            direct.append(block)
        direct.truncate_before(blocks[4].block_number)
        fsyncs.clear()
        store = JournalBlockStore(tmp_path / "scoped.journal")
        with store.commit_scope():
            with store.commit_scope():
                for block in blocks:
                    store.append(block)
            store.truncate_before(blocks[4].block_number)
            assert fsyncs == [] and store.file_size() == 0
            assert [b.block_hash for b in store] == [b.block_hash for b in direct]
        assert len(fsyncs) == 1
        assert store.path.read_bytes() == direct.path.read_bytes()

    def test_a_compaction_inside_a_scope_takes_the_buffered_records_with_it(self, tmp_path, fsyncs):
        blocks = build_chain(6, config=ChainConfig(sequence_length=3)).blocks
        store = JournalBlockStore(tmp_path / "chain.journal")
        with store.commit_scope():
            for block in blocks:
                store.append(block)
            store.compact()
        assert len(fsyncs) == 2  # the rewrite and its directory; nothing is left to commit
        assert [b.block_hash for b in JournalBlockStore(store.path)] == [b.block_hash for b in blocks]

    def test_a_memory_store_scope_is_one_shared_no_op(self):
        assert MemoryBlockStore().commit_scope() is MemoryBlockStore().commit_scope()

    @pytest.mark.parametrize("failure", ["torn write", "fsync"])
    def test_a_failed_commit_is_typed_and_refuses_writes_until_reopened(self, tmp_path, monkeypatch, failure):
        path = tmp_path / "chain.journal"
        config = ChainConfig(sequence_length=3)
        chain = Blockchain(config, store=JournalBlockStore(path))
        for i in range(4):
            chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
        committed, size = chain.head.block_hash, path.stat().st_size
        real_open = io.open

        def torn_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _TornWriter(handle) if "a" in mode else handle

        def failing_fsync(descriptor):
            raise OSError(errno.EIO, "input/output error")

        with monkeypatch.context() as patch:
            if failure == "torn write":
                patch.setattr(io, "open", torn_open)
            else:
                patch.setattr(os, "fsync", failing_fsync)
            with pytest.raises(StorageError, match="commit"):
                chain.add_entry_block({"D": "lost", "K": "A", "S": "s"}, "A")
        # The chain's memory is ahead of the file, which is cut back to the
        # last commit; the store refuses every write until it is reopened.
        assert chain.head.block_hash != committed
        assert path.stat().st_size == size
        store = chain.store
        head = store.head()
        after = Block(head.block_number + 1, head.timestamp, head.block_hash)
        for write in (lambda: store.append(after), lambda: store.truncate_before(head.block_number), store.compact):
            with pytest.raises(StorageError, match="refuses writes"):
                write()
        with pytest.raises(StorageError, match="refuses writes"):
            chain.add_entry_block({"D": "refused", "K": "A", "S": "s"}, "A")
        assert path.stat().st_size == size
        reopened = Blockchain(config, store=JournalBlockStore(path))
        assert reopened.head.block_hash == committed
        reopened.add_entry_block({"D": "after", "K": "A", "S": "s"}, "A")
        assert JournalBlockStore(path).head().block_hash == reopened.head.block_hash


class TestSnapshots:
    def test_save_and_load(self, tmp_path):
        chain = build_chain(4)
        path = tmp_path / "snap.json"
        written = save_snapshot(chain, path)
        assert written > 0
        restored = load_snapshot(path)
        assert restored.head.block_hash == chain.head.block_hash
        assert restored.genesis_marker == chain.genesis_marker

    def test_load_missing_or_corrupt(self, tmp_path):
        with pytest.raises(StorageError):
            load_snapshot(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        with pytest.raises(StorageError):
            load_snapshot(bad)

    def test_a_snapshot_write_failing_part_way_leaves_the_previous_one(
        self, tmp_path, monkeypatch
    ):
        saved = tmp_path / "chain.json"
        chain = build_chain(2)
        save_snapshot(chain, saved)
        head = chain.head.block_hash
        chain.add_entry_block({"D": "e9", "K": "A", "S": "s"}, "A")
        real_open = io.open

        def torn_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            return _TornWriter(handle) if "w" in mode else handle

        with monkeypatch.context() as patch:
            patch.setattr(io, "open", torn_open)
            with pytest.raises(OSError):
                save_snapshot(chain, saved)
        assert sorted(tmp_path.iterdir()) == [saved]
        assert load_snapshot(saved).head.block_hash == head


def record(i, subject="ALPHA"):
    return {"D": f"record {i} of {subject}", "K": subject, "S": f"sig_{subject}"}


class TestImmutableChain:
    def test_append_and_no_deletion(self):
        chain = ImmutableChain()
        refs = [chain.append_record(record(i), "ALPHA") for i in range(5)]
        assert chain.record_count() == 5
        assert chain.verify()
        outcome = chain.request_erasure(refs[2], "ALPHA")
        assert not outcome.accepted
        assert chain.record_retrievable(refs[2])
        assert chain.storage_bytes() > 0
        assert not chain.capabilities()["selective_deletion"]


class TestLocalPruning:
    def test_pruning_is_local_only(self):
        node = LocalPruningNode(keep_recent=2)
        refs = [node.append_record(record(i), "ALPHA") for i in range(6)]
        outcome = node.request_erasure(refs[0], "ALPHA")
        assert outcome.accepted and not outcome.globally_effective
        assert node.record_retrievable(refs[0])          # archival copy remains
        assert not node.locally_retrievable(refs[0])     # pruned locally
        assert node.storage_bytes() < node.archive_bytes()
        with pytest.raises(ValueError):
            LocalPruningNode(keep_recent=0)


class TestHardFork:
    def test_fork_removes_record_at_linear_cost(self):
        chain = HardForkChain()
        for i in range(10):
            chain.append_record(record(i), "ALPHA")
        outcome = chain.request_erasure(RecordRef(index=2), "ALPHA")
        assert outcome.accepted and outcome.globally_effective
        assert chain.record_count() == 9
        assert chain.verify()
        assert outcome.effort_units >= 7  # blocks after index 2 re-hashed
        assert not chain.record_exists(record(2), "ALPHA")
        assert chain.record_exists(record(3), "ALPHA")
        assert chain.total_effort == outcome.effort_units
        assert HardForkChain.rebuild_cost(100, 10) == 90

    def test_unknown_record(self):
        chain = HardForkChain()
        outcome = chain.request_erasure(RecordRef(index=5), "ALPHA")
        assert not outcome.accepted


class TestRedactableChain:
    def test_redaction_keeps_chain_valid(self):
        chain = RedactableChain()
        refs = [chain.append_record(record(i), "ALPHA") for i in range(5)]
        assert chain.verify()
        outcome = chain.request_erasure(refs[1], "ALPHA")
        assert outcome.accepted and outcome.globally_effective
        assert chain.verify()
        assert not chain.record_retrievable(refs[1])
        assert chain.record_retrievable(refs[2])
        assert chain.block_count == 5  # the chain never shrinks
        assert chain.capabilities()["requires_trapdoor_holder"]
        assert chain.total_effort >= RedactableChain.REDACTION_EFFORT

    def test_unknown_record(self):
        chain = RedactableChain()
        assert not chain.request_erasure(RecordRef(index=3), "X").accepted


class TestBaselineHelpers:
    def test_effort_counter_sums_charges_and_counts_operations(self):
        counter = EffortCounter()
        assert counter.charge(2.5) == 2.5
        assert counter.charge(4.0) == 4.0
        assert (counter.total, counter.operations) == (6.5, 2)

    def test_payload_size_is_the_canonical_json_length(self):
        data = {"K": "\u00c5SA", "D": "record 1"}
        assert payload_size(data) == len(canonical_json(data).encode("utf-8"))
        assert payload_size(dict(reversed(list(data.items())))) == payload_size(data)

    def test_a_redactable_header_binds_the_digest_not_the_content(self):
        block = RedactableBlock(
            index=1, previous_hash="aa", data=record(1), author="ALPHA", randomness=5, content_digest=99
        )
        redacted = RedactableBlock(
            index=1,
            previous_hash="aa",
            data={"redacted": True},
            author="ALPHA",
            randomness=17,
            content_digest=99,
            redacted=True,
        )
        assert redacted.header_hash() == block.header_hash()
        moved = RedactableBlock(
            index=1, previous_hash="aa", data=record(1), author="ALPHA", randomness=5, content_digest=98
        )
        assert moved.header_hash() != block.header_hash()


class TestOffChain:
    def test_payload_erasure_leaves_pointer(self):
        store = OffChainStore()
        refs = [store.append_record(record(i), "ALPHA") for i in range(4)]
        assert store.verify_payload(refs[0])
        on_chain_before = store.on_chain_bytes()
        outcome = store.request_erasure(refs[0], "ALPHA")
        assert outcome.accepted and outcome.globally_effective
        assert not store.record_retrievable(refs[0])
        assert store.on_chain_bytes() == on_chain_before  # pointer never shrinks
        assert not store.request_erasure(refs[0], "ALPHA").accepted  # idempotent failure
        assert not store.verify_payload(refs[0])
