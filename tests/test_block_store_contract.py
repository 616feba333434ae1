"""Conformance suite for the BlockStore protocol.

Every storage backend the chain façade can run on must satisfy the same
contract: ordered contiguous appends, O(1) addressing by block number,
prefix truncation (what a genesis-marker shift maps to), ascending
iteration and byte-size accounting.  The suite is parametrized over the
in-memory store and the write-ahead journal, and additionally checks the
journal's compaction — physical space reclamation after marker shifts.
"""

import copy
import json
import shutil
from collections import Counter
from pathlib import Path

import pytest

from repro.core import Blockchain, ChainConfig, Entry, EntryReference, EventType
from repro.core.block import Block
from repro.core.errors import ChainIntegrityError, SelectiveDeletionError, StorageError
from repro.crypto.hashing import canonical_json
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
    def journal(self, tmp_path):
        """The 40-entry ``paper_evaluation`` journal: 70 records whose last six
        are a summary block that holds the entries it carries over from the
        previous summary by a run, a truncation marker and four more blocks."""
        chain = Blockchain(self.CONFIG, store=JournalBlockStore(tmp_path / "fixed.journal"))
        for i in range(40):
            chain.add_entry_block({"D": f"login {i}", "K": "A", "S": "s"}, "A")
        content = (tmp_path / "fixed.journal").read_bytes()
        tail = [json.loads(line) for line in content.splitlines()[-6:]]
        summary = next(
            r["block"] for r in tail if r["kind"] == "block" and r["block"]["header"]["block_type"] == "summary"
        )
        assert any(isinstance(item, list) for item in summary["entries"])
        return content

    @classmethod
    def reopen(cls, path, content):
        path.write_bytes(content)
        try:
            chain = Blockchain(cls.CONFIG, store=JournalBlockStore(path))
        except SelectiveDeletionError as error:
            return type(error).__name__
        chain.validate()
        return "valid"

    @classmethod
    def tail_reopener(cls, tmp_path, prefix):
        """``reopen`` of ``prefix + tail`` for any tail, replaying only the tail.

        A record's runs resolve against the blocks stored before it, so a
        line is not decoded on its own; instead the untouched prefix is
        loaded once, and every call replays the tail on a copy of that state
        — what a full reopening computes after reading the prefix.
        """
        (tmp_path / "prefix.journal").write_bytes(prefix)
        loaded = JournalBlockStore(tmp_path / "prefix.journal")

        def reopen(tail):
            store = copy.copy(loaded)
            store._blocks = dict(loaded._blocks)
            store.path = tmp_path / "tail.journal"
            store.path.write_bytes(tail)
            try:
                store._load()
                chain = Blockchain(cls.CONFIG, store=store)
            except SelectiveDeletionError as error:
                return type(error).__name__
            chain.validate()
            return "valid"

        return reopen

    def test_truncation_at_every_byte_of_the_last_three_records(self, journal, tmp_path):
        records = journal.splitlines(keepends=True)
        first = len(journal) - sum(len(record) for record in records[-3:])
        reopen = self.tail_reopener(tmp_path, journal[:first])
        outcomes = Counter(reopen(journal[first:cut]) for cut in range(first, len(journal)))
        # A cut on a record boundary, or one that only loses the newline,
        # leaves a valid prefix; every cut inside a record is a torn write.
        assert outcomes == {"valid": 6, "StorageError": len(journal) - first - 6}
        # The shortcut must agree with a reopening from scratch.
        for cut in range(first, len(journal), 61):
            assert self.reopen(tmp_path / "torn.journal", journal[:cut]) == reopen(journal[first:cut])

    def test_one_flipped_bit_at_every_byte_of_the_last_six_records(self, journal, tmp_path):
        records = journal.splitlines(keepends=True)
        first = len(journal) - sum(len(record) for record in records[-6:])
        reopen = self.tail_reopener(tmp_path, journal[:first])
        damaged = bytearray(journal[first:])
        outcomes = set()
        for offset in range(len(damaged)):
            damaged[offset] ^= 0x01
            outcomes.add(reopen(bytes(damaged)))
            if offset % 61 == 0:
                assert self.reopen(tmp_path / "rot.journal", journal[:first] + damaged) == reopen(bytes(damaged))
            damaged[offset] ^= 0x01
        # ``reopen`` lets anything untyped escape (at the parent: 965 bare
        # ``KeyError``s, 184 bare ``ValueError``s); a flip inside an optional
        # key's name or in the trailing newline is what still opens valid.
        assert outcomes == {"valid", "StorageError", "ChainIntegrityError", "SchemaError"}


def build_mixed_chain(store=None):
    """Ten single-entry ``paper_evaluation`` blocks and one executed deletion:
    carried copies, a summary re-carrying them and two truncation records."""
    chain = Blockchain(ChainConfig.paper_evaluation(), store=store)
    for i in range(10):
        block = chain.add_entry_block({"D": f"record {i}", "K": "A", "S": "sig_A"}, "A")
        if i == 1:
            erased = EntryReference(block.block_number, 1)
        if i == 5:
            assert chain.request_deletion(erased, "A").is_approved
            chain.seal_block()
    return chain


class TestJournalBodyReferences:
    """A block record inlines only the entry bodies the journal does not
    already hold: a slice a summary kept of a stored summary is a run
    ``[block, start, stop]``, which replay extends with that block's very
    ``Entry`` objects."""

    CONFIG = ChainConfig.paper_evaluation()

    @staticmethod
    def records(path):
        """The journal's records, each checked to be canonical JSON."""
        lines = path.read_bytes().splitlines()
        records = [json.loads(line) for line in lines]
        assert [canonical_json(record).encode() for record in records] == lines
        return records

    @classmethod
    def inline_bodies(cls, path, *, block_type=None):
        """Location key → how many inline bodies the journal holds for it
        (in records of ``block_type`` only, if given)."""
        counts = Counter()
        for record in cls.records(path):
            if record["kind"] == "block" and block_type in (None, record["block"]["header"]["block_type"]):
                number = record["block"]["header"]["block_number"]
                counts.update(
                    Entry.from_dict(item).location_key(number)
                    for item in record["block"]["entries"]
                    if isinstance(item, dict)
                )
        return counts

    @classmethod
    def entry_keys(cls, path):
        """Block number → its entries' location keys, runs resolved: (record,
        keys) for each block record, in journal order."""
        keys_of, replayed = {}, []
        for record in cls.records(path):
            if record["kind"] != "block":
                continue
            number = record["block"]["header"]["block_number"]
            keys = []
            for item in record["block"]["entries"]:
                if isinstance(item, list):
                    source, start, stop = item
                    keys.extend(keys_of[source][start:stop])
                else:
                    keys.append(Entry.from_dict(item).location_key(number))
            keys_of[number] = keys
            replayed.append((record["block"], keys))
        return keys_of, replayed

    @staticmethod
    def living_keys(store):
        return {entry.location_key(block.block_number) for block in store for entry in block.entries}

    @pytest.fixture(scope="class")
    def runs_journal(self, tmp_path_factory):
        """The bytes of a journal in which a summary dropped an erased entry
        from the middle of another, so its record holds two runs."""
        path = tmp_path_factory.mktemp("runs") / "runs.journal"
        chain = Blockchain(self.CONFIG, store=JournalBlockStore(path))
        for i in range(24):
            block = chain.add_entry_block({"D": f"login {i}", "K": "A", "S": "s"}, "A")
            if i == 3:
                erased = EntryReference(block.block_number, 1)
            if i == 12:
                assert chain.request_deletion(erased, "A").is_approved
        return path.read_bytes()

    @pytest.fixture
    def referencing_journal(self, tmp_path, runs_journal):
        """A copy of ``runs_journal``, its records, and the index of the last
        record with two runs."""
        path = tmp_path / "refs.journal"
        path.write_bytes(runs_journal)
        records = self.records(path)
        index = max(
            n for n, record in enumerate(records)
            if record["kind"] == "block"
            and sum(isinstance(item, list) for item in record["block"]["entries"]) >= 2
        )
        return path, records, index

    @staticmethod
    def rewrite(path, records):
        path.write_text("".join(json.dumps(record) + "\n" for record in records), encoding="utf-8")

    @staticmethod
    def first_run(entries):
        return next(n for n, item in enumerate(entries) if isinstance(item, list))

    def test_run_from_an_unknown_block_is_a_storage_error(self, referencing_journal):
        path, records, index = referencing_journal
        entries = records[index]["block"]["entries"]
        entries[self.first_run(entries)][0] = 9999
        self.rewrite(path, records)
        with pytest.raises(StorageError, match=f"corrupt journal line {index + 1}: KeyError"):
            JournalBlockStore(path)

    #: Each malformed run built from a valid ``[source, start, stop]`` run
    #: whose source holds ``length`` entries.  ``float(source)`` looks up the
    #: valid source and ``True`` looks up block 1, so only the reader's
    #: ``int`` check turns them, and the float stop, into a ``ValueError``.
    MALFORMED_RUNS = {
        "one part": lambda source, start, stop, length: [source],
        "two parts": lambda source, start, stop, length: [source, start],
        "four parts": lambda source, start, stop, length: [source, start, stop, stop],
        "string source": lambda source, start, stop, length: ["a", start, stop],
        "float source": lambda source, start, stop, length: [float(source), start, stop],
        "bool source": lambda source, start, stop, length: [True, start, stop],
        "null source": lambda source, start, stop, length: [None, start, stop],
        "nested source": lambda source, start, stop, length: [[source], start, stop],
        "float stop": lambda source, start, stop, length: [source, start, float(stop)],
        "empty": lambda source, start, stop, length: [source, start, start],
        "reversed": lambda source, start, stop, length: [source, stop, start],
        "past the end": lambda source, start, stop, length: [source, start, length + 1],
        "negative start": lambda source, start, stop, length: [source, -1, stop],
    }

    @pytest.mark.parametrize("run", sorted(MALFORMED_RUNS))
    def test_malformed_run_is_a_storage_error(self, referencing_journal, run):
        path, records, index = referencing_journal
        entries = records[index]["block"]["entries"]
        position = self.first_run(entries)
        source, start, stop = entries[position]
        length = len(self.entry_keys(path)[0][source])
        entries[position] = self.MALFORMED_RUNS[run](source, start, stop, length)
        self.rewrite(path, records)
        with pytest.raises(StorageError, match=f"corrupt journal line {index + 1}: ValueError"):
            JournalBlockStore(path)

    def test_swapped_runs_fail_the_hash_check(self, referencing_journal):
        path, records, index = referencing_journal
        entries = records[index]["block"]["entries"]
        first, second = [n for n, item in enumerate(entries) if isinstance(item, list)][:2]
        entries[first], entries[second] = entries[second], entries[first]
        self.rewrite(path, records)
        with pytest.raises(ChainIntegrityError, match="does not match its content"):
            JournalBlockStore(path)

    def test_a_run_is_written_only_over_the_summarys_own_entries(self, tmp_path):
        """A summary appended where the stored block under a run's source
        number holds other entries is written inline, so the file reopens."""
        appended = {}
        chain = Blockchain(self.CONFIG)
        chain.bus.subscribe(
            lambda event: appended.setdefault(event.block_number, event.payload["block"]),
            types=(EventType.BLOCK_APPENDED,),
        )
        for i in range(12):
            chain.add_entry_block({"D": f"login {i}", "K": "A", "S": "s"}, "A")
        summary = next(b for b in appended.values() if b._carry and any(run[0] is not None for run in b._carry.runs))
        source_number = next(run[0] for run in summary._carry.runs if run[0] is not None)
        store = JournalBlockStore(tmp_path / "other.journal")
        for number in range(source_number, summary.block_number):
            block = appended[number]
            if number == source_number:
                block = Block(block.block_number, block.timestamp, block.previous_hash, block_type=block.block_type,
                              entries=[Entry.from_dict({**e.to_dict(), "data": {"D": "other"}}) for e in block.entries])
            store.append(block)
        store.append(summary)
        assert not any(isinstance(item, list) for item in self.records(store.path)[-1]["block"]["entries"])
        assert JournalBlockStore(store.path).head().block_hash == summary.block_hash

    def test_a_journal_of_entry_references_fails_typed(self, tmp_path):
        """``fixtures/body_references.journal`` is :func:`build_mixed_chain`
        as the journal wrote it with ``[origin_block, origin_entry]``
        references in place of runs: no longer read, never a wrong chain."""
        path = tmp_path / "references.journal"
        shutil.copy(Path(__file__).parent / "fixtures" / "body_references.journal", path)
        line = next(
            n for n, record in enumerate(self.records(path), start=1)
            if record["kind"] == "block" and any(isinstance(item, list) for item in record["block"]["entries"])
        )
        with pytest.raises(StorageError, match=f"corrupt journal line {line}: ValueError"):
            JournalBlockStore(path)

    def test_bodies_are_written_at_most_twice_and_once_after_compaction(self, tmp_path):
        """Clock-free cost guard: a summary record does not rewrite the living set."""
        store = JournalBlockStore(tmp_path / "guard.journal")
        chain = Blockchain(self.CONFIG, store=store)
        for i in range(200):
            chain.add_entry_block({"D": f"login {i}", "K": "A", "S": "s"}, "A")
        # An entry's original record and its first copy, which carries the
        # origin coordinates; every later summary holds that copy by a run,
        # so no summary record inlines a carried entry.
        assert max(self.inline_bodies(store.path).values()) == 2
        assert max(self.inline_bodies(store.path, block_type="summary").values()) == 1
        assert store.file_size() <= 12 * chain.statistics()["byte_size"]
        store.compact()
        assert self.inline_bodies(store.path) == {key: 1 for key in self.living_keys(store)}
        reopened = Blockchain(self.CONFIG, store=JournalBlockStore(store.path))
        assert reopened.head.block_hash == chain.head.block_hash

    def test_each_appended_block_encodes_its_fields_once(self, tmp_path, monkeypatch):
        """The journal record reuses the fields text the block's hash encoded."""
        encodes = Counter()
        hashable_content = Block._hashable_content

        def counted(block):
            encodes[block.block_number] += 1
            return hashable_content(block)

        monkeypatch.setattr(Block, "_hashable_content", counted)
        chain = Blockchain(self.CONFIG, store=JournalBlockStore(tmp_path / "once.journal"))
        for step in range(40):
            chain.add_entry_block({"D": f"login {step}", "K": "A", "S": "s"}, "A")
        assert chain.next_block_number == 61
        assert encodes == Counter(range(61))

    def drive_summaries_with_erasures(self, path):
        """200 blocks of one author, every third one erased later."""
        chain = Blockchain(self.CONFIG, store=JournalBlockStore(path))
        issued = []
        while chain.next_block_number < 200:
            if issued and chain.next_block_number % 4 == 0:
                chain.request_deletion(issued.pop(0), "A")
            block = chain.add_entry_block({"D": f"login {chain.next_block_number}", "K": "A", "S": "s"}, "A")
            if block.block_number % 3 == 0:
                issued.append(EntryReference(block.block_number, 1))
        assert chain.statistics()["deletions"]["executed"] > 0
        return chain

    @classmethod
    def summary_record_costs(cls, path):
        """Assert that each summary record in the journal holds at most
        ``dropped + 1`` runs per merged summary and inline bodies only for
        entries no earlier record of the file carried; returns how many
        summary records merged one, and the most runs over one source."""
        keys_of, replayed = cls.entry_keys(path)
        carried_before, merging, split = set(), 0, 0
        for block, keys in replayed:
            if block["header"]["block_type"] != "summary":
                continue
            taken = Counter()
            runs = Counter()
            for item in block["entries"]:
                if isinstance(item, list):
                    runs[item[0]] += 1
                    taken[item[0]] += item[2] - item[1]
            for source, count in runs.items():
                assert count <= len(keys_of[source]) - taken[source] + 1, (block["header"], source)
                split = max(split, count)
            inline = [
                Entry.from_dict(item).location_key(block["header"]["block_number"])
                for item in block["entries"] if isinstance(item, dict)
            ]
            assert not carried_before.intersection(inline), block["header"]
            carried_before.update(keys)
            merging += bool(runs)
        return merging, split

    def test_a_summary_record_costs_what_changed(self, tmp_path, monkeypatch):
        """Clock-free O(change) guard: a summary record holds at most
        ``dropped + 1`` runs per merged summary, and inline bodies only for
        its new copies — over a file that is never rewritten, since a
        rewrite inlines its first summary again."""
        monkeypatch.setattr(wal, "REWRITE_FLOOR", 1 << 62)
        store = self.drive_summaries_with_erasures(tmp_path / "change.journal").store
        assert store.counters["rewrites"] == 0
        merging, split = self.summary_record_costs(store.path)
        assert merging >= 30 and split >= 2  # erasures cut merged summaries into several runs

    def test_a_summary_record_costs_what_changed_in_every_rewrite_epoch(self, tmp_path, monkeypatch):
        """The same guard over each file the journal was between rewrites:
        a rewrite starts the file over with its first summary inline, and
        every summary appended after it again costs only what changed."""
        epochs = []
        replace_durably = wal.replace_durably

        def keep_epoch(path, *args, **kwargs):
            epochs.append(path.read_bytes())
            return replace_durably(path, *args, **kwargs)

        monkeypatch.setattr(wal, "REWRITE_FLOOR", 0)
        monkeypatch.setattr(wal, "replace_durably", keep_epoch)
        store = self.drive_summaries_with_erasures(tmp_path / "change.journal").store
        epochs.append(store.path.read_bytes())
        assert len(epochs) == store.counters["rewrites"] + 1 >= 5
        merging = split = 0
        for content in epochs:
            (tmp_path / "epoch.journal").write_bytes(content)
            merged, most = self.summary_record_costs(tmp_path / "epoch.journal")
            merging, split = merging + merged, max(split, most)
        assert merging >= 30 and split >= 2

    def test_erased_payload_leaves_the_journal_on_compaction(self, tmp_path):
        store = JournalBlockStore(tmp_path / "erasure.journal")
        chain = Blockchain(self.CONFIG, store=store)
        executed = []
        chain.bus.subscribe(
            lambda event: executed.append(EntryReference.from_dict(event.payload["reference"])),
            types=(EventType.DELETION_EXECUTED,),
        )

        def erase(reference):
            assert chain.request_deletion(reference, "A").is_approved
            chain.seal_block()
            while reference not in executed or chain.genesis_marker <= reference.block_number:
                chain.add_entry_block({"D": "fill", "K": "A", "S": "s"}, "A")

        early = EntryReference(chain.add_entry_block({"D": "early-7f3a", "K": "A", "S": "s"}, "A").block_number, 1)
        late = EntryReference(chain.add_entry_block({"D": "late-c41d", "K": "A", "S": "s"}, "A").block_number, 1)
        erase(early)
        for _ in range(12):
            chain.add_entry_block({"D": "fill", "K": "A", "S": "s"}, "A")
        erase(late)

        # The summaries holding the late entry's copy: the first copy's
        # summary inline, every later one by a run over its predecessor.
        _, replayed = self.entry_keys(store.path)
        carriers = sum(
            1 for block, keys in replayed
            if block["header"]["block_type"] == "summary" and (late.block_number, late.entry_number) in keys
        )
        journal = store.path.read_bytes()
        assert journal.count(b"early-7f3a") == 1  # erased before any summary carried it
        assert carriers >= 4 and journal.count(b"late-c41d") == 2  # original and first copy
        store.compact()
        journal = store.path.read_bytes()
        assert b"early-7f3a" not in journal and b"late-c41d" not in journal
        reopened = Blockchain(self.CONFIG, store=JournalBlockStore(store.path))
        assert reopened.head.block_hash == chain.head.block_hash

    def test_inline_journal_reopens_and_compacts_into_references(self, tmp_path):
        """``fixtures/inline_bodies.journal`` is :func:`build_mixed_chain`
        as the journal wrote it before body references existed: every entry
        body inline, ``json.dumps`` separators."""
        path = tmp_path / "inline.journal"
        shutil.copy(Path(__file__).parent / "fixtures" / "inline_bodies.journal", path)
        assert b'"kind": "block"' in path.read_bytes()
        current = tmp_path / "current.journal"
        build_mixed_chain(JournalBlockStore(current))
        expected = Blockchain(self.CONFIG, store=JournalBlockStore(current))
        reopened = Blockchain(self.CONFIG, store=JournalBlockStore(path))
        assert reopened.head.block_hash == expected.head.block_hash == build_mixed_chain().head.block_hash
        assert reopened.statistics() == expected.statistics()

        reopened.store.compact()
        assert self.inline_bodies(path) == {key: 1 for key in self.living_keys(reopened.store)}
        compacted = len(path.read_bytes().splitlines())
        for i in range(6):
            reopened.add_entry_block({"D": f"after {i}", "K": "A", "S": "sig_A"}, "A")
        appended = [record for record in self.records(path)[compacted:] if record["kind"] == "block"]
        assert any(isinstance(item, list) for record in appended for item in record["block"]["entries"])
        final = Blockchain(self.CONFIG, store=JournalBlockStore(path))
        assert final.head.block_hash == reopened.head.block_hash
