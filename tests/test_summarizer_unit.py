"""Direct unit tests of the summarizer (without going through the chain façade)."""

import hashlib

import pytest

from repro.core import (
    Blockchain,
    ChainConfig,
    EntryReference,
    LengthUnit,
    RedundancyPolicy,
    RetentionPolicy,
    ShrinkStrategy,
    SummaryMode,
)
from repro.core.block import BlockType
from repro.core.deletion import DeletionRegistry, build_deletion_request
from repro.core.entry import Entry
from repro.core.summarizer import Summarizer
from repro.crypto.merkle import MerkleTree


def grow_chain(entries, config=None):
    chain = Blockchain(config or ChainConfig(sequence_length=3))
    for i in range(entries):
        chain.add_entry_block({"D": f"event {i}", "K": "A", "S": "sig_A"}, "A")
    return chain


class TestBuildSummaryBlock:
    def test_summary_block_fields(self):
        chain = grow_chain(4)
        summarizer = Summarizer(chain.config)
        result = summarizer.build_summary_block(
            sequences=chain.sequences(),
            previous_block=chain.head,
            next_block_number=chain.next_block_number,
            registry=DeletionRegistry(),
            current_time=100,
        )
        block = result.block
        assert block.block_type is BlockType.SUMMARY
        assert block.timestamp == chain.head.timestamp
        assert block.previous_hash == chain.head.block_hash
        assert block.block_number == chain.next_block_number

    def test_no_expiry_without_limit(self):
        chain = grow_chain(10)  # default config: no retention limit
        summarizer = Summarizer(chain.config)
        result = summarizer.build_summary_block(
            sequences=chain.sequences(),
            previous_block=chain.head,
            next_block_number=chain.next_block_number,
            registry=DeletionRegistry(),
            current_time=0,
        )
        assert result.expired_sequences == []
        assert result.new_marker is None
        assert result.block.entry_count == 0

    def test_deletion_marks_respected_in_collect(self):
        chain = grow_chain(4)
        registry = DeletionRegistry()
        request = build_deletion_request(EntryReference(1, 1), author="A", signature="s")
        registry.record_request(request, approved=True)
        summarizer = Summarizer(chain.config)
        carried, dropped = summarizer.collect_entries(
            chain.sequences()[:1], registry, current_time=0, current_block=99
        )
        dropped_origins = {(d.block_number, d.entry.entry_number) for d in dropped}
        assert (1, 1) in dropped_origins
        assert all(entry.origin_block_number != 1 for entry in carried)

    def test_summary_result_marker_matches_last_expired(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=1),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
        )
        chain = grow_chain(6, config=ChainConfig(sequence_length=3))
        summarizer = Summarizer(config)
        result = summarizer.build_summary_block(
            sequences=chain.sequences(),
            previous_block=chain.head,
            next_block_number=chain.next_block_number,
            registry=DeletionRegistry(),
            current_time=0,
        )
        assert result.shifted_marker
        assert result.new_marker == result.expired_sequences[-1].last_block_number + 1
        assert result.block.merged_sequences == [view.index for view in result.expired_sequences]


class TestRedundancyBuilding:
    def test_merkle_root_matches_sequence(self):
        config = ChainConfig(sequence_length=3, redundancy=RedundancyPolicy.MIDDLE_MERKLE_ROOT)
        chain = grow_chain(10, config=config)
        summarizer = Summarizer(config)
        sequences = [view for view in chain.sequences() if view.is_complete]
        records = summarizer.build_redundancy(sequences, [])
        assert len(records) == 1
        record = records[0]
        target = next(view for view in sequences if view.index == record.sequence_index)
        expected_root = MerkleTree([block.to_dict() for block in target.blocks]).root
        assert record.merkle_root == expected_root

    def test_full_copy_redundancy_contains_entries(self):
        config = ChainConfig(sequence_length=3, redundancy=RedundancyPolicy.MIDDLE_FULL_COPY)
        chain = grow_chain(10, config=config)
        summarizer = Summarizer(config)
        sequences = [view for view in chain.sequences() if view.is_complete]
        records = summarizer.build_redundancy(sequences, [])
        assert records and records[0].entries
        assert all(entry.is_copy for entry in records[0].entries)

    def test_no_redundancy_policy_returns_nothing(self):
        config = ChainConfig(sequence_length=3, redundancy=RedundancyPolicy.NONE)
        chain = grow_chain(6, config=config)
        summarizer = Summarizer(config)
        assert summarizer.build_redundancy(chain.sequences(), []) == []

    def test_single_sequence_falls_back_to_first(self):
        config = ChainConfig(sequence_length=3, redundancy=RedundancyPolicy.MIDDLE_MERKLE_ROOT)
        chain = grow_chain(2, config=config)
        summarizer = Summarizer(config)
        completed = [view for view in chain.sequences() if view.is_complete]
        records = summarizer.build_redundancy(completed, [])
        assert len(records) == (1 if completed else 0)


class TestMerkleReferenceMode:
    def test_reference_entries_count_matches_retained(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=1),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            summary_mode=SummaryMode.MERKLE_REFERENCE,
        )
        chain = grow_chain(6, config=ChainConfig(sequence_length=3))
        registry = DeletionRegistry()
        request = build_deletion_request(EntryReference(1, 1), author="A", signature="s")
        registry.record_request(request, approved=True)
        summarizer = Summarizer(config)
        result = summarizer.build_summary_block(
            sequences=chain.sequences(),
            previous_block=chain.head,
            next_block_number=chain.next_block_number,
            registry=registry,
            current_time=0,
        )
        assert result.block.entry_count == 0
        assert result.block.summary_references
        total_referenced = sum(ref["entry_count"] for ref in result.block.summary_references)
        assert total_referenced == len(result.carried_entries)
        # The deleted entry is neither carried nor counted in the references.
        assert all(
            entry.origin_block_number != 1 or entry.origin_entry_number != 1
            for entry in result.carried_entries
        )


class TestSummaryCycleCost:
    """One summary cycle pays each carried entry's serialisation once.

    Counted by wrapping the functions, not by a clock: the summary block's
    content is composed once (hash and size both derive from it), the
    deletion check keys the registry on a bare tuple, and every appended
    block costs exactly one SHA-256.
    """

    def test_carried_entries_are_serialised_once_per_cycle(self, monkeypatch):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
        )
        chain = Blockchain(config)
        for i in range(201):
            chain.add_entry({"D": f"event {i}", "K": "A", "S": "sig_A"}, "A")
        chain.seal_block()  # block 1: the entries summary 8 will carry
        chain.request_deletion(EntryReference(1, 1), "A")
        while chain.next_block_number < 7:
            chain.seal_block()

        calls = {"entry_json": 0, "references_in_collect": 0, "sha256": 0}
        in_collect = [False]
        entry_json = Entry.__canonical_json__
        reference_init = EntryReference.__init__
        collect = Summarizer.collect_entries
        sha256 = hashlib.sha256

        def counting_entry_json(entry):
            calls["entry_json"] += 1
            return entry_json(entry)

        def counting_reference_init(reference, *args, **kwargs):
            calls["references_in_collect"] += in_collect[0]
            reference_init(reference, *args, **kwargs)

        def flagged_collect(*args, **kwargs):
            in_collect[0] = True
            try:
                return collect(*args, **kwargs)
            finally:
                in_collect[0] = False

        def counting_sha256(*args, **kwargs):
            calls["sha256"] += 1
            return sha256(*args, **kwargs)

        monkeypatch.setattr(Entry, "__canonical_json__", counting_entry_json)
        monkeypatch.setattr(EntryReference, "__init__", counting_reference_init)
        monkeypatch.setattr(Summarizer, "collect_entries", flagged_collect)
        monkeypatch.setattr(hashlib, "sha256", counting_sha256)
        sealed = chain.seal_block()  # block 7, then summary 8 merges sequence 0

        summary = chain.head
        carried = summary.entry_count
        assert (sealed.block_number, summary.block_number) == (7, 8) and summary.is_summary
        assert carried >= 200 and chain.genesis_marker == 6
        assert calls["entry_json"] <= carried + sealed.entry_count
        assert calls["references_in_collect"] == 0
        assert calls["sha256"] == 2  # one per appended block
