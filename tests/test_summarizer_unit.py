"""Direct unit tests of the summarizer (without going through the chain façade)."""

import hashlib

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

    @staticmethod
    def _carrying_chain(stop=13, marks=()):
        """Block 1 holds 201 entries, ``marks`` are requested into block 2, and
        every other block up to ``stop`` holds one entry; summary 8 carries
        block 1's entries, summary 14 carries them on."""
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
        )
        chain = Blockchain(config)
        for i in range(201):
            chain.add_entry({"D": f"event {i}"}, "A")
        chain.seal_block()
        for target in marks:
            assert chain.request_deletion(target, "A").is_approved
        while chain.next_block_number < stop:
            chain.add_entry_block({"D": f"block {chain.next_block_number}"}, "A")
        return chain

    @staticmethod
    def _counted_cycle(monkeypatch, chain):
        """Seal the next block and count what the summary cycle it triggers calls."""
        from collections import Counter

        import repro.core.summarizer as summarizer_module
        from repro.core.index import ChainIndex

        calls = Counter()
        results = []
        inside = {"index": False, "carry": False}

        def counting(name, function, scope=None):
            def wrapper(*args, **kwargs):
                calls[name] += scope is None or inside[scope]
                return function(*args, **kwargs)

            return wrapper

        def flagged(scope, function):
            def wrapper(*args, **kwargs):
                inside[scope] = True
                try:
                    return function(*args, **kwargs)
                finally:
                    inside[scope] = False

            return wrapper

        def capturing(self, **kwargs):
            results.append(build(self, **kwargs))
            return results[-1]

        build = Summarizer.build_summary_block
        monkeypatch.setattr(summarizer_module, "entry_survives", counting("survives", summarizer_module.entry_survives))
        monkeypatch.setattr(Entry, "as_copy", counting("as_copy", Entry.as_copy))
        monkeypatch.setattr(Entry, "__canonical_json__", counting("entry_json", Entry.__canonical_json__))
        monkeypatch.setattr(Entry, "location_key", counting("key_in_index", Entry.location_key, "index"))
        monkeypatch.setattr(EntryReference, "__init__", counting("references_in_carry", EntryReference.__init__, "carry"))
        monkeypatch.setattr(ChainIndex, "on_append", flagged("index", ChainIndex.on_append))
        monkeypatch.setattr(ChainIndex, "cut_before", flagged("index", ChainIndex.cut_before))
        monkeypatch.setattr(Summarizer, "_carry", flagged("carry", Summarizer._carry))
        monkeypatch.setattr(hashlib, "sha256", counting("sha256", hashlib.sha256))
        monkeypatch.setattr(Summarizer, "build_summary_block", capturing)
        sealed = chain.seal_block()
        (result,) = results
        assert chain.head is result.block
        merged_normal = sum(
            block.entry_count for view in result.expired_sequences for block in view.blocks if not block.is_summary
        )
        return sealed, result, merged_normal, calls

    def test_carried_entries_are_serialised_once_per_cycle(self, monkeypatch):
        chain = self._carrying_chain(stop=7, marks=[EntryReference(1, 1)])
        sealed, result, _, calls = self._counted_cycle(monkeypatch, chain)
        carried = result.block.entry_count
        assert (sealed.block_number, result.block.block_number, chain.genesis_marker) == (7, 8, 6)
        assert carried >= 200
        assert calls["entry_json"] <= carried + sealed.entry_count
        assert calls["references_in_carry"] == 0  # the deletion check keys the registry on a bare tuple
        assert calls["sha256"] == 2  # one per appended block

    def test_a_cycle_that_drops_nothing_pays_only_the_merged_normal_blocks(self, monkeypatch):
        sealed, result, merged_normal, calls = self._counted_cycle(monkeypatch, self._carrying_chain())
        assert (sealed.block_number, result.block.block_number, merged_normal) == (13, 14, 4)
        assert result.block.entry_count >= 200 and result.dropped_entries == []
        assert calls["survives"] == calls["as_copy"] == merged_normal
        assert calls["entry_json"] == merged_normal + sealed.entry_count
        assert calls["key_in_index"] == calls["references_in_carry"] == 0
        assert calls["sha256"] == 2  # one per appended block

    def test_a_cycle_that_drops_marked_entries_drops_exactly_those(self, monkeypatch):
        chain = self._carrying_chain()
        targets = [EntryReference(1, number) for number in (5, 50, 150)]
        for target in targets:
            assert chain.request_deletion(target, "A").is_approved  # sealed into block 13
        sealed, result, merged_normal, calls = self._counted_cycle(monkeypatch, chain)
        assert (sealed.block_number, result.block.block_number, merged_normal) == (13, 14, 4)
        assert [(d.block_number, d.entry.reference_in(d.block_number), d.reason) for d in result.dropped_entries] == [
            (8, target, "entry is marked for deletion") for target in targets
        ]
        assert calls["survives"] == merged_normal + len(targets)
        assert calls["as_copy"] == merged_normal
        assert calls["entry_json"] == merged_normal + sealed.entry_count
        assert calls["key_in_index"] == calls["references_in_carry"] == 0
        assert calls["sha256"] == 2
