"""Unit tests for sequences, retention decisions, summarisation and validation."""

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.block import Block, BlockType
from repro.core.deletion import DeletionRegistry, DeletionStatus, build_deletion_request
from repro.core.entry import Entry
from repro.core.errors import ChainIntegrityError, ConfigurationError, DeletionError
from repro.core.retention import (
    chain_exceeds_limit,
    entry_survives,
    needs_empty_block,
    select_sequences_to_expire,
)
from repro.core.sequence import (
    is_summary_slot,
    middle_sequence,
    partition_into_sequences,
    sequence_index_of,
)
from repro.core.validation import (
    deletion_is_effective,
    is_traceable_extension,
    validate_block_link,
    validate_chain,
    validate_entry_signature,
    verify_summary_determinism,
)


def build_chain(num_entries: int, *, config: ChainConfig | None = None) -> Blockchain:
    chain = Blockchain(config or ChainConfig.paper_evaluation())
    for i in range(num_entries):
        user = ["ALPHA", "BRAVO", "CHARLIE"][i % 3]
        chain.add_entry_block({"D": f"event {i}", "K": user, "S": f"sig_{user}"}, user)
    return chain


class TestSequenceHelpers:
    def test_summary_slot_positions(self):
        assert [n for n in range(10) if is_summary_slot(n, 3)] == [2, 5, 8]

    def test_sequence_index(self):
        assert sequence_index_of(0, 3) == 0
        assert sequence_index_of(5, 3) == 1
        assert sequence_index_of(6, 3) == 2

    def test_helpers_reject_bad_length(self):
        with pytest.raises(ConfigurationError):
            is_summary_slot(1, 1)
        with pytest.raises(ConfigurationError):
            sequence_index_of(1, 0)

    def test_partition_matches_block_numbers(self):
        chain = build_chain(4)
        views = partition_into_sequences(chain.blocks, 3)
        assert [view.index for view in views] == [0, 1, 2]
        assert views[0].first_block_number == 0
        assert views[0].last_block_number == 2
        assert views[0].is_complete
        assert not views[-1].is_complete or views[-1].last_block_number % 3 == 2

    def test_partition_after_marker_shift_stays_aligned(self):
        chain = build_chain(12)
        assert chain.genesis_marker > 0
        views = partition_into_sequences(chain.blocks, 3)
        for view in views[:-1]:
            assert view.is_complete
            assert view.length == 3

    def test_sequence_metrics(self):
        chain = build_chain(4)
        view = partition_into_sequences(chain.blocks, 3)[1]
        assert view.length == 3
        assert view.entry_count() >= 1
        assert view.byte_size() > 0
        assert view.time_span() >= 0
        assert len(view.merkle_root()) == 64
        assert "SequenceView" in repr(view)

    def test_middle_sequence_selection(self):
        def completed(chain):
            return [view for view in partition_into_sequences(chain.blocks, 3) if view.is_complete]

        chain = build_chain(2, config=ChainConfig(sequence_length=3))
        views = completed(chain)
        assert middle_sequence(views) is None or len(views) >= 2
        # Build a longer, non-shrinking chain to get several sequences.
        chain = build_chain(10, config=ChainConfig(sequence_length=3))
        views = completed(chain)
        picked = middle_sequence(views)
        assert picked is views[len(views) // 2]


class TestRetentionDecisions:
    def test_chain_exceeds_limit_units(self):
        blocks_policy = RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=5)
        assert chain_exceeds_limit(blocks_policy, block_count=6, sequence_count=0, time_span=0)
        assert not chain_exceeds_limit(blocks_policy, block_count=5, sequence_count=0, time_span=0)
        seq_policy = RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2)
        assert chain_exceeds_limit(seq_policy, block_count=0, sequence_count=3, time_span=0)
        time_policy = RetentionPolicy(unit=LengthUnit.TIME, max_length=10)
        assert chain_exceeds_limit(time_policy, block_count=0, sequence_count=0, time_span=11)

    def test_no_limit_never_exceeds(self):
        assert not chain_exceeds_limit(
            RetentionPolicy(), block_count=10**6, sequence_count=10**5, time_span=10**9
        )

    def test_select_nothing_when_single_sequence(self):
        chain = build_chain(1)
        selected = select_sequences_to_expire(ChainConfig.paper_evaluation(), chain.sequences())
        assert selected == []

    def test_select_respects_strategy(self):
        # Build a chain with several completed sequences and no auto-shrink.
        chain = build_chain(10, config=ChainConfig(sequence_length=3))
        sequences = chain.sequences()
        base = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
        )
        single = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.SINGLE_SEQUENCE,
        )
        all_old = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
        )
        assert len(select_sequences_to_expire(single, sequences)) == 1
        completed_old = sum(1 for view in sequences[:-1] if view.is_complete)
        assert len(select_sequences_to_expire(all_old, sequences)) == completed_old
        to_limit = select_sequences_to_expire(base, sequences)
        assert 1 <= len(to_limit) <= completed_old

    def test_minimum_summary_blocks_respected(self):
        chain = build_chain(10, config=ChainConfig(sequence_length=3))
        sequences = chain.sequences()
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(
                unit=LengthUnit.SEQUENCES, max_length=1, min_summary_blocks=3
            ),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
        )
        selected = select_sequences_to_expire(config, sequences)
        remaining_completed = sum(1 for view in sequences if view.is_complete) - len(selected)
        assert remaining_completed >= 3

    def test_min_length_blocks_respected(self):
        chain = build_chain(10, config=ChainConfig(sequence_length=3))
        sequences = chain.sequences()
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=6, min_length=6),
            shrink_strategy=ShrinkStrategy.TO_LIMIT,
        )
        selected = select_sequences_to_expire(config, sequences)
        remaining_blocks = sum(view.length for view in sequences) - sum(
            view.length for view in selected
        )
        assert remaining_blocks >= 6

    def test_entry_survival_rules(self):
        registry = DeletionRegistry()
        data_entry = Entry(data={"D": "x"}, author="A", signature="s", entry_number=1)
        survives, _ = entry_survives(
            data_entry, containing_block_number=1, registry=registry, current_time=0, current_block=5
        )
        assert survives

        request = build_deletion_request(EntryReference(1, 1), author="A", signature="s")
        survives, reason = entry_survives(
            request, containing_block_number=6, registry=registry, current_time=0, current_block=6
        )
        assert not survives and "never copied" in reason

        registry.record_request(request, approved=True)
        survives, reason = entry_survives(
            data_entry, containing_block_number=1, registry=registry, current_time=0, current_block=6
        )
        assert not survives and "marked" in reason

        temp = Entry(data={"D": "t"}, author="A", signature="s", entry_number=1, expires_at_block=3)
        survives, reason = entry_survives(
            temp, containing_block_number=2, registry=DeletionRegistry(), current_time=0, current_block=9
        )
        assert not survives and "expired" in reason

    def test_needs_empty_block(self):
        config = ChainConfig(sequence_length=3, empty_block_interval=5)
        assert needs_empty_block(config, last_block_timestamp=0, current_time=5)
        assert not needs_empty_block(config, last_block_timestamp=0, current_time=4)
        assert not needs_empty_block(
            ChainConfig(sequence_length=3), last_block_timestamp=0, current_time=10**6
        )


class TestSummaryModesAndRedundancy:
    def test_merkle_reference_mode_keeps_summary_small(self):
        full = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            summary_mode=SummaryMode.FULL_COPY,
        )
        reference = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            summary_mode=SummaryMode.MERKLE_REFERENCE,
        )
        payload = {"D": "x" * 300, "K": "ALPHA", "S": "sig_ALPHA"}

        full_chain = Blockchain(full)
        ref_chain = Blockchain(reference)
        for _ in range(8):
            full_chain.add_entry_block(payload, "ALPHA")
            ref_chain.add_entry_block(payload, "ALPHA")
        full_summary = [b for b in full_chain.blocks if b.is_summary and b.merged_sequences][-1]
        ref_summary = [b for b in ref_chain.blocks if b.is_summary and b.merged_sequences][-1]
        assert ref_summary.entry_count == 0
        assert ref_summary.summary_references
        assert ref_summary.byte_size() < full_summary.byte_size()

    def test_redundancy_merkle_root_embedded(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=3),
            redundancy=RedundancyPolicy.MIDDLE_MERKLE_ROOT,
        )
        chain = build_chain(12, config=config)
        summaries_with_redundancy = [
            block for block in chain.blocks if block.is_summary and block.redundancy
        ]
        assert summaries_with_redundancy
        record = summaries_with_redundancy[-1].redundancy[0]
        assert record.merkle_root is not None
        assert record.entries == ()

    def test_redundancy_full_copy_embedded(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=3),
            redundancy=RedundancyPolicy.MIDDLE_FULL_COPY,
        )
        chain = build_chain(12, config=config)
        summaries_with_redundancy = [
            block for block in chain.blocks if block.is_summary and block.redundancy
        ]
        assert summaries_with_redundancy
        assert summaries_with_redundancy[-1].redundancy[0].entries

    def test_no_redundancy_by_default(self):
        chain = build_chain(12)
        assert all(not block.redundancy for block in chain.blocks)


class TestValidation:
    def test_validate_chain_accepts_good_chain(self):
        chain = build_chain(8)
        validate_chain(chain.blocks, config=chain.config, genesis_marker=chain.genesis_marker)

    def test_validate_detects_marker_mismatch(self):
        chain = build_chain(8)
        with pytest.raises(ChainIntegrityError):
            validate_chain(chain.blocks, config=chain.config, genesis_marker=0)

    def test_validate_detects_broken_link(self):
        chain = build_chain(2)
        blocks = chain.blocks
        tampered = Block(
            block_number=blocks[1].block_number,
            timestamp=blocks[1].timestamp,
            previous_hash="0" * 64,
            entries=list(blocks[1].entries),
            block_type=blocks[1].block_type,
        )
        blocks[1] = tampered
        with pytest.raises(ChainIntegrityError):
            validate_chain(blocks, config=chain.config, genesis_marker=chain.genesis_marker)

    def test_validate_detects_summary_in_wrong_slot(self):
        chain = build_chain(1)
        blocks = chain.blocks
        blocks[1] = Block(
            block_number=1,
            timestamp=blocks[1].timestamp,
            previous_hash=blocks[0].block_hash,
            entries=list(blocks[1].entries),
            block_type=BlockType.SUMMARY,
        )
        # Fix the forward link so only the slot error remains.
        blocks[2] = Block(
            block_number=2,
            timestamp=blocks[2].timestamp,
            previous_hash=blocks[1].block_hash,
            entries=list(blocks[2].entries),
            block_type=BlockType.SUMMARY,
        )
        with pytest.raises(ChainIntegrityError):
            validate_chain(blocks, config=chain.config, genesis_marker=0)

    def test_block_link_accepts_the_next_block(self):
        previous, block = build_chain(2).blocks[-2:]
        validate_block_link(previous, block)

    @pytest.mark.parametrize(
        "tamper",
        [
            lambda previous, block: {"block_number": block.block_number + 1},
            lambda previous, block: {"previous_hash": "0" * 64},
            lambda previous, block: {"timestamp": previous.timestamp - 1},
        ],
        ids=["number-gap", "broken-hash", "timestamp-before-predecessor"],
    )
    def test_block_link_rejects_a_bad_neighbour(self, tamper):
        previous, block = build_chain(2).blocks[-2:]
        header = {
            "block_number": block.block_number,
            "timestamp": block.timestamp,
            "previous_hash": block.previous_hash,
            **tamper(previous, block),
        }
        tampered = Block(**header, entries=list(block.entries), block_type=block.block_type)
        with pytest.raises(ChainIntegrityError):
            validate_block_link(previous, tampered)

    def test_validate_empty_chain_rejected(self):
        with pytest.raises(ChainIntegrityError):
            validate_chain([], config=ChainConfig(), genesis_marker=0)

    def test_validate_rejects_wrong_genesis_hash(self):
        block = Block(block_number=0, timestamp=0, previous_hash="f" * 64)
        with pytest.raises(ChainIntegrityError):
            validate_chain([block], config=ChainConfig(sequence_length=3), genesis_marker=0)

    def test_validate_entry_signature_detects_forgery(self):
        chain = build_chain(1)
        entry = chain.block_by_number(1).entries[0]
        validate_entry_signature(entry, "simplified")
        forged = Entry(
            data=dict(entry.data),
            author=entry.author,
            signature="sig_FORGED:deadbeef",
            kind=entry.kind,
        )
        from repro.core.errors import AuthorizationError

        with pytest.raises(AuthorizationError):
            validate_entry_signature(forged, "simplified")

    def test_verify_summary_determinism(self):
        a = build_chain(4)
        b = build_chain(4)
        assert verify_summary_determinism(a.block_by_number(5), b.block_by_number(5))
        assert not verify_summary_determinism(a.block_by_number(4), b.block_by_number(4))

    def test_is_traceable_extension(self):
        chain = build_chain(4)
        known = chain.blocks[:3]
        assert is_traceable_extension(known, chain.blocks)
        foreign = build_chain(6, config=ChainConfig(sequence_length=4)).blocks
        assert not is_traceable_extension(known, foreign)
        assert is_traceable_extension([], chain.blocks)

    def test_deletion_is_effective_reports_no_violations(self):
        chain = build_chain(3)
        chain.request_deletion(EntryReference(3, 1), "ALPHA")
        chain.seal_block()
        while chain.genesis_marker == 0:
            chain.add_entry_block({"D": "x", "K": "BRAVO", "S": "s"}, "BRAVO")
        assert deletion_is_effective(chain.blocks, chain.registry) == []

    def test_deletion_is_effective_detects_leak(self):
        chain = build_chain(8)
        # Mark an entry as deleted *after* it was already carried forward, and
        # pretend its origin block is gone: the checker must flag the copy.
        summary = [b for b in chain.blocks if b.is_summary and b.entries][-1]
        leaked = summary.entries[0]
        request = build_deletion_request(
            EntryReference(leaked.origin_block_number, leaked.origin_entry_number),
            author=leaked.author,
            signature="s",
        )
        chain.registry.record_request(request, approved=True)
        violations = deletion_is_effective(chain.blocks, chain.registry)
        assert violations


class TestDeletionRegistry:
    def test_statistics_and_roundtrip(self):
        registry = DeletionRegistry()
        request = build_deletion_request(EntryReference(3, 1), author="BRAVO", signature="s")
        registry.record_request(request, approved=True, reason="ok")
        rejected = build_deletion_request(EntryReference(4, 1), author="EVE", signature="s")
        registry.record_request(rejected, approved=False, reason="not yours")
        assert registry.approved_count == 1
        assert registry.rejected_count == 1
        registry.mark_executed(EntryReference(3, 1))
        assert registry.executed_count == 1
        stats = registry.statistics()
        assert stats["approved"] == 1 and stats["rejected"] == 1 and stats["executed"] == 1
        restored = DeletionRegistry.from_dict(registry.to_dict())
        assert restored.is_marked(EntryReference(3, 1))
        assert not restored.is_marked(EntryReference(4, 1))

    def test_mark_executed_requires_approval(self):
        registry = DeletionRegistry()
        with pytest.raises(DeletionError):
            registry.mark_executed(EntryReference(1, 1))

    def test_decision_lookup(self):
        registry = DeletionRegistry()
        request = build_deletion_request(EntryReference(2, 1), author="A", signature="s")
        decision = registry.record_request(request, approved=True)
        assert registry.decision_for(EntryReference(2, 1)) == decision
        assert registry.decision_for(EntryReference(9, 9)) is None
        assert decision.status is DeletionStatus.APPROVED

    def test_is_marked_entry_handles_unplaced_entries(self):
        registry = DeletionRegistry()
        unplaced = Entry(data={"D": "x"}, author="A", signature="s")
        assert not registry.is_marked_entry(unplaced, 4)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=40), st.integers(min_value=3, max_value=6))
def test_chain_never_exceeds_sequence_bound(num_entries, sequence_length):
    """Property: with a sequences limit the living chain stays bounded."""
    config = ChainConfig(
        sequence_length=sequence_length,
        retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
        shrink_strategy=ShrinkStrategy.ALL_OLD,
    )
    chain = Blockchain(config)
    for i in range(num_entries):
        chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
    # At most max_length complete sequences plus the one under construction.
    assert chain.length <= (2 + 1) * sequence_length
    chain.validate()


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=1, max_value=30))
def test_total_created_minus_deleted_equals_living(num_entries):
    chain = Blockchain(ChainConfig.paper_evaluation())
    for i in range(num_entries):
        chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
    assert chain.total_blocks_created - chain.deleted_block_count == chain.length
