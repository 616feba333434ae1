"""Equivalence tests for the incremental chain index.

The chain index (``repro.core.index``) is a pure cache: every query it
answers in O(1) must return exactly what the seed's linear scans returned.
These tests drive randomized seal / delete / summarize / idle-tick traces
through the chain façade and, after every trace, validate the incremental
structures against the retained legacy reference implementations
(:func:`repro.core.index.legacy_find_entry`,
:func:`repro.core.index.legacy_aggregates`,
:func:`repro.core.partition_into_sequences`) — including ``from_dict``
rebuilds and ``receive_block`` replication.

A pinned-hash regression asserts the caching layer changed no serialised
byte: ``Blockchain.to_dict()`` for fixed traces still hashes to the values
recorded from the seed implementation.
"""

import hashlib
import json
from collections import Counter

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
    default_log_schema,
    partition_into_sequences,
)
from repro.core.block import Block, BlockType
from repro.core.entry import Entry
from repro.core.errors import ChainIntegrityError
from repro.core.index import ChainIndex, legacy_aggregates, legacy_find_entry
from repro.crypto.hashing import GENESIS_PREVIOUS_HASH

# Tiered Hypothesis settings: traces are comparatively expensive, so the
# randomized-trace tests run fewer examples than cheap structural checks.
STANDARD_SETTINGS = settings(max_examples=100, deadline=None)
TRACE_SETTINGS = settings(max_examples=30, deadline=None)
QUICK_SETTINGS = settings(max_examples=10, deadline=None)

USERS = ("ALPHA", "BRAVO", "CHARLIE")

CONFIGS = {
    "paper": ChainConfig.paper_evaluation(),
    "unbounded": ChainConfig(sequence_length=3),
    "blocks-to-limit": ChainConfig(
        sequence_length=4,
        retention=RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=8),
        shrink_strategy=ShrinkStrategy.TO_LIMIT,
    ),
    "merkle-reference": ChainConfig(
        sequence_length=3,
        retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
        shrink_strategy=ShrinkStrategy.ALL_OLD,
        summary_mode=SummaryMode.MERKLE_REFERENCE,
        redundancy=RedundancyPolicy.MIDDLE_MERKLE_ROOT,
    ),
    "full-redundancy": ChainConfig(
        sequence_length=3,
        retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=3, min_summary_blocks=1),
        shrink_strategy=ShrinkStrategy.SINGLE_SEQUENCE,
        redundancy=RedundancyPolicy.MIDDLE_FULL_COPY,
        empty_block_interval=2,
    ),
}

#: One trace step: (operation, payload).  ``add`` seals a block with that
#: many entries, ``delete`` targets the n-th previously created reference,
#: ``temporary`` seals an entry expiring soon, ``idle`` runs idle_tick().
operations = st.lists(
    st.one_of(
        st.tuples(st.just("add"), st.integers(min_value=0, max_value=3)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=200)),
        st.tuples(st.just("temporary"), st.integers(min_value=1, max_value=6)),
        st.tuples(st.just("idle"), st.just(0)),
    ),
    min_size=1,
    max_size=30,
)


def run_trace(config: ChainConfig, trace) -> tuple[Blockchain, list]:
    """Execute a randomized trace; returns the chain and every sealed block."""
    chain = Blockchain(config)
    sealed = []
    created_references: list[EntryReference] = []
    for op, argument in trace:
        if op == "add":
            user = USERS[argument % len(USERS)]
            for i in range(argument):
                chain.add_entry(
                    {"D": f"Login {user} #{len(created_references)}", "K": user, "S": f"sig_{user}"},
                    user,
                )
            block = chain.seal_block()
            sealed.append(block)
            for entry in block.entries:
                created_references.append(entry.reference_in(block.block_number))
        elif op == "delete":
            if created_references:
                target = created_references[argument % len(created_references)]
                author = USERS[argument % len(USERS)]
                chain.request_deletion(target, author)
                sealed.append(chain.seal_block())
        elif op == "temporary":
            user = USERS[argument % len(USERS)]
            chain.add_entry(
                {"D": f"temp {user}", "K": user, "S": f"sig_{user}"},
                user,
                expires_at_block=chain.next_block_number + argument,
            )
            block = chain.seal_block()
            sealed.append(block)
            for entry in block.entries:
                created_references.append(entry.reference_in(block.block_number))
        else:  # idle
            block = chain.idle_tick()
            if block is not None:
                sealed.append(block)
    return chain, sealed


def assert_index_matches_legacy(chain: Blockchain) -> None:
    """Every index-backed query must equal the seed's linear-scan result."""
    chain.verify_index()  # exhaustive (block, entry) and aggregate comparison

    blocks = chain.blocks
    expected_entries, expected_bytes, expected_complete = legacy_aggregates(
        blocks, chain.config.sequence_length
    )
    assert chain.entry_count() == expected_entries
    assert chain.byte_size() == expected_bytes
    assert chain.completed_sequence_count() == expected_complete

    stats = chain.statistics()
    assert stats["living_entries"] == expected_entries
    assert stats["byte_size"] == expected_bytes
    assert stats["completed_sequences"] == expected_complete

    legacy_views = partition_into_sequences(blocks, chain.config.sequence_length)
    views = chain.sequences()
    assert [view.index for view in views] == [view.index for view in legacy_views]
    for view, legacy_view in zip(views, legacy_views):
        assert [b.block_number for b in view.blocks] == [b.block_number for b in legacy_view.blocks]

    aggregates = chain.sequence_statistics()
    assert sorted(aggregates) == [view.index for view in legacy_views]
    for legacy_view in legacy_views:
        assert aggregates[legacy_view.index]["entry_count"] == legacy_view.entry_count()
        assert aggregates[legacy_view.index]["byte_size"] == legacy_view.byte_size()

    # Spot-check lookups beyond the exhaustive key set: nonexistent entries
    # and coordinates past the head must miss in both implementations.
    probes = [EntryReference(1, 99), EntryReference(chain.head.block_number + 5, 1)]
    for block in blocks[:3]:
        probes.append(EntryReference(block.block_number, 1))
    for reference in probes:
        legacy = legacy_find_entry(blocks, chain.genesis_marker, reference)
        indexed = chain.find_entry(reference)
        assert (legacy is None) == (indexed is None)
        if legacy is not None:
            assert legacy[0] is indexed[0] and legacy[1] is indexed[1]


class TestRandomizedTraceEquivalence:
    @pytest.mark.parametrize("config_name", sorted(CONFIGS))
    @TRACE_SETTINGS
    @given(trace=operations)
    def test_index_matches_legacy_scans(self, config_name, trace):
        chain, _ = run_trace(CONFIGS[config_name], trace)
        assert_index_matches_legacy(chain)

    @TRACE_SETTINGS
    @given(trace=operations)
    def test_from_dict_rebuild_matches(self, trace):
        chain, _ = run_trace(CONFIGS["paper"], trace)
        payload = chain.to_dict()
        restored = Blockchain.from_dict(payload)
        assert_index_matches_legacy(restored)
        # The rebuilt index serves the same answers as the live-maintained one.
        for block in chain.blocks:
            for entry in block.entries:
                reference = entry.reference_in(block.block_number)
                ours = chain.find_entry(reference)
                theirs = restored.find_entry(reference)
                assert (ours is None) == (theirs is None)
                if ours is not None:
                    assert ours[0].block_number == theirs[0].block_number
                    assert ours[1].to_dict() == theirs[1].to_dict()
        assert restored.to_dict() == payload

    @QUICK_SETTINGS
    @given(trace=operations)
    def test_receive_block_replica_matches(self, trace):
        primary, sealed = run_trace(CONFIGS["paper"], trace)
        replica = Blockchain(CONFIGS["paper"])
        for block in sealed:
            replica.receive_block(block)
        assert_index_matches_legacy(replica)
        # Summary determinism (Section IV-B): the replica converges on the
        # identical chain, so its index answers identical lookups.  The
        # registry is compared by outcome only: the primary records deletion
        # requests before sealing (entry_number not yet assigned) while the
        # replica records them from the sealed block — a pre-existing
        # serialisation difference unrelated to the index.
        ours = primary.to_dict()
        theirs = replica.to_dict()
        ours.pop("registry")
        theirs.pop("registry")
        # The audit trails word events differently on purpose (a replica logs
        # "replicated deletion request ..."), so compare them by kind counts.
        ours_events = ours.pop("events")
        theirs_events = theirs.pop("events")
        assert Counter(e["kind"] for e in ours_events) == Counter(
            e["kind"] for e in theirs_events
        )
        assert ours == theirs
        assert replica.registry.statistics() == primary.registry.statistics()


class TestIndexMaintenanceDetail:
    def test_find_entry_prefers_original_then_newest_copy(self):
        chain = Blockchain(CONFIGS["paper"])
        block = chain.add_entry_block({"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
        reference = EntryReference(block.block_number, 1)
        located_block, located_entry = chain.find_entry(reference)
        assert located_block is chain.block_by_number(block.block_number)
        assert not located_entry.is_copy
        # Push the entry into a summary copy by exceeding the retention limit.
        for _ in range(12):
            chain.add_entry_block({"D": "Login BRAVO", "K": "BRAVO", "S": "sig_BRAVO"}, "BRAVO")
        located = chain.find_entry(reference)
        assert located is not None
        copy_block, copy_entry = located
        assert copy_block.is_summary and copy_entry.is_copy
        assert copy_entry.origin_block_number == reference.block_number
        assert legacy_find_entry(chain.blocks, chain.genesis_marker, reference)[1] is copy_entry

    def test_marked_entry_disappears_from_index_after_cut(self):
        chain = Blockchain(CONFIGS["paper"])
        block = chain.add_entry_block({"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
        reference = EntryReference(block.block_number, 1)
        chain.request_deletion(reference, "ALPHA")
        chain.seal_block()
        for _ in range(12):
            chain.add_entry_block({"D": "Login BRAVO", "K": "BRAVO", "S": "sig_BRAVO"}, "BRAVO")
        assert chain.find_entry(reference) is None
        assert legacy_find_entry(chain.blocks, chain.genesis_marker, reference) is None
        assert_index_matches_legacy(chain)

    def test_render_sequences_matches_legacy_views(self):
        from repro.analysis import render_sequences

        chain = Blockchain(CONFIGS["paper"])
        for i in range(10):
            chain.add_entry_block({"D": f"Login A{i}", "K": "A", "S": "sig_A"}, "A")
        text = render_sequences(chain)
        legacy_views = partition_into_sequences(chain.blocks, chain.config.sequence_length)
        assert text.splitlines()[0] == "--- living sequences ---"
        for view in legacy_views:
            assert (
                f"sequence {view.index}: {view.entry_count()} entries, "
                f"{view.byte_size()} bytes"
            ) in text

    def test_duplicate_keys_first_match_in_block_newest_summary_across(self):
        """Hand-built summaries with duplicate keys — no trace produces them.

        Summary 2 holds two copies of origin (0, 1), both numbered 1, so it
        repeats a copy key; summary 5 repeats origin (1, 1) and copies (0, 1)
        once more.  Within a block the first match wins; across blocks the
        newest summary wins, which only shows once the cut removes the
        originals and summary 2.  A summary's own number addresses none of
        its copies: (2, 1) and (5, 1) are found nowhere.
        """
        config = ChainConfig(sequence_length=3)

        def entry(label, origin=None):
            made = Entry(data={"D": label}, author="A", signature="s", entry_number=1)
            if origin is None:
                return made
            return made.as_copy(origin_block_number=origin, origin_timestamp=0)

        layout = [
            (BlockType.NORMAL, [entry("a0")]),
            (BlockType.NORMAL, [entry("a1")]),
            (BlockType.SUMMARY, [entry("x", 0), entry("y", 0)]),
            (BlockType.NORMAL, [entry("a3")]),
            (BlockType.NORMAL, [entry("a4")]),
            (BlockType.SUMMARY, [entry("p", 1), entry("q", 1), entry("z", 0)]),
            (BlockType.NORMAL, [entry("a6")]),
        ]
        blocks, previous = [], GENESIS_PREVIOUS_HASH
        for number, (block_type, entries) in enumerate(layout):
            blocks.append(Block(number, number, previous, entries, block_type=block_type))
            previous = blocks[-1].block_hash
        probes = [EntryReference(b, 1) for b in range(7)]

        def located(index, living, marker):
            """What the index, the linear scan and a rebuilt chain each find."""
            chain = Blockchain.from_dict(
                {"config": config.to_dict(), "genesis_marker": marker,
                 "blocks": [block.to_dict() for block in living]}
            )
            chain.verify_index()
            answers = {}
            for reference in probes:
                found = index.find(reference)
                legacy = legacy_find_entry(living, marker, reference)
                served = chain.find_entry(reference)
                assert (found is None) == (legacy is None) == (served is None), reference
                if found is not None:
                    assert found[0] is legacy[0] and found[1] is legacy[1], reference
                    assert served[0].block_number == found[0].block_number, reference
                    assert served[1].to_dict() == found[1].to_dict(), reference
                    answers[reference.block_number] = found[1].data["D"]
            return answers

        index = ChainIndex.build(blocks, config.sequence_length)
        before = located(index, blocks, 0)
        assert before == {0: "a0", 1: "a1", 3: "a3", 4: "a4", 6: "a6"}

        index.cut_before(3, blocks[:3])
        after = located(index, blocks[3:], 3)
        assert after == {0: "z", 1: "p", 3: "a3", 4: "a4", 6: "a6"}

    def test_verify_index_checks_every_lookup_not_only_a_sample(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
        )
        chain = Blockchain(config)
        for i in range(300):
            chain.add_entry({"D": f"Login {i}", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
        chain.seal_block()
        while chain.genesis_marker <= 1:
            chain.add_entry_block({"D": "Login BRAVO", "K": "BRAVO", "S": "sig_BRAVO"}, "BRAVO")
        chain.verify_index()
        summary = next(block for block in reversed(chain.blocks) if block.is_summary and block.entries)
        assert summary.entry_count >= 300
        # Lose the carried key of the newest summary's last copy (what
        # find() searches), far past the sampled cross-check's reach.
        assert summary._carry.keys[-1] == summary.entries[-1].location_key(summary.block_number)
        del summary._carry.keys[-1]
        with pytest.raises(ChainIntegrityError, match="lookup"):
            chain.verify_index()

    def test_statistics_is_consistent_after_every_block(self):
        chain = Blockchain(CONFIGS["merkle-reference"])
        for i in range(20):
            chain.add_entry_block({"D": f"evt {i}", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
            assert_index_matches_legacy(chain)


class TestSeedByteIdentity:
    """``to_dict`` must stay byte-identical to the seed implementation.

    The hashes below were recorded by running the identical traces against
    the seed (pre-index, pre-caching) implementation.  Any caching change
    that alters serialisation or hashing breaks these pins.
    """

    def _digest(self, chain: Blockchain) -> str:
        # The digest pins the byte-identity of the *chain state* (blocks,
        # marker, counters, registry) against the seed.  The audit trail is
        # excluded: it is an observation log, not chain state, and its
        # serialisation was added after the seed digests were taken.
        payload = chain.to_dict()
        payload.pop("events", None)
        payload = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def test_paper_trace_digest(self):
        chain = Blockchain(ChainConfig.paper_evaluation(), schema=default_log_schema())
        for user in ("ALPHA", "BRAVO", "CHARLIE", "DELTA", "ECHO"):
            chain.add_entry_block({"D": f"Login {user}", "K": user, "S": f"sig_{user}"}, user)
        chain.request_deletion(EntryReference(3, 1), "BRAVO")
        chain.seal_block()
        chain.add_entry_block({"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
        assert self._digest(chain) == (
            "83dcad2473fdc7c637adf39088fe073a0e20db859b19b9f1fd7d81c6b2180ac9"
        )

    def test_merkle_reference_trace_digest(self):
        config = ChainConfig(
            sequence_length=4,
            retention=RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=8),
            shrink_strategy=ShrinkStrategy.TO_LIMIT,
            summary_mode=SummaryMode.MERKLE_REFERENCE,
            redundancy=RedundancyPolicy.MIDDLE_MERKLE_ROOT,
        )
        chain = Blockchain(config)
        for i in range(20):
            chain.add_entry_block(
                {"D": f"evt {i}", "K": "U", "S": "sig"},
                "U",
                expires_at_block=(i + 6) if i % 3 == 0 else None,
            )
        chain.request_deletion(EntryReference(chain.blocks[1].block_number, 1), "U")
        chain.seal_block()
        for i in range(8):
            chain.add_entry_block({"D": f"post {i}", "K": "U", "S": "sig"}, "U")
        assert self._digest(chain) == (
            "75f11d3c46af7191988e4cfe29640597dc23592d6e098f1be6dc4bbb5c184ba1"
        )

    def test_full_redundancy_trace_digest(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=3),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            redundancy=RedundancyPolicy.MIDDLE_FULL_COPY,
        )
        chain = Blockchain(config)
        for i in range(25):
            chain.add_entry_block({"note": f"n{i}"}, f"user{i % 3}")
        assert self._digest(chain) == (
            "4997e9bc5b208538d333a2a83625ce94bf06b79df319d18bc102d278b25bedb4"
        )


class TestCanonicalJsonEquivalence:
    """The compositional canonical serialiser must match json.dumps exactly."""

    json_values = st.recursive(
        st.one_of(
            st.none(),
            st.booleans(),
            st.integers(min_value=-(10**12), max_value=10**12),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(max_size=20),
        ),
        lambda children: st.one_of(
            st.lists(children, max_size=4),
            st.dictionaries(st.text(max_size=8), children, max_size=4),
        ),
        max_leaves=25,
    )

    @STANDARD_SETTINGS
    @given(value=json_values)
    def test_matches_json_dumps(self, value):
        from repro.crypto.hashing import canonical_json

        assert canonical_json(value) == json.dumps(
            value, sort_keys=True, separators=(",", ":")
        )

    def test_entry_and_block_hooks_match_their_to_dict(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        for user in USERS:
            chain.add_entry_block({"D": f"Login {user}", "K": user, "S": f"sig_{user}"}, user)
        from repro.crypto.hashing import canonical_json

        for block in chain.blocks:
            assert block.__canonical_json__() == json.dumps(
                block.to_dict(), sort_keys=True, separators=(",", ":")
            )
            assert block.byte_size() == len(
                canonical_json(block.to_dict()).encode("utf-8")
            )
            for entry in block.entries:
                assert entry.__canonical_json__() == json.dumps(
                    entry.to_dict(), sort_keys=True, separators=(",", ":")
                )
