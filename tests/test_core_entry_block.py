"""Unit tests for the entry and block data model."""

import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.block import Block, BlockType, RedundancyRecord, make_genesis_block
from repro.core.entry import Entry, EntryKind, EntryReference
from repro.core.errors import ChainIntegrityError, DeletionError, SchemaError
from repro.crypto.hashing import GENESIS_PREVIOUS_HASH, canonical_json, hash_hex

#: Examples per ``REPRO_FUZZ_PROFILE`` (the convergence fuzz's tiers).
FUZZ_EXAMPLES = {"quick": 20, "standard": 100, "determinism": 500}[
    os.environ.get("REPRO_FUZZ_PROFILE", "quick")
]


def sample_entry(author="ALPHA", **kwargs) -> Entry:
    return Entry(data={"D": f"Login {author}"}, author=author, signature=f"sig_{author}", **kwargs)


class TestEntryReference:
    def test_valid_reference(self):
        ref = EntryReference(3, 1)
        assert str(ref) == "block 3, entry 1"

    def test_roundtrip(self):
        ref = EntryReference(7, 2)
        assert EntryReference.from_dict(ref.to_dict()) == ref

    def test_canonical_form_and_hash(self):
        ref = EntryReference(3, 1)
        expected = '{"block_number":3,"entry_number":1}'
        assert canonical_json(ref) == ref.__canonical_json__() == expected
        assert hash_hex(ref) == hashlib.sha256(expected.encode("utf-8")).hexdigest()

    def test_rejects_negative_block(self):
        with pytest.raises(DeletionError):
            EntryReference(-1, 1)

    def test_rejects_zero_entry_number(self):
        with pytest.raises(DeletionError):
            EntryReference(0, 0)


class TestEntry:
    def test_requires_author(self):
        with pytest.raises(SchemaError):
            Entry(data={}, author="", signature="s")

    def test_entry_number_must_be_positive(self):
        with pytest.raises(SchemaError):
            sample_entry(entry_number=0)

    def test_expiry_must_be_non_negative(self):
        with pytest.raises(SchemaError):
            sample_entry(expires_at_time=-1)
        with pytest.raises(SchemaError):
            sample_entry(expires_at_block=-2)

    def test_is_temporary(self):
        assert sample_entry(expires_at_block=10).is_temporary
        assert sample_entry(expires_at_time=10).is_temporary
        assert not sample_entry().is_temporary

    def test_is_expired_by_block(self):
        entry = sample_entry(expires_at_block=5)
        assert not entry.is_expired(current_time=0, current_block=5)
        assert entry.is_expired(current_time=0, current_block=6)

    def test_is_expired_by_time(self):
        entry = sample_entry(expires_at_time=100)
        assert not entry.is_expired(current_time=100, current_block=0)
        assert entry.is_expired(current_time=101, current_block=0)

    def test_deletion_target_of_data_entry_raises(self):
        with pytest.raises(DeletionError):
            sample_entry().deletion_target()

    def test_deletion_target_missing_reference_raises(self):
        broken = Entry(
            data={"note": "no target"},
            author="BRAVO",
            signature="s",
            kind=EntryKind.DELETION_REQUEST,
        )
        with pytest.raises(DeletionError):
            broken.deletion_target()

    def test_as_copy_sets_origin_once(self):
        entry = sample_entry(entry_number=1)
        copy = entry.as_copy(origin_block_number=3, origin_timestamp=9)
        assert copy.is_copy
        assert copy.origin_block_number == 3
        assert copy.origin_timestamp == 9
        assert copy.origin_entry_number == 1
        # Copying again keeps the very first origin.
        copy_of_copy = copy.as_copy(origin_block_number=55, origin_timestamp=99)
        assert copy_of_copy.origin_block_number == 3

    def test_reference_in_uses_origin_for_copies(self):
        entry = sample_entry(entry_number=2).as_copy(origin_block_number=4, origin_timestamp=1)
        assert entry.reference_in(100) == EntryReference(4, 2)

    def test_reference_in_unplaced_entry_raises(self):
        with pytest.raises(DeletionError):
            sample_entry().reference_in(5)

    def test_signing_payload_excludes_placement(self):
        entry = sample_entry(entry_number=3)
        payload = entry.signing_payload()
        assert "entry_number" not in payload
        assert "origin_block_number" not in payload

    def test_roundtrip_serialisation(self):
        entry = sample_entry(entry_number=1, expires_at_block=9).as_copy(
            origin_block_number=2, origin_timestamp=7
        )
        assert Entry.from_dict(entry.to_dict()) == entry

    def test_display_contains_fields(self):
        entry = sample_entry(entry_number=1)
        text = entry.display()
        assert text.startswith("1:")
        assert "K: ALPHA" in text
        assert "sig_ALPHA" in text

    def test_display_of_temporary_copy(self):
        entry = sample_entry(entry_number=1, expires_at_block=8).as_copy(
            origin_block_number=4, origin_timestamp=2
        )
        text = entry.display()
        assert "origin: block 4" in text
        assert "alpha<=8" in text

    def test_display_of_deletion_request(self):
        request = Entry(
            data={"target": EntryReference(3, 1).to_dict()},
            author="BRAVO",
            signature="sig_BRAVO:aa",
            kind=EntryKind.DELETION_REQUEST,
            entry_number=1,
        )
        assert "DEL: block 3, entry 1" in request.display()


class TestBlock:
    def test_genesis_block(self):
        block = make_genesis_block()
        assert block.block_number == 0
        assert block.previous_hash == GENESIS_PREVIOUS_HASH
        assert block.is_genesis_origin
        assert not block.is_summary

    def test_entry_numbers_assigned_on_construction(self):
        block = Block(
            block_number=1,
            timestamp=1,
            previous_hash="aa",
            entries=[sample_entry(), sample_entry(author="BRAVO")],
        )
        assert [entry.entry_number for entry in block.entries] == [1, 2]

    def test_existing_entry_numbers_preserved(self):
        block = Block(
            block_number=9,
            timestamp=3,
            previous_hash="aa",
            entries=[sample_entry(entry_number=7)],
            block_type=BlockType.SUMMARY,
        )
        assert block.entries[0].entry_number == 7

    def test_hash_changes_with_content(self):
        a = Block(block_number=1, timestamp=1, previous_hash="aa", entries=[sample_entry()])
        b = Block(block_number=1, timestamp=1, previous_hash="aa", entries=[sample_entry("BRAVO")])
        assert a.block_hash != b.block_hash

    def test_hash_cache_invalidated_by_nonce(self):
        block = Block(block_number=1, timestamp=1, previous_hash="aa")
        before = block.block_hash
        block.set_nonce(42)
        assert block.block_hash != before
        assert block.compute_hash() == block.block_hash

    def test_entry_lookup(self):
        block = Block(block_number=1, timestamp=1, previous_hash="aa", entries=[sample_entry()])
        assert block.entry(1).author == "ALPHA"
        with pytest.raises(KeyError):
            block.entry(2)

    def test_find_copy_of(self):
        copy = sample_entry(entry_number=1).as_copy(origin_block_number=3, origin_timestamp=1)
        summary = Block(
            block_number=5,
            timestamp=4,
            previous_hash="aa",
            entries=[copy],
            block_type=BlockType.SUMMARY,
        )
        assert summary.find_copy_of(3, 1) is not None
        assert summary.find_copy_of(3, 2) is None

    def test_header_dict_names_the_header_and_not_the_content(self):
        block = Block(
            block_number=4, timestamp=2, previous_hash="aa", entries=[sample_entry()], nonce=9
        )
        assert block.header_dict() == {
            "block_number": 4,
            "timestamp": 2,
            "previous_hash": "aa",
            "block_type": "normal",
            "nonce": 9,
        }
        other = Block(
            block_number=4, timestamp=2, previous_hash="aa", entries=[sample_entry("BRAVO")], nonce=9
        )
        assert other.header_dict() == block.header_dict()
        assert other.block_hash != block.block_hash

    def test_location_keys_address_copies_by_their_origin(self):
        copy = sample_entry(entry_number=2).as_copy(origin_block_number=3, origin_timestamp=1)
        summary = Block(
            block_number=5,
            timestamp=4,
            previous_hash="aa",
            entries=[copy, sample_entry(author="BRAVO")],
            block_type=BlockType.SUMMARY,
        )
        assert summary.location_keys() == [(3, 2), (5, 2)]

    def test_positions_of_yields_every_position_of_a_key_in_order(self):
        first = sample_entry(entry_number=1).as_copy(origin_block_number=3, origin_timestamp=1)
        other = sample_entry("BRAVO", entry_number=2).as_copy(origin_block_number=3, origin_timestamp=1)
        summary = Block(
            block_number=7,
            timestamp=5,
            previous_hash="aa",
            entries=[first, other, first],
            block_type=BlockType.SUMMARY,
        )
        assert list(summary.positions_of((3, 1))) == [0, 2]
        assert list(summary.positions_of((3, 2))) == [1]

    def test_positions_of_an_absent_key_yields_nothing(self):
        block = Block(block_number=1, timestamp=1, previous_hash="aa", entries=[sample_entry()])
        assert list(block.positions_of((1, 2))) == []
        assert list(block.positions_of((2, 1))) == []
        assert list(Block(block_number=2, timestamp=1, previous_hash="aa").positions_of((2, 1))) == []

    def test_data_entries_and_deletion_requests(self):
        request = Entry(
            data={"target": {"block_number": 1, "entry_number": 1}},
            author="BRAVO",
            signature="s",
            kind=EntryKind.DELETION_REQUEST,
        )
        block = Block(
            block_number=6, timestamp=6, previous_hash="aa", entries=[sample_entry(), request]
        )
        assert len(block.data_entries()) == 1
        assert len(block.deletion_requests()) == 1

    def test_rejects_invalid_header_fields(self):
        with pytest.raises(ChainIntegrityError):
            Block(block_number=-1, timestamp=0, previous_hash="aa")
        with pytest.raises(ChainIntegrityError):
            Block(block_number=0, timestamp=-1, previous_hash="aa")
        with pytest.raises(ChainIntegrityError):
            Block(block_number=0, timestamp=0, previous_hash="")

    def test_serialisation_roundtrip(self):
        block = Block(
            block_number=2,
            timestamp=1,
            previous_hash="aa",
            entries=[sample_entry()],
            block_type=BlockType.SUMMARY,
            redundancy=[
                RedundancyRecord(
                    sequence_index=0, first_block_number=0, last_block_number=2, merkle_root="mm"
                )
            ],
            merged_sequences=[0],
        )
        restored = Block.from_dict(block.to_dict())
        assert restored.block_hash == block.block_hash
        assert restored.redundancy[0].merkle_root == "mm"

    def test_from_dict_detects_tampering(self):
        block = Block(block_number=1, timestamp=1, previous_hash="aa", entries=[sample_entry()])
        payload = block.to_dict()
        payload["entries"][0]["data"]["D"] = "tampered"
        with pytest.raises(ChainIntegrityError):
            Block.from_dict(payload)

    def test_byte_size_positive_and_grows(self):
        small = Block(block_number=1, timestamp=1, previous_hash="aa")
        large = Block(
            block_number=1,
            timestamp=1,
            previous_hash="aa",
            entries=[sample_entry(author=f"USER{i}") for i in range(10)],
        )
        assert 0 < small.byte_size() < large.byte_size()

    def test_display_formats(self):
        genesis = make_genesis_block()
        assert genesis.display().startswith("0; t=0; prev=DEADB")
        summary = Block(
            block_number=2, timestamp=1, previous_hash=genesis.block_hash, block_type=BlockType.SUMMARY
        )
        assert summary.display().startswith("S2;")

    def test_redundancy_record_roundtrip(self):
        record = RedundancyRecord(
            sequence_index=1,
            first_block_number=3,
            last_block_number=5,
            merkle_root="root",
            entries=(sample_entry(entry_number=1).as_copy(origin_block_number=3, origin_timestamp=1),),
        )
        restored = RedundancyRecord.from_dict(record.to_dict())
        assert restored.merkle_root == "root"
        assert restored.entries[0].origin_block_number == 3


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from(["ALPHA", "BRAVO", "CHARLIE", "DELTA"]), min_size=1, max_size=8))
def test_block_hash_depends_only_on_content(authors):
    first = Block(
        block_number=1,
        timestamp=1,
        previous_hash="aa",
        entries=[sample_entry(author) for author in authors],
    )
    second = Block(
        block_number=1,
        timestamp=1,
        previous_hash="aa",
        entries=[sample_entry(author) for author in authors],
    )
    assert first.block_hash == second.block_hash


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


#: Text that exercises JSON escaping: non-ASCII, quotes and backslashes.
tricky_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)), st.sampled_from('"\\\né漢\U0001f600')
    ),
    max_size=10,
)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**12), 10**12),
    st.floats(allow_nan=False, allow_infinity=False), tricky_text,
)


@st.composite
def entries(draw) -> Entry:
    entry = Entry(
        data=draw(st.dictionaries(st.sampled_from(["D", "K", "S"]) | tricky_text, json_scalars, max_size=3)),
        author=draw(tricky_text.filter(bool)),
        signature=draw(tricky_text),
        kind=draw(st.sampled_from(EntryKind)),
        entry_number=draw(st.none() | st.integers(1, 50)),
        expires_at_time=draw(st.none() | st.integers(0, 10**6)),
        expires_at_block=draw(st.none() | st.integers(0, 10**3)),
    )
    if draw(st.booleans()):
        entry = entry.with_entry_number(entry.entry_number or 1).as_copy(
            origin_block_number=draw(st.integers(0, 500)), origin_timestamp=draw(st.integers(0, 10**6))
        )
    return entry


hex_digests = st.text(alphabet="0123456789abcdef", min_size=64, max_size=64)
#: Both redundancy shapes of Fig. 9: a Merkle root only, or a full copy.
redundancy_records = st.one_of(
    st.builds(
        RedundancyRecord,
        sequence_index=st.integers(0, 50),
        first_block_number=st.integers(0, 500),
        last_block_number=st.integers(0, 500),
        merkle_root=hex_digests,
    ),
    st.builds(
        RedundancyRecord,
        sequence_index=st.integers(0, 50),
        first_block_number=st.integers(0, 500),
        last_block_number=st.integers(0, 500),
        merkle_root=hex_digests,
        entries=st.lists(entries(), min_size=1, max_size=3).map(tuple),
    ),
)
#: Section V-B2 sequence references and the proof-of-authority seal.
summary_references = st.one_of(
    st.fixed_dictionaries(
        {
            "sequence_index": st.integers(0, 50),
            "first_block_number": st.integers(0, 500),
            "last_block_number": st.integers(0, 500),
            "entry_count": st.integers(0, 100),
            "merkle_root": hex_digests,
        }
    ),
    st.fixed_dictionaries({"kind": st.just("poa-seal"), "sealer": tricky_text, "signature": tricky_text}),
)


@st.composite
def blocks(draw) -> Block:
    summary = draw(st.booleans())
    return Block(
        block_number=draw(st.integers(0, 10**6)),
        timestamp=draw(st.integers(0, 10**9)),
        previous_hash=draw(hex_digests | st.just(GENESIS_PREVIOUS_HASH)),
        entries=draw(st.lists(entries(), max_size=5)),
        block_type=BlockType.SUMMARY if summary else BlockType.NORMAL,
        nonce=draw(st.integers(0, 2**32)),
        redundancy=draw(st.lists(redundancy_records, max_size=2)) if summary else [],
        merged_sequences=draw(st.lists(st.integers(0, 50), max_size=3)) if summary else [],
        summary_references=draw(st.lists(summary_references, max_size=2)),
    )


@settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True)
@given(block=blocks(), nonce=st.integers(0, 2**32))
def test_block_composition_is_byte_identical_to_json_dumps(block, nonce):
    """Hash, size and canonical string all equal the plain ``json.dumps`` forms."""
    for stage in ("as built", "after set_nonce"):
        if stage == "after set_nonce":
            block.set_nonce(nonce)
        expected_hash = hashlib.sha256(_dumps(block.content_dict()).encode("utf-8")).hexdigest()
        assert block.block_hash == expected_hash, stage
        expected = _dumps(block.to_dict())
        assert block.byte_size() == len(expected.encode("utf-8")), stage
        assert block.__canonical_json__() == expected, stage
        assert Block.from_dict(block.to_dict()).block_hash == expected_hash, stage
