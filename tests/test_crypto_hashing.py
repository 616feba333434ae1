"""Unit tests for repro.crypto.hashing."""

import pytest
from hypothesis import given, strategies as st

from repro.crypto.hashing import (
    GENESIS_PREVIOUS_HASH,
    canonical_json,
    canonical_size,
    hash_hex,
    hash_pair,
    sha256_hex,
    sha256_hex_parts,
    truncate_hash,
)
from repro.core.block import Block
from repro.core.entry import Entry


class TestSha256Hex:
    def test_known_vector_empty(self):
        assert sha256_hex(b"") == (
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        )

    def test_known_vector_abc(self):
        assert sha256_hex(b"abc") == (
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        )

    def test_digest_length(self):
        assert len(sha256_hex(b"anything")) == 64

    def test_parts_hash_as_their_concatenation(self):
        parts = [b"ab", b"", b"c", "\u00e9".encode("utf-8")]
        assert sha256_hex_parts(parts) == sha256_hex(b"".join(parts))
        assert sha256_hex_parts(iter(parts)) == sha256_hex_parts(parts)

    def test_no_parts_hash_as_the_empty_string(self):
        assert sha256_hex_parts([]) == sha256_hex(b"")


class TestCanonicalJson:
    def test_key_order_does_not_matter(self):
        assert canonical_json({"b": 1, "a": 2}) == canonical_json({"a": 2, "b": 1})

    def test_no_whitespace(self):
        assert " " not in canonical_json({"a": [1, 2, 3], "b": {"c": 4}})

    def test_object_with_to_dict(self):
        class Widget:
            def to_dict(self):
                return {"kind": "widget"}

        assert canonical_json(Widget()) == '{"kind":"widget"}'

    def test_unserialisable_object_raises(self):
        with pytest.raises(TypeError):
            canonical_json(object())


class TestHashHex:
    def test_deterministic(self):
        assert hash_hex({"x": 1}) == hash_hex({"x": 1})

    def test_structure_sensitivity(self):
        assert hash_hex({"x": 1}) != hash_hex({"x": 2})

    def test_truncation(self):
        assert len(hash_hex({"x": 1}, digest_length=8)) == 8

    def test_full_length_default(self):
        assert len(hash_hex([1, 2, 3])) == 64


class TestCanonicalSize:
    @pytest.mark.parametrize(
        "value",
        [{}, [], {"b": [1, 2.5, None], "a": True}, {"name": "Zo\u00eb \u2603"}, "plain"],
        ids=["empty-dict", "empty-list", "nested", "non-ascii", "string"],
    )
    def test_equals_the_utf8_length_of_the_canonical_json(self, value):
        assert canonical_size(value) == len(canonical_json(value).encode("utf-8"))

    def test_memoised_objects_count_their_own_text(self):
        entries = [
            Entry(data={"D": "Login \u00c5SA"}, author="ASA", signature="sig_ASA"),
            Entry(data={"D": "Login BRAVO"}, author="BRAVO", signature="sig_BRAVO"),
        ]
        block = Block(block_number=1, timestamp=1, previous_hash="aa", entries=entries)
        value = {"blocks": [block], "entries": block.entries, "count": 2}
        assert canonical_size(value) == len(canonical_json(value).encode("utf-8"))


class TestHashHelpers:
    def test_hash_pair_is_order_sensitive(self):
        assert hash_pair("aa", "bb") != hash_pair("bb", "aa")

    def test_truncate_hash_uppercase(self):
        assert truncate_hash("deadbeef", 5) == "DEADB"

    def test_truncate_hash_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            truncate_hash("deadbeef", 0)

    def test_genesis_constant_matches_paper(self):
        assert GENESIS_PREVIOUS_HASH == "DEADB"


@given(st.dictionaries(st.text(max_size=10), st.integers(), max_size=5))
def test_hash_hex_is_deterministic_property(payload):
    assert hash_hex(payload) == hash_hex(dict(payload))


@given(
    st.dictionaries(st.text(max_size=10), st.integers(), min_size=1, max_size=5),
    st.dictionaries(st.text(max_size=10), st.integers(), min_size=1, max_size=5),
)
def test_different_payloads_rarely_collide(first, second):
    if first != second:
        assert hash_hex(first) != hash_hex(second)
