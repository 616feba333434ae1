"""Property tests pinning the ECDSA fast path to the affine reference.

Scalar multiplication runs on Jacobian coordinates: a Lim–Lee comb for
``k*G`` and a window ladder plus the comb for the verify equation
``u1*G + u2*Q``.  The old affine double-and-add survives verbatim as
``CurvePoint.affine_multiply`` — the executable spec — and these Hypothesis
properties pin the two implementations together on random scalars and
points, so any divergence in the optimised ladder is a test failure rather
than a consensus split.  A clock-free guard counts the point operations one
signature costs.

The batch-verification tests pin :meth:`EcdsaScheme.verify_batch` (the
sealed-block path that decodes each author key once) to the per-entry
:meth:`EcdsaScheme.verify`, including rejection of a tampered entry.

Examples per ``REPRO_FUZZ_PROFILE``: quick 20 (tier-1), standard 100
(nightly CI) and determinism 500.
"""

from __future__ import annotations

import dataclasses
import os

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.core.block import Block
from repro.core.entry import Entry
from repro.core.errors import AuthorizationError
from repro.core.validation import validate_block_signatures
from repro.crypto import ecdsa
from repro.crypto.ecdsa import (
    SECP256K1,
    CurvePoint,
    EcdsaSignature,
    _from_jacobian,
    _hash_to_int,
    _rfc6979_nonce,
    _shamir_combine,
    clear_decode_caches,
    decode_point,
    decode_signature,
    ecdsa_sign,
)
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import EcdsaScheme, SignedPayload, sign_entry

FUZZ_EXAMPLES = {"quick": 20, "standard": 100, "determinism": 500}[
    os.environ.get("REPRO_FUZZ_PROFILE", "quick")
]

N = SECP256K1.n

#: Scalars spanning the interesting ranges: tiny, boundary, full-width and
#: beyond-order values (both paths reduce ``k*P`` identically since nP = O).
scalars = st.one_of(
    st.integers(min_value=-4, max_value=4),
    st.integers(min_value=1, max_value=N + 4),
)

#: Non-trivial base points, generated as s*G through the fast path (cheap)
#: — every test that consumes one re-derives expectations through the
#: affine reference, so the generation route cannot mask a fast-path bug.
base_scalars = st.integers(min_value=1, max_value=N - 1)


class TestScalarMultiplication:
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(k=scalars)
    # Comb boundaries: table 0's first and last column (bits 0, 7), table
    # 1's first (8), the end of row 0 and start of row 1 (31, 32), the top
    # bit (255) and the top of the range; 2**256 - 1 is reduced mod n.
    @example(k=2**0)
    @example(k=2**7)
    @example(k=2**8)
    @example(k=2**31)
    @example(k=2**32)
    @example(k=2**255)
    @example(k=N - 1)
    @example(k=(N - 1) // 2)
    @example(k=2**256 - 1)
    def test_fixed_base_matches_affine(self, k):
        generator = CurvePoint.generator()
        assert k * generator == generator.affine_multiply(k)

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(k=scalars, s=base_scalars)
    def test_window_mult_matches_affine(self, k, s):
        point = s * CurvePoint.generator()
        assert k * point == point.affine_multiply(k)

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(a=base_scalars, b=base_scalars, s=base_scalars)
    def test_multiplication_distributes_over_addition(self, a, b, s):
        point = s * CurvePoint.generator()
        assert (a + b) * point == (a * point) + (b * point)

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(s=base_scalars)
    def test_double_matches_self_addition(self, s):
        point = s * CurvePoint.generator()
        assert 2 * point == point + point

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(u1=base_scalars, u2=base_scalars, s=base_scalars)
    def test_shamir_combination_matches_affine(self, u1, u2, s):
        """The verify equation ``u1*G + u2*Q`` (window ladder plus comb)
        against two affine multiplications and an affine addition."""
        generator = CurvePoint.generator()
        public = s * generator
        combined = _shamir_combine(u1, u2, public.x, public.y, SECP256K1)
        assert _from_jacobian(combined, SECP256K1) == generator.affine_multiply(
            u1
        ) + public.affine_multiply(u2)

    def test_order_multiple_is_infinity(self):
        generator = CurvePoint.generator()
        assert (N * generator).is_infinity
        assert (0 * generator).is_infinity
        assert generator.affine_multiply(N).is_infinity

    def test_negative_scalar_negates(self):
        generator = CurvePoint.generator()
        assert (-3) * generator == -(3 * generator)


def _reference_sign(private_key: int, message: bytes) -> EcdsaSignature:
    """ECDSA as written in the standard, ``k*G`` from the affine spec.

    The ``r == 0`` / ``s == 0`` retries are left out: they happen with
    probability ~2**-256.
    """
    z = _hash_to_int(message, SECP256K1)
    k = _rfc6979_nonce(private_key, z, SECP256K1)
    r = CurvePoint.generator().affine_multiply(k).x % N
    s = pow(k, -1, N) * (z + r * private_key) % N
    return EcdsaSignature(r=r, s=min(s, N - s))


class TestSigning:
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(private_key=base_scalars, message=st.binary(max_size=64))
    def test_sign_matches_affine_reference(self, private_key, message):
        assert ecdsa_sign(private_key, message) == _reference_sign(private_key, message)

    def test_one_signature_costs_at_most_32_additions_and_7_doublings(self, monkeypatch):
        """Clock-free: a 4-bit fixed-base window made ~60 additions per sign."""
        ecdsa_sign(1, b"builds the comb tables before counting")
        keys = [KeyPair.from_seed(f"cost-{index}").private_key for index in range(16)]
        calls = {"_jac_add_affine": 0, "_jac_double": 0}
        for name in calls:
            original = getattr(ecdsa, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(ecdsa, name, counted)
        for index, private_key in enumerate(keys):
            calls.update(dict.fromkeys(calls, 0))
            ecdsa_sign(private_key, b"%d" % index)
            assert calls["_jac_add_affine"] <= 32
            assert calls["_jac_double"] <= 7


class TestEncodingRoundTrip:
    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(s=base_scalars)
    def test_point_round_trip_through_cache(self, s):
        point = s * CurvePoint.generator()
        encoded = point.encode()
        assert decode_point(encoded) == point
        # The cached wrapper must agree with the raw classmethod.
        # repro: allow[REPRO-PERF501] pins the cache against the raw decoder
        assert decode_point(encoded) == CurvePoint.decode(encoded)

    @settings(max_examples=FUZZ_EXAMPLES, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**32))
    def test_signature_round_trip_through_cache(self, seed):
        key = KeyPair.from_seed(f"fastpath-{seed}")
        signature = ecdsa_sign(key.private_key, b"round trip")
        encoded = signature.encode()
        assert decode_signature(encoded) == signature
        # repro: allow[REPRO-PERF501] pins the cache against the raw decoder
        assert decode_signature(encoded) == EcdsaSignature.decode(encoded)

    def test_cache_survives_clearing(self):
        point = 7 * CurvePoint.generator()
        encoded = point.encode()
        assert decode_point(encoded) == point
        clear_decode_caches()
        assert decode_point(encoded) == point


def _signed_entries(authors: list[str]) -> list[Entry]:
    scheme = EcdsaScheme()
    entries = []
    for index, author in enumerate(authors):
        draft = Entry(data={"D": f"payload-{index}"}, author=author, signature="")
        entries.append(sign_entry(scheme, draft, author, KeyPair.from_seed(author)))
    return entries


class TestBatchVerification:
    def test_batch_matches_per_entry(self):
        scheme = EcdsaScheme()
        entries = _signed_entries(["ALPHA", "BRAVO", "ALPHA", "CHARLIE", "ALPHA"])
        batch = [
            SignedPayload(
                payload=entry.signing_payload(),
                signer=entry.author,
                signature=entry.signature,
                public_key=entry.public_key,
            )
            for entry in entries
        ]
        assert scheme.verify_batch(batch) == [scheme.verify(item) for item in batch]
        assert scheme.verify_batch(batch) == [True] * len(batch)

    def test_tampered_entry_rejected_in_batch(self):
        scheme = EcdsaScheme()
        entries = _signed_entries(["ALPHA", "BRAVO", "ALPHA"])
        tampered = dataclasses.replace(entries[1], data={"D": "forged"})
        batch = [
            SignedPayload(
                payload=entry.signing_payload(),
                signer=entry.author,
                signature=entry.signature,
                public_key=entry.public_key,
            )
            for entry in [entries[0], tampered, entries[2]]
        ]
        assert scheme.verify_batch(batch) == [True, False, True]

    def test_validate_block_signatures_accepts_sealed_block(self):
        entries = _signed_entries(["ALPHA", "BRAVO", "ALPHA", "BRAVO"])
        block = Block(block_number=1, timestamp=1, previous_hash="aa", entries=entries)
        validate_block_signatures(block, "ecdsa")

    def test_validate_block_signatures_names_offender(self):
        entries = _signed_entries(["ALPHA", "BRAVO"])
        tampered = dataclasses.replace(entries[1], data={"D": "forged"})
        block = Block(
            block_number=3,
            timestamp=1,
            previous_hash="aa",
            entries=[entries[0], tampered],
        )
        with pytest.raises(AuthorizationError, match="BRAVO"):
            validate_block_signatures(block, "ecdsa")
