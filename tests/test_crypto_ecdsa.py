"""Unit tests for repro.crypto.ecdsa, repro.crypto.keys and signatures."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.ecdsa import (
    SECP256K1,
    CurvePoint,
    EcdsaSignature,
    _hash_to_int,
    _rfc6979_nonce,
    decode_point,
    decode_signature,
    derive_public_key,
    ecdsa_sign,
    ecdsa_verify,
    modular_inverse,
)
from repro.crypto.keys import KeyPair, derive_address, verify_with_public_key
from repro.crypto.signatures import (
    EcdsaScheme,
    SimplifiedScheme,
    new_scheme,
)


class TestCurveArithmetic:
    def test_generator_is_on_curve(self):
        point = CurvePoint.generator()
        assert not point.is_infinity

    def test_generator_order(self):
        assert (SECP256K1.n * CurvePoint.generator()).is_infinity

    def test_addition_commutes(self):
        g = CurvePoint.generator()
        assert (2 * g) + (3 * g) == (3 * g) + (2 * g)

    def test_addition_is_associative_on_multiples(self):
        g = CurvePoint.generator()
        assert ((2 * g) + (3 * g)) + (5 * g) == (2 * g) + ((3 * g) + (5 * g))

    def test_scalar_multiplication_matches_repeated_addition(self):
        g = CurvePoint.generator()
        total = CurvePoint.infinity()
        for _ in range(7):
            total = total + g
        assert total == 7 * g

    def test_point_plus_negative_is_infinity(self):
        p = 5 * CurvePoint.generator()
        assert (p + (-p)).is_infinity

    def test_infinity_is_neutral(self):
        p = 9 * CurvePoint.generator()
        assert p + CurvePoint.infinity() == p
        assert CurvePoint.infinity() + p == p

    def test_off_curve_point_rejected(self):
        with pytest.raises(ValueError):
            CurvePoint(SECP256K1, 1, 1)

    def test_compressed_encoding_roundtrip(self):
        for k in (1, 2, 3, 12345, SECP256K1.n - 1):
            point = k * CurvePoint.generator()
            # repro: allow[REPRO-PERF501] exercises the raw classmethod itself
            assert CurvePoint.decode(point.encode()) == point

    def test_decode_rejects_garbage(self):
        with pytest.raises(ValueError):
            # repro: allow[REPRO-PERF501] exercises the raw classmethod itself
            CurvePoint.decode("04deadbeef")

    def test_modular_inverse(self):
        assert modular_inverse(3, 7) == 5
        with pytest.raises(ZeroDivisionError):
            modular_inverse(0, 7)


class TestSignVerify:
    def test_sign_and_verify(self):
        key = KeyPair.from_seed("alpha")
        signature = ecdsa_sign(key.private_key, b"hello world")
        assert ecdsa_verify(key.public_key, b"hello world", signature)

    def test_wrong_message_fails(self):
        key = KeyPair.from_seed("alpha")
        signature = ecdsa_sign(key.private_key, b"hello world")
        assert not ecdsa_verify(key.public_key, b"hello mars", signature)

    def test_wrong_key_fails(self):
        key = KeyPair.from_seed("alpha")
        other = KeyPair.from_seed("bravo")
        signature = ecdsa_sign(key.private_key, b"hello world")
        assert not ecdsa_verify(other.public_key, b"hello world", signature)

    def test_signing_is_deterministic(self):
        key = KeyPair.from_seed("alpha")
        assert ecdsa_sign(key.private_key, b"msg") == ecdsa_sign(key.private_key, b"msg")

    def test_low_s_normalisation(self):
        key = KeyPair.from_seed("alpha")
        signature = ecdsa_sign(key.private_key, b"some message")
        assert signature.s <= SECP256K1.n // 2

    def test_signature_encoding_roundtrip(self):
        key = KeyPair.from_seed("alpha")
        signature = ecdsa_sign(key.private_key, b"roundtrip")
        # repro: allow[REPRO-PERF501] exercises the raw classmethod itself
        assert EcdsaSignature.decode(signature.encode()) == signature

    def test_invalid_signature_range_rejected(self):
        key = KeyPair.from_seed("alpha")
        bogus = EcdsaSignature(r=0, s=1)
        assert not ecdsa_verify(key.public_key, b"x", bogus)

    def test_verify_against_infinity_rejected(self):
        signature = ecdsa_sign(KeyPair.from_seed("a").private_key, b"x")
        assert not ecdsa_verify(CurvePoint.infinity(), b"x", signature)

    def test_private_key_out_of_range(self):
        with pytest.raises(ValueError):
            ecdsa_sign(0, b"x")
        with pytest.raises(ValueError):
            derive_public_key(SECP256K1.n)

    def test_rfc6979_known_answer(self):
        """The published secp256k1/SHA-256 vector: key 1, "Satoshi Nakamoto"."""
        message = b"Satoshi Nakamoto"
        nonce = _rfc6979_nonce(1, _hash_to_int(message, SECP256K1), SECP256K1)
        assert nonce == 0x8F8A276C19F4149656B280621E358CCE24F5F52542772691EE69063B74F15D15
        assert ecdsa_sign(1, message) == EcdsaSignature(
            r=0x934B1EA10A4B3C1757E2B0C017D0B6143CE3C9A7E6A4A49860D7A6AB210EE3D8,
            s=0x2442CE9D2B916064108014783E923EC36B49743E2FFA1C4496F01A512AAFD9E5,
        )


#: A valid compressed point whose ``x`` is 1 (1 + 7 = 8 is a square mod p),
#: so short spellings of its ``x`` still name a point on the curve.
X_ONE = "02" + format(1, "064x")


class TestCanonicalEncoding:
    """One key, one spelling: the decoders reject every other spelling."""

    def test_canonical_spellings_decode(self):
        assert decode_point(X_ONE).x == 1
        assert decode_signature(format(1, "064x") * 2) == EcdsaSignature(r=1, s=1)

    @pytest.mark.parametrize(
        "spelling",
        [
            CurvePoint.generator().encode().upper(),
            "02" + "0x" + format(1, "062x"),
            "02" + " " + format(1, "063x"),
            "02" + format(SECP256K1.p + 1, "064x"),
        ],
        ids=["upper-case", "0x-prefix", "leading-whitespace", "x-not-reduced"],
    )
    def test_point_decode_rejects_other_spellings(self, spelling):
        with pytest.raises(ValueError, match="non-canonical"):
            decode_point(spelling)

    @pytest.mark.parametrize(
        "spelling",
        [
            ecdsa_sign(7, b"spelling").encode().upper(),
            "0x" + format(1, "062x") + format(1, "064x"),
            " " + format(1, "063x") + format(1, "064x"),
        ],
        ids=["upper-case", "0x-prefix", "leading-whitespace"],
    )
    def test_signature_decode_rejects_other_spellings(self, spelling):
        with pytest.raises(ValueError, match="non-canonical"):
            decode_signature(spelling)

    def test_verify_rejects_upper_case_key_and_signature(self):
        key = KeyPair.from_seed("charlie")
        signature_hex = key.sign_text("login event")
        assert verify_with_public_key(key.public_key_hex, b"login event", signature_hex)
        assert not verify_with_public_key(
            key.public_key_hex.upper(), b"login event", signature_hex.upper()
        )


class TestKeyPair:
    def test_from_seed_is_deterministic(self):
        assert KeyPair.from_seed("alpha").address == KeyPair.from_seed("alpha").address

    def test_generate_produces_distinct_keys(self):
        assert KeyPair.generate().address != KeyPair.generate().address

    def test_address_length(self):
        assert len(KeyPair.from_seed("alpha").address) == 40

    def test_derive_address_is_stable(self):
        key = KeyPair.from_seed("alpha")
        assert derive_address(key.public_key_hex) == key.address

    def test_sign_text_and_verify_with_public_key(self):
        key = KeyPair.from_seed("charlie")
        signature_hex = key.sign_text("login event")
        assert verify_with_public_key(key.public_key_hex, b"login event", signature_hex)
        assert not verify_with_public_key(key.public_key_hex, b"other", signature_hex)

    def test_verify_with_malformed_inputs(self):
        assert not verify_with_public_key("zz", b"m", "00")
        key = KeyPair.from_seed("alpha")
        assert not verify_with_public_key(key.public_key_hex, b"m", "not-a-signature")

    def test_rejects_invalid_private_key(self):
        with pytest.raises(ValueError):
            KeyPair(private_key=0)


class TestSignatureSchemes:
    def test_simplified_roundtrip(self):
        scheme = SimplifiedScheme()
        signed = scheme.sign({"D": "Login"}, "ALPHA")
        assert scheme.verify(signed)
        assert SimplifiedScheme.display(signed) == "sig_ALPHA"

    def test_simplified_tamper_detection(self):
        scheme = SimplifiedScheme()
        signed = scheme.sign({"D": "Login"}, "ALPHA")
        forged = type(signed)(payload={"D": "Logout"}, signer="ALPHA", signature=signed.signature)
        assert not scheme.verify(forged)

    def test_ecdsa_scheme_roundtrip(self):
        scheme = EcdsaScheme()
        key = KeyPair.from_seed("bravo")
        signed = scheme.sign({"D": "Login"}, "BRAVO", key)
        assert scheme.verify(signed)

    def test_ecdsa_scheme_requires_key(self):
        with pytest.raises(ValueError):
            EcdsaScheme().sign({"D": "Login"}, "BRAVO")

    def test_ecdsa_scheme_rejects_missing_public_key(self):
        scheme = EcdsaScheme()
        key = KeyPair.from_seed("bravo")
        signed = scheme.sign({"D": "Login"}, "BRAVO", key)
        stripped = type(signed)(payload=signed.payload, signer=signed.signer, signature=signed.signature)
        assert not scheme.verify(stripped)

    def test_same_signer_comparison(self):
        scheme = EcdsaScheme()
        key = KeyPair.from_seed("bravo")
        other = KeyPair.from_seed("alpha")
        first = scheme.sign({"n": 1}, "BRAVO", key)
        second = scheme.sign({"n": 2}, "BRAVO", key)
        third = scheme.sign({"n": 3}, "BRAVO", other)
        assert scheme.same_signer(first, second)
        assert not scheme.same_signer(first, third)

    def test_new_scheme_factory(self):
        assert isinstance(new_scheme("simplified"), SimplifiedScheme)
        assert isinstance(new_scheme("ecdsa"), EcdsaScheme)
        with pytest.raises(ValueError):
            new_scheme("quantum")


@settings(max_examples=10, deadline=None)
@given(st.binary(min_size=0, max_size=64), st.text(min_size=1, max_size=12))
def test_sign_verify_property(message, seed):
    key = KeyPair.from_seed(seed)
    signature = key.sign(message)
    assert key.verify(message, signature)


@settings(max_examples=10, deadline=None)
@given(st.integers(min_value=1, max_value=2**64))
def test_public_key_derivation_is_group_homomorphism(k):
    g = CurvePoint.generator()
    assert derive_public_key(k % SECP256K1.n or 1) == (k % SECP256K1.n or 1) * g
