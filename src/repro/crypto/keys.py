"""Key management for blockchain participants.

Every participant of the system (clients such as ALPHA/BRAVO/CHARLIE in the
evaluation, and the anchor nodes that jointly hold the master signature of
Section IV-D1) owns a key pair.  Entries store the participant's address
(``K`` field in the console figures) and a signature (``S`` field), and the
quorum grants a deletion request only when the requesting key matches the key
that signed the original entry.
"""

from __future__ import annotations

import hashlib
import secrets
from dataclasses import dataclass, field
from typing import Optional

from repro.crypto.ecdsa import (
    SECP256K1,
    CurveParameters,
    CurvePoint,
    EcdsaSignature,
    decode_point,
    decode_signature,
    derive_public_key,
    ecdsa_sign,
    ecdsa_verify,
)

#: Type alias for the printable address of a participant.
Address = str


def derive_address(public_key_encoding: str) -> Address:
    """Derive a printable address from a compressed public key encoding.

    The address is the truncated SHA-256 of the compressed point; 40 hex
    characters (160 bits) mirror the usual address length of production
    chains while staying readable in console dumps.
    """
    digest = hashlib.sha256(public_key_encoding.encode("utf-8")).hexdigest()
    return digest[:40]


@dataclass
class KeyPair:
    """An ECDSA key pair with convenience signing helpers.

    Key pairs can be generated randomly (:meth:`generate`) or derived
    deterministically from a human-readable seed (:meth:`from_seed`), which
    the evaluation scenario uses so that the ALPHA/BRAVO/CHARLIE keys are
    reproducible across runs.
    """

    private_key: int
    curve: CurveParameters = field(default=SECP256K1)
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if not 1 <= self.private_key < self.curve.n:
            raise ValueError("private key out of curve order range")
        # Derived once: the SEC1 encoding and the address used to be
        # recomputed on every property access, which in the hot loop meant a
        # fresh hex format + SHA-256 per signed message.
        self._public_point = derive_public_key(self.private_key, self.curve)
        self._public_key_hex = self._public_point.encode()
        self._address = derive_address(self._public_key_hex)

    @classmethod
    def generate(cls, *, label: Optional[str] = None, curve: CurveParameters = SECP256K1) -> "KeyPair":
        """Generate a fresh random key pair."""
        private_key = secrets.randbelow(curve.n - 1) + 1
        return cls(private_key=private_key, curve=curve, label=label)

    @classmethod
    def from_seed(cls, seed: str, *, curve: CurveParameters = SECP256K1) -> "KeyPair":
        """Derive a key pair deterministically from a seed string."""
        digest = hashlib.sha256(f"selective-deletion:{seed}".encode("utf-8")).digest()
        private_key = (int.from_bytes(digest, "big") % (curve.n - 1)) + 1
        return cls(private_key=private_key, curve=curve, label=seed)

    @property
    def public_key(self) -> CurvePoint:
        """The public curve point."""
        return self._public_point

    @property
    def public_key_hex(self) -> str:
        """Compressed SEC1 hex encoding of the public key (memoised)."""
        return self._public_key_hex

    @property
    def address(self) -> Address:
        """Printable address derived from the public key (memoised)."""
        return self._address

    def sign(self, message: bytes) -> EcdsaSignature:
        """Sign raw bytes with this key."""
        return ecdsa_sign(self.private_key, message, self.curve)

    def sign_text(self, message: str) -> str:
        """Sign a text message and return the hex-encoded signature."""
        return self.sign(message.encode("utf-8")).encode()

    def verify(self, message: bytes, signature: EcdsaSignature) -> bool:
        """Verify a signature made with this key pair's public key."""
        return ecdsa_verify(self._public_point, message, signature, self.curve)

    def __repr__(self) -> str:
        label = self.label or "anonymous"
        return f"KeyPair(label={label!r}, address={self.address[:12]}...)"


def verify_with_public_key(public_key_hex: str, message: bytes, signature_hex: str) -> bool:
    """Verify a hex signature against a compressed hex public key.

    This is the form in which keys and signatures travel inside blocks, so
    validation code never needs access to :class:`KeyPair` objects.
    """
    try:
        point = decode_point(public_key_hex)
        signature = decode_signature(signature_hex)
    except (ValueError, IndexError):
        return False
    return ecdsa_verify(point, message, signature)
