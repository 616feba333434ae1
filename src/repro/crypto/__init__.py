"""Cryptographic substrate for the selective-deletion blockchain.

The paper relies on three cryptographic building blocks:

* a collision-resistant hash function used to chain blocks and to build the
  Merkle-root redundancy of Fig. 9 (``hashing``, ``merkle``),
* client signatures on entries and deletion requests used for authorization
  in Section IV-D1 (``ecdsa``, ``keys``, ``signatures``),
* and, for the related-work baseline of Section III, a chameleon hash with a
  trapdoor that allows block redaction without breaking the chain
  (``chameleon``).

Everything is implemented from scratch on top of :mod:`hashlib` so the
library has no third-party runtime dependencies.
"""

from repro.crypto.hashing import (
    GENESIS_PREVIOUS_HASH,
    canonical_json,
    hash_hex,
    hash_pair,
    sha256_hex,
)
from repro.crypto.merkle import MerkleProof, MerkleTree, merkle_root
from repro.crypto.ecdsa import (
    SECP256K1,
    CurvePoint,
    EcdsaSignature,
    decode_point,
    decode_signature,
    ecdsa_sign,
    ecdsa_verify,
)
from repro.crypto.keys import Address, KeyPair, derive_address
from repro.crypto.signatures import (
    EcdsaScheme,
    SignatureScheme,
    SignedPayload,
    SimplifiedScheme,
    new_scheme,
)
from repro.crypto.chameleon import ChameleonHash, ChameleonParameters, Collision

__all__ = [
    "GENESIS_PREVIOUS_HASH",
    "canonical_json",
    "hash_hex",
    "hash_pair",
    "sha256_hex",
    "MerkleProof",
    "MerkleTree",
    "merkle_root",
    "SECP256K1",
    "CurvePoint",
    "EcdsaSignature",
    "decode_point",
    "decode_signature",
    "ecdsa_sign",
    "ecdsa_verify",
    "Address",
    "KeyPair",
    "derive_address",
    "EcdsaScheme",
    "SignatureScheme",
    "SignedPayload",
    "SimplifiedScheme",
    "new_scheme",
    "ChameleonHash",
    "ChameleonParameters",
    "Collision",
]
