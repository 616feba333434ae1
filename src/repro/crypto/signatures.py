"""Signature schemes used on entries and deletion requests.

The paper's console figures (Figs. 6-8) print a *simplified* signature next
to each entry, e.g. ``S: sig_BRAVO``, while Section IV-D1 describes proper
client signatures whose keys the quorum compares when authorizing a deletion.
To support both faithful figure reproduction and a realistic authorization
path, signing is abstracted behind :class:`SignatureScheme` with two
implementations:

* :class:`SimplifiedScheme` — the paper's presentation form: the signature is
  a deterministic tag bound to the participant identity.  It is *not*
  cryptographically binding and exists to regenerate the console output
  verbatim and to keep micro-benchmarks focused on the chain mechanics.
* :class:`EcdsaScheme` — real secp256k1 signatures over the canonical entry
  payload, providing actual unforgeability for the authorization tests.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.crypto.ecdsa import decode_point, decode_signature, ecdsa_verify
from repro.crypto.hashing import canonical_json, sha256_hex
from repro.crypto.keys import KeyPair, verify_with_public_key

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core imports crypto)
    from repro.core.entry import Entry


@dataclass(frozen=True)
class SignedPayload:
    """A payload together with the identity and signature that covers it.

    Attributes
    ----------
    payload:
        The JSON-serialisable data that was signed.
    signer:
        Printable identity of the signer (user name or address).
    signature:
        Scheme-specific signature string.
    public_key:
        Compressed public key for asymmetric schemes, ``None`` for the
        simplified scheme.
    """

    payload: Any
    signer: str
    signature: str
    public_key: Optional[str] = None

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "payload": self.payload,
            "signer": self.signer,
            "signature": self.signature,
            "public_key": self.public_key,
        }


class SignatureScheme(ABC):
    """Strategy interface for producing and checking entry signatures."""

    #: Short name stored in blocks so validators know how to verify.
    name: str = "abstract"

    #: True when :meth:`sign` needs the signer's :class:`KeyPair`.
    needs_key_pair: bool = False

    @abstractmethod
    def sign(self, payload: Any, identity: str, key_pair: Optional[KeyPair] = None) -> SignedPayload:
        """Sign ``payload`` on behalf of ``identity``."""

    @abstractmethod
    def verify(self, signed: SignedPayload) -> bool:
        """Check a signed payload."""

    def verify_batch(self, batch: list[SignedPayload]) -> list[bool]:
        """Check many signed payloads in one pass.

        The default is a per-payload loop; schemes with per-signer setup
        costs (key decoding, point decompression) override this to reuse the
        decoded material across payloads by the same author — the anchor
        calls it with all entries of a sealed block at once.
        """
        return [self.verify(signed) for signed in batch]

    def same_signer(self, first: SignedPayload, second: SignedPayload) -> bool:
        """Decide whether two payloads were signed by the same participant.

        This is the check of Section IV-D1: a user *"is only allowed to
        submit delete requests for his own transactions"*, identified *"by
        comparing the signature of the user and the stored signature of a
        data entry"*.
        """
        if first.public_key and second.public_key:
            return first.public_key == second.public_key
        return first.signer == second.signer


class SimplifiedScheme(SignatureScheme):
    """Paper-style simplified signatures (``sig_<IDENTITY>`` plus payload tag)."""

    name = "simplified"

    def sign(self, payload: Any, identity: str, key_pair: Optional[KeyPair] = None) -> SignedPayload:
        """Produce a deterministic tag signature bound to the identity."""
        tag = sha256_hex(f"{identity}:{canonical_json(payload)}".encode("utf-8"))[:16]
        signature = f"sig_{identity}:{tag}"
        return SignedPayload(payload=payload, signer=identity, signature=signature)

    def verify(self, signed: SignedPayload) -> bool:
        """Recompute the tag and compare."""
        expected = self.sign(signed.payload, signed.signer)
        return expected.signature == signed.signature

    @staticmethod
    def display(signed: SignedPayload) -> str:
        """Console form used in the paper's figures (``sig_BRAVO``)."""
        return signed.signature.split(":", 1)[0]


class EcdsaScheme(SignatureScheme):
    """Real secp256k1 signatures over the canonical payload serialisation."""

    name = "ecdsa"
    needs_key_pair = True

    def sign(self, payload: Any, identity: str, key_pair: Optional[KeyPair] = None) -> SignedPayload:
        """Sign the canonical JSON form of ``payload`` with ``key_pair``."""
        if key_pair is None:
            raise ValueError("EcdsaScheme.sign requires a key pair")
        message = canonical_json({"identity": identity, "payload": payload}).encode("utf-8")
        signature = key_pair.sign(message).encode()
        return SignedPayload(
            payload=payload,
            signer=identity,
            signature=signature,
            public_key=key_pair.public_key_hex,
        )

    def verify(self, signed: SignedPayload) -> bool:
        """Verify the ECDSA signature against the embedded public key."""
        if not signed.public_key:
            return False
        message = canonical_json({"identity": signed.signer, "payload": signed.payload}).encode("utf-8")
        return verify_with_public_key(signed.public_key, message, signed.signature)

    def verify_batch(self, batch: list[SignedPayload]) -> list[bool]:
        """Verify a sealed block's worth of payloads in one pass.

        Entries by the same author share a public key; the point is
        decompressed once per distinct key (on top of the bounded LRU the
        decoders already keep) and reused for every signature it covers.
        """
        decoded_keys: dict[str, Any] = {}
        verdicts: list[bool] = []
        for signed in batch:
            if not signed.public_key:
                verdicts.append(False)
                continue
            point = decoded_keys.get(signed.public_key)
            if point is None:
                try:
                    point = decode_point(signed.public_key)
                except ValueError:
                    verdicts.append(False)
                    continue
                decoded_keys[signed.public_key] = point
            try:
                signature = decode_signature(signed.signature)
            except ValueError:
                verdicts.append(False)
                continue
            message = canonical_json(
                {"identity": signed.signer, "payload": signed.payload}
            ).encode("utf-8")
            verdicts.append(ecdsa_verify(point, message, signature))
        return verdicts


#: One shared instance per scheme name: schemes hold no state, so every
#: chain, client and validator signs and verifies through the same object.
_SCHEMES: dict[str, SignatureScheme] = {
    SimplifiedScheme.name: SimplifiedScheme(),
    EcdsaScheme.name: EcdsaScheme(),
}


def new_scheme(name: str) -> SignatureScheme:
    """The shared instance of a signature scheme by name (``simplified`` or ``ecdsa``)."""
    try:
        return _SCHEMES[name]
    except KeyError:
        known = ", ".join(sorted(_SCHEMES))
        raise ValueError(f"unknown signature scheme {name!r}; known schemes: {known}") from None


def sign_entry(
    scheme: SignatureScheme,
    entry: "Entry",
    identity: str,
    key_pair: Optional[KeyPair] = None,
) -> "Entry":
    """Sign ``entry`` on behalf of ``identity`` and return the signed copy.

    This is the one signing path shared by the chain façade (entries
    submitted in-process) and the light clients (entries signed before they
    travel to an anchor node) — both cover :meth:`Entry.signing_payload`, so
    an entry signed locally verifies identically after network transfer.
    The returned entry keeps the payload, kind and expiry bounds but carries
    the fresh signature, signer identity and (for asymmetric schemes) the
    public key.
    """
    from repro.core.entry import Entry

    signed = scheme.sign(entry.signing_payload(), identity, key_pair)
    return Entry(
        data=entry.data,
        author=identity,
        signature=signed.signature,
        public_key=signed.public_key,
        kind=entry.kind,
        expires_at_time=entry.expires_at_time,
        expires_at_block=entry.expires_at_block,
    )
