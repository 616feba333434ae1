"""Hash primitives used throughout the blockchain.

The paper chains blocks by storing the hash of the previous block header in
each block (Section IV-A).  The Genesis Block of the evaluation prototype
carries the previous hash ``DEADB`` (Fig. 6); we keep that constant so the
console figures can be reproduced verbatim.

Every hash is SHA-256 over canonical JSON (sorted keys, fixed separators):
:func:`hash_hex` serialises any value, a block hashes its content bytes —
composed once from its entries' memos — with :func:`sha256_hex`.  Canonical
serialisation makes summary blocks deterministic: every anchor node computes
the identical block hash from the identical agreed chain state (Section IV-B).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

#: Previous-hash value of the very first Genesis Block, as printed in Fig. 6
#: of the paper.
GENESIS_PREVIOUS_HASH = "DEADB"

#: Number of hex characters of a full SHA-256 digest.
FULL_DIGEST_LENGTH = 64


def sha256_hex(data: bytes) -> str:
    """Return the SHA-256 digest of ``data`` as a lowercase hex string."""
    return hashlib.sha256(data).hexdigest()


def sha256_hex_parts(parts: Iterable[bytes]) -> str:
    """:func:`sha256_hex` of the concatenated ``parts``, streamed part by part."""
    digest = hashlib.sha256()
    for part in parts:
        digest.update(part)
    return digest.hexdigest()


def canonical_json(value: Any) -> str:
    """Serialise ``value`` to a canonical JSON string.

    Keys are sorted and separators are fixed so that two structurally equal
    Python objects always produce byte-identical serialisations.  This is the
    property that lets every anchor node compute the same summary-block hash
    without exchanging the block (Section IV-B).

    The serialiser lets immutable domain objects (entries, blocks,
    redundancy records) memoise their own canonical form via a
    ``__canonical_json__`` method: re-hashing a summary block then reuses the
    cached per-entry strings instead of re-serialising every entry from
    scratch.  Plain structures (no memoised objects anywhere) take the fast C
    encoder; a container that does hold a memoised object is composed by a
    recursive Python composer, whose plain parts again take the C encoder.
    Either way the output is byte-identical to ``json.dumps(value,
    sort_keys=True, separators=(",", ":"))`` on the fully expanded structure.

    Fast path: values whose concrete type is a builtin container or scalar
    cannot carry the memo hook, so they skip the per-value ``getattr`` probe
    and go straight to a single reused C encoder (``json.dumps`` with
    non-default options builds a fresh ``JSONEncoder`` per call — measurably
    hot when every block hash serialises through here).
    """
    return _canonical(value)


class _NeedsComposition(Exception):
    """Raised mid-C-encoding when a memoised domain object is encountered."""


def _dumps_default(value: Any) -> Any:
    if getattr(value, "__canonical_json__", None) is not None:
        raise _NeedsComposition
    return _encode_fallback(value)


#: Builtin types that can never carry the ``__canonical_json__`` memo hook —
#: they bypass the attribute probe entirely.  Subclasses (str-Enums!) are
#: deliberately absent: ``value.__class__`` must match exactly.
_PLAIN_TYPES = frozenset((dict, list, tuple, str, int, float, bool, type(None)))

#: One reused canonical encoder; ``.encode`` is byte-identical to
#: ``json.dumps(value, sort_keys=True, separators=(",", ":"),
#: default=_dumps_default)`` without rebuilding the encoder per call.
_encode_canonical = json.JSONEncoder(
    sort_keys=True, separators=(",", ":"), default=_dumps_default
).encode


def _canonical(value: Any) -> str:
    if value.__class__ in _PLAIN_TYPES:
        try:
            return _encode_canonical(value)
        except _NeedsComposition:  # a memoised object inside: compose this container
            pass
    elif isinstance(value, (str, int, float)):
        # Scalar subclasses such as str-Enums delegate to json.dumps so
        # escaping and number formatting match exactly.
        return json.dumps(value)
    elif getattr(value, "__canonical_json__", None) is not None:
        return value.__canonical_json__()
    if isinstance(value, dict):
        if all(type(key) is str for key in value):
            return (
                "{"
                + ",".join(json.dumps(key) + ":" + _canonical(item) for key, item in sorted(value.items()))
                + "}"
            )
        # Non-string keys: defer to json.dumps, whose key coercion rules are
        # subtle; correctness beats caching for this rare case.
        return json.dumps(value, sort_keys=True, separators=(",", ":"), default=_encode_fallback)
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    return _canonical(_encode_fallback(value))


def _encode_fallback(value: Any) -> Any:
    """JSON fallback encoder for objects exposing ``to_dict``."""
    to_dict = getattr(value, "to_dict", None)
    if callable(to_dict):
        return to_dict()
    raise TypeError(f"object of type {type(value).__name__} is not JSON serialisable")


def canonical_size(value: Any) -> int:
    """``len(canonical_json(value).encode("utf-8"))`` from one C-encoder pass in
    which each memoised object stands in as ``0`` and adds its own text's length."""
    texts: list[str] = []

    def stand_in(obj: Any) -> Any:
        hook = getattr(obj, "__canonical_json__", None)
        if hook is None:
            return _encode_fallback(obj)
        texts.append(hook())
        return 0

    skeleton = json.JSONEncoder(sort_keys=True, separators=(",", ":"), default=stand_in).encode(value)
    return len(skeleton.encode("utf-8")) + sum(len(text.encode("utf-8")) - 1 for text in texts)


def hash_hex(value: Any, *, digest_length: int = FULL_DIGEST_LENGTH) -> str:
    """Hash an arbitrary JSON-serialisable ``value``.

    Parameters
    ----------
    value:
        Any JSON-serialisable structure (or an object with ``to_dict``).
    digest_length:
        Number of leading hex characters to keep.  The paper's console
        output (Figs. 6-8) prints truncated five-character hashes; the chain
        itself always uses the full digest.
    """
    digest = sha256_hex(canonical_json(value).encode("utf-8"))
    return digest[:digest_length]


def hash_pair(left: str, right: str) -> str:
    """Hash the concatenation of two hex digests (Merkle-tree node rule)."""
    return sha256_hex((left + right).encode("utf-8"))


def truncate_hash(digest: str, length: int = 5) -> str:
    """Shorten a digest for display, mimicking the paper's console figures."""
    if length <= 0:
        raise ValueError("length must be positive")
    return digest[:length].upper()
