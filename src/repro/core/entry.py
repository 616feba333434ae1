"""Entries — the data records stored inside blocks.

The console figures of the paper show entries with three fields: ``D`` stores
the data record, ``K`` holds the user and ``S`` poses as the signature.  On
top of plain data entries the concept introduces two special entry flavours:

* **deletion requests** (Section IV-D): signed entries referencing the block
  number and entry number of the record to be forgotten,
* **temporary entries** (Section IV-D4): ordinary entries extended by an
  optional expiry field — a maximum timestamp τ or block number α — after
  which the entry is no longer copied into summary blocks.

Entries know their origin: when the summarizer copies an entry into a
summary block it preserves the original block number, timestamp and entry
number (Fig. 4), so provenance survives arbitrarily many summarisation
rounds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any, Mapping, Optional

from repro.core.errors import DeletionError, SchemaError


class EntryKind(str, Enum):
    """Discriminates ordinary data entries from deletion requests."""

    DATA = "data"
    DELETION_REQUEST = "deletion_request"


@dataclass(frozen=True)
class EntryReference:
    """Reference to an entry by block number and entry number (Section IV-D).

    The paper addresses the record to be deleted *"by the block number and
    the according entry number, in which the data set is stored"*.  Entry
    numbers are 1-based within their block, as in the console figures.
    """

    block_number: int
    entry_number: int

    def __post_init__(self) -> None:
        if self.block_number < 0:
            raise DeletionError("referenced block number must be non-negative")
        if self.entry_number < 1:
            raise DeletionError("referenced entry number must be 1-based and positive")

    def to_dict(self) -> dict[str, int]:
        """Return a JSON-serialisable representation."""
        return {"block_number": self.block_number, "entry_number": self.entry_number}

    def __canonical_json__(self) -> str:
        """Canonical form: the serialised :meth:`to_dict` payload."""
        from repro.crypto.hashing import canonical_json

        return canonical_json(self.to_dict())

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "EntryReference":
        """Rebuild a reference from :meth:`to_dict` output."""
        return cls(block_number=int(payload["block_number"]), entry_number=int(payload["entry_number"]))

    def __str__(self) -> str:
        return f"block {self.block_number}, entry {self.entry_number}"


@dataclass(frozen=True)
class Entry:
    """A single record inside a block.

    Attributes
    ----------
    data:
        The entry payload (``D`` plus any further schema fields).  For
        deletion requests this contains the target reference.
    author:
        The submitting participant (``K``).
    signature:
        Signature string over the signing payload (``S``).
    public_key:
        Compressed public key when the ECDSA scheme is used, else ``None``.
    kind:
        :class:`EntryKind` discriminator.
    entry_number:
        1-based position within the containing block; assigned when the
        entry is placed into a block.
    expires_at_time / expires_at_block:
        Optional temporary-entry bounds τ / α (Section IV-D4).
    origin_block_number / origin_timestamp / origin_entry_number:
        Provenance of entries copied into summary blocks (Fig. 4); ``None``
        for entries still sitting in their original block.
    """

    data: Mapping[str, Any]
    author: str
    signature: str
    public_key: Optional[str] = None
    kind: EntryKind = EntryKind.DATA
    entry_number: Optional[int] = None
    expires_at_time: Optional[int] = None
    expires_at_block: Optional[int] = None
    origin_block_number: Optional[int] = None
    origin_timestamp: Optional[int] = None
    origin_entry_number: Optional[int] = None
    #: Memoised canonical JSON of :meth:`to_dict`.  Entries are frozen, so
    #: the serialisation never changes; ``dataclasses.replace`` (used by
    #: :meth:`as_copy` / :meth:`with_entry_number`) re-initialises the field,
    #: dropping the memo for the derived entry.
    _canonical_cache: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.author:
            raise SchemaError("entry author must not be empty")
        if self.entry_number is not None and self.entry_number < 1:
            raise SchemaError("entry_number is 1-based and must be positive")
        if self.expires_at_time is not None and self.expires_at_time < 0:
            raise SchemaError("expires_at_time must be non-negative")
        if self.expires_at_block is not None and self.expires_at_block < 0:
            raise SchemaError("expires_at_block must be non-negative")

    # ------------------------------------------------------------------ #
    # Classification helpers
    # ------------------------------------------------------------------ #

    @property
    def is_deletion_request(self) -> bool:
        """True when this entry is a deletion request."""
        return self.kind is EntryKind.DELETION_REQUEST

    @property
    def is_temporary(self) -> bool:
        """True when the entry carries an expiry bound (Section IV-D4)."""
        return self.expires_at_time is not None or self.expires_at_block is not None

    @property
    def is_copy(self) -> bool:
        """True when the entry was copied into a summary block."""
        return self.origin_block_number is not None

    def is_expired(self, *, current_time: int, current_block: int) -> bool:
        """Check the temporary-entry bounds against the current chain head."""
        if self.expires_at_time is not None and current_time > self.expires_at_time:
            return True
        if self.expires_at_block is not None and current_block > self.expires_at_block:
            return True
        return False

    # ------------------------------------------------------------------ #
    # Deletion-request helpers
    # ------------------------------------------------------------------ #

    def deletion_target(self) -> EntryReference:
        """Return the reference a deletion request points at."""
        if not self.is_deletion_request:
            raise DeletionError("entry is not a deletion request")
        try:
            return EntryReference.from_dict(self.data["target"])
        except (KeyError, TypeError) as exc:
            raise DeletionError("deletion request is missing its target reference") from exc

    # ------------------------------------------------------------------ #
    # Provenance
    # ------------------------------------------------------------------ #

    def location_key(self, block_number: int) -> tuple[int, int]:
        """``(block number, entry number)`` of this entry sitting in ``block_number``.

        For copies inside summary blocks the *original* coordinates are used,
        because deletion requests always address the initially integrated
        position (Fig. 4 keeps block number and entry number unchanged).
        """
        if self.entry_number is None and self.origin_entry_number is None:
            raise DeletionError("entry has not been placed into a block yet")
        if self.origin_block_number is not None:
            return self.origin_block_number, self.origin_entry_number or self.entry_number or 1
        assert self.entry_number is not None
        return block_number, self.entry_number

    def reference_in(self, block_number: int) -> EntryReference:
        """:meth:`location_key` as a validated :class:`EntryReference`."""
        return EntryReference(*self.location_key(block_number))

    def as_copy(self, *, origin_block_number: int, origin_timestamp: int) -> "Entry":
        """Return a copy of this entry tagged with its origin coordinates.

        Used by the summarizer when carrying an entry forward.  Copies of
        copies keep the very first origin, so provenance never degrades.
        """
        if self.is_copy:
            return self
        return replace(
            self,
            origin_block_number=origin_block_number,
            origin_timestamp=origin_timestamp,
            origin_entry_number=self.entry_number,
        )

    def with_entry_number(self, entry_number: int) -> "Entry":
        """Return a copy with the in-block entry number assigned."""
        return replace(self, entry_number=entry_number)

    # ------------------------------------------------------------------ #
    # Signing and serialisation
    # ------------------------------------------------------------------ #

    def signing_payload(self) -> dict[str, Any]:
        """The exact structure covered by the entry signature.

        Origin coordinates and the entry number are *excluded*: they are
        assigned by the chain after signing (and change when an entry is
        copied into a summary block), whereas the signature must stay valid
        across summarisation (Section IV-B determinism).
        """
        return {
            "data": dict(self.data),
            "author": self.author,
            "kind": self.kind.value,
            "expires_at_time": self.expires_at_time,
            "expires_at_block": self.expires_at_block,
        }

    def __canonical_json__(self) -> str:
        """Cached canonical JSON of :meth:`to_dict`.

        Merkle roots and block hashes serialise every entry they cover; with
        hundreds of carried copies per summary block this memo turns the
        repeated serialisation work into a single dict lookup.  The cache is
        sound because entries are frozen (Section IV-B determinism relies on
        their payload never changing after signing).
        """
        if self._canonical_cache is None:
            from repro.crypto.hashing import canonical_json

            # repro: allow[REPRO-F301] write-once memo of a pure function of frozen fields
            object.__setattr__(self, "_canonical_cache", canonical_json(self.to_dict()))
        return self._canonical_cache

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "data": dict(self.data),
            "author": self.author,
            "signature": self.signature,
            "public_key": self.public_key,
            "kind": self.kind.value,
            "entry_number": self.entry_number,
            "expires_at_time": self.expires_at_time,
            "expires_at_block": self.expires_at_block,
            "origin_block_number": self.origin_block_number,
            "origin_timestamp": self.origin_timestamp,
            "origin_entry_number": self.origin_entry_number,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "Entry":
        """Rebuild an entry from :meth:`to_dict` output."""
        return cls(
            data=dict(payload["data"]),
            author=str(payload["author"]),
            signature=str(payload["signature"]),
            public_key=payload.get("public_key"),
            kind=EntryKind(payload.get("kind", EntryKind.DATA.value)),
            entry_number=payload.get("entry_number"),
            expires_at_time=payload.get("expires_at_time"),
            expires_at_block=payload.get("expires_at_block"),
            origin_block_number=payload.get("origin_block_number"),
            origin_timestamp=payload.get("origin_timestamp"),
            origin_entry_number=payload.get("origin_entry_number"),
        )

    def display(self) -> str:
        """Console form mimicking the paper's figures.

        Example: ``1: D: Login ALPHA; K: ALPHA; S: sig_ALPHA``.
        """
        number = self.entry_number if self.entry_number is not None else "?"
        if self.is_deletion_request:
            target = self.deletion_target()
            body = f"DEL: {target}; K: {self.author}; S: {self._display_signature()}"
        else:
            record = self.data.get("D", self.data)
            body = f"D: {record}; K: {self.author}; S: {self._display_signature()}"
        if self.is_copy:
            body += f" [origin: block {self.origin_block_number}, entry {self.origin_entry_number}]"
        if self.is_temporary:
            bounds = []
            if self.expires_at_time is not None:
                bounds.append(f"tau<={self.expires_at_time}")
            if self.expires_at_block is not None:
                bounds.append(f"alpha<={self.expires_at_block}")
            body += f" [temporary: {', '.join(bounds)}]"
        return f"{number}: {body}"

    def _display_signature(self) -> str:
        if self.signature.startswith("sig_"):
            return self.signature.split(":", 1)[0]
        return self.signature[:12]
