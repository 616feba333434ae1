"""Blocks and summary blocks.

A block header consists of the block number α, the timestamp τ, the previous
block hash, the own block hash, and — for mined chains — a nonce (Fig. 6
prints ``block number; timestamp; previous block hash; own block hash;
optional data entry``).

Summary blocks Σ are a special block type introduced in Section IV-B.  They
contain deterministic information only, carry the same timestamp as the block
before them, are created locally by every anchor node (no propagation) and
absorb the data of expiring sequences.  On top of the copied entries a
summary block can embed redundancy material — the data or Merkle root of a
middle sequence — to hamper the 51 % attack (Section V-B1, Fig. 9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Iterator, Mapping, Optional, Sequence

from repro.crypto.hashing import GENESIS_PREVIOUS_HASH, canonical_json, sha256_hex, sha256_hex_parts, truncate_hash
from repro.core.entry import Entry
from repro.core.errors import ChainIntegrityError

#: Opening of ``to_dict()``'s canonical form (``"block_hash"`` sorts first).
_HASH_MEMBER = '{{"block_hash":"{}",'

#: Opening of the content's canonical form (``"entries"`` sorts first).
_ENTRIES_OPEN = b'{"entries":['


class BlockType(str, Enum):
    """Discriminates ordinary blocks from summary blocks Σ."""

    NORMAL = "normal"
    SUMMARY = "summary"


@dataclass(frozen=True)
class RedundancyRecord:
    """Redundancy material embedded in a summary block (Fig. 9).

    Either the Merkle root of the referenced middle sequence
    (``merkle_root`` set, ``entries`` empty) or a full copy of its data
    (``entries`` populated), depending on the configured
    :class:`~repro.core.config.RedundancyPolicy`.
    """

    sequence_index: int
    first_block_number: int
    last_block_number: int
    merkle_root: Optional[str] = None
    entries: tuple[Entry, ...] = ()
    _canonical_cache: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation."""
        return {
            "sequence_index": self.sequence_index,
            "first_block_number": self.first_block_number,
            "last_block_number": self.last_block_number,
            "merkle_root": self.merkle_root,
            "entries": [entry.to_dict() for entry in self.entries],
        }

    def __canonical_json__(self) -> str:
        """Cached canonical JSON, composed from the entries' own memos."""
        if self._canonical_cache is None:
            payload = {
                "sequence_index": self.sequence_index,
                "first_block_number": self.first_block_number,
                "last_block_number": self.last_block_number,
                "merkle_root": self.merkle_root,
                "entries": list(self.entries),
            }
            # repro: allow[REPRO-F301] write-once memo of a pure function of frozen fields
            object.__setattr__(self, "_canonical_cache", canonical_json(payload))
        return self._canonical_cache

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "RedundancyRecord":
        """Rebuild a record from :meth:`to_dict` output."""
        return cls(
            sequence_index=int(payload["sequence_index"]),
            first_block_number=int(payload["first_block_number"]),
            last_block_number=int(payload["last_block_number"]),
            merkle_root=payload.get("merkle_root"),
            entries=tuple(Entry.from_dict(item) for item in payload.get("entries", ())),
        )


@dataclass(frozen=True)
class CarryRecord:
    """What a summary hands the cycle that merges it: its entries' memos and
    :meth:`Entry.location_key` tuples (one pointer each, ``keys`` ``None``
    where an entry's key depends on the block holding it), and the
    ``registry`` whose first ``watermark`` decisions left every entry
    unmarked; only later approvals and the ``watch`` positions (temporaries,
    deletion requests) can drop one.  ``runs`` says where the entries came
    from, in order: ``(source, start, stop)`` is ``source``'s entries
    ``start..stop-1``, and a ``None`` source marks new copies at positions
    ``start..stop-1`` of the summary itself (empty for a record derived from
    a loaded or foreign block).  A block replayed from a journal keeps a
    record of its memos alone (``registry`` ``None``); a cycle that merges it
    derives the rest."""

    memos: list[str]
    keys: Optional[list[tuple[int, int]]]
    registry: object
    watermark: int
    watch: tuple[int, ...]
    runs: tuple[tuple[Optional[int], int, int], ...] = ()


@dataclass
class Block:
    """A block of the selective-deletion blockchain.

    Blocks are conceptually immutable once appended; the only mutation the
    library performs is setting the proof-of-work nonce through
    :meth:`set_nonce`, which invalidates the cached hash.
    """

    block_number: int
    timestamp: int
    previous_hash: str
    entries: list[Entry] = field(default_factory=list)
    block_type: BlockType = BlockType.NORMAL
    nonce: int = 0
    redundancy: list[RedundancyRecord] = field(default_factory=list)
    merged_sequences: list[int] = field(default_factory=list)
    summary_references: list[dict[str, Any]] = field(default_factory=list)
    _carry: Optional[CarryRecord] = field(default=None, repr=False, compare=False)  # entries taken as given
    _cached_hash: Optional[str] = field(default=None, init=False, repr=False, compare=False)
    _cached_byte_size: Optional[int] = field(default=None, init=False, repr=False, compare=False)
    _entry_lookup: Optional[dict[int, Entry]] = field(default=None, init=False, repr=False, compare=False)
    _keys: Optional[list[tuple[int, int]]] = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.block_number < 0:
            raise ChainIntegrityError("block number must be non-negative")
        if self.timestamp < 0:
            raise ChainIntegrityError("timestamp must be non-negative")
        if not self.previous_hash:
            raise ChainIntegrityError("previous hash must not be empty")
        self.entries = list(self.entries) if self._carry is not None else [
            entry if entry.entry_number is not None else entry.with_entry_number(index)
            for index, entry in enumerate(self.entries, start=1)
        ]

    # ------------------------------------------------------------------ #
    # Classification
    # ------------------------------------------------------------------ #

    @property
    def is_summary(self) -> bool:
        """True for summary blocks Σ."""
        return self.block_type is BlockType.SUMMARY

    @property
    def is_genesis_origin(self) -> bool:
        """True for the original block 0 (previous hash ``DEADB``)."""
        return self.block_number == 0 and self.previous_hash == GENESIS_PREVIOUS_HASH

    @property
    def entry_count(self) -> int:
        """Number of entries stored in the block."""
        return len(self.entries)

    # ------------------------------------------------------------------ #
    # Hashing
    # ------------------------------------------------------------------ #

    def header_dict(self) -> dict[str, Any]:
        """Header fields that identify the block (content excluded)."""
        return {
            "block_number": self.block_number,
            "timestamp": self.timestamp,
            "previous_hash": self.previous_hash,
            "block_type": self.block_type.value,
            "nonce": self.nonce,
        }

    def content_dict(self) -> dict[str, Any]:
        """Full hashable content of the block, as plain JSON-ready dicts."""
        payload = self._hashable_content()
        payload["entries"] = [entry.to_dict() for entry in payload["entries"]]
        payload["redundancy"] = [record.to_dict() for record in payload["redundancy"]]
        return payload

    def _hashable_content(self) -> dict[str, Any]:
        """Same canonical form as :meth:`content_dict`, but carrying the
        domain objects themselves so their ``__canonical_json__`` memos are
        reused instead of re-serialising every entry.  :meth:`content_dict`
        derives from this, so the content shape is defined exactly once."""
        return {
            "header": self.header_dict(),
            "entries": list(self.entries),
            "redundancy": list(self.redundancy),
            "merged_sequences": list(self.merged_sequences),
            "summary_references": list(self.summary_references),
        }

    def entry_memos(self) -> list[str]:
        """The entries' canonical JSON memos, in order (a summary keeps its list)."""
        carry = self._carry
        return carry.memos if carry is not None else [entry.__canonical_json__() for entry in self.entries]

    def fields_json(self) -> str:
        """Canonical JSON of the content without ``"entries"``: the one
        encoding of a block's other fields, for its hash and its journal
        record alike."""
        payload = self._hashable_content()
        del payload["entries"]
        return canonical_json(payload)

    def _content_parts(self) -> tuple[bytes, bytes, bytes]:
        """The bytes of :meth:`content_dict`'s canonical JSON in three parts:
        the opening, the entries' memos joined directly, and
        :meth:`fields_json` (``"entries"`` sorts before every other content
        key).  Hashed part by part, never concatenated."""
        joined = ",".join(self.entry_memos()).encode("utf-8")
        return _ENTRIES_OPEN, joined, ("]," + self.fields_json()[1:]).encode("utf-8")

    def _canonical_content(self) -> str:
        """Canonical JSON of :meth:`content_dict`, as one text."""
        return b"".join(self._content_parts()).decode("utf-8")

    def _hash_parts(self) -> tuple[str, int]:
        """The sha256 of :meth:`_content_parts` and their total length."""
        parts = self._content_parts()
        return sha256_hex_parts(parts), sum(map(len, parts))

    def compute_hash(self) -> str:
        """Recompute the block hash, ignoring the block-level memos.

        Streams the bytes of :meth:`_content_parts` into one sha256.  The
        per-entry canonical memos *are* reused: entries are frozen, so their
        serialisation cannot legitimately change after construction
        (mutating an entry's ``data`` dict in place violates that contract
        and is not detected here).  For a fully from-scratch recomputation,
        hash :meth:`content_dict` directly.
        """
        return self._hash_parts()[0]

    def _memoise_hash_and_size(self) -> None:
        """Derive the block hash and :meth:`byte_size` from one composition."""
        self._cached_hash, length = self._hash_parts()
        # to_dict()'s canonical form replaces the content's opening brace.
        self._cached_byte_size = len(_HASH_MEMBER.format(self._cached_hash)) + length - 1

    @property
    def block_hash(self) -> str:
        """Cached block hash."""
        if self._cached_hash is None:
            self._memoise_hash_and_size()
        return self._cached_hash

    def set_nonce(self, nonce: int) -> None:
        """Update the proof-of-work nonce and invalidate every derived cache.

        Must be called *before* the block is appended to a chain: consensus
        finalizers mine through this hook pre-append.  Mutating the nonce of
        an already-appended block leaves the chain index's rolling byte
        aggregates stale (``Blockchain.verify_index`` detects this).
        """
        self.nonce = nonce
        self._cached_hash = None
        self._cached_byte_size = None

    def __canonical_json__(self) -> str:
        """Canonical JSON of :meth:`to_dict` (hash included), composed from the
        entry memos on each call and never kept on the block."""
        return _HASH_MEMBER.format(self.block_hash) + self._canonical_content()[1:]

    # ------------------------------------------------------------------ #
    # Entry access
    # ------------------------------------------------------------------ #

    def entry(self, entry_number: int) -> Entry:
        """Return the entry with 1-based ``entry_number`` (O(1) lookup)."""
        if self._entry_lookup is None:
            lookup: dict[int, Entry] = {}
            for candidate in self.entries:
                if candidate.entry_number is not None:
                    lookup.setdefault(candidate.entry_number, candidate)
            self._entry_lookup = lookup
        found = self._entry_lookup.get(entry_number)
        if found is None:
            raise KeyError(f"block {self.block_number} has no entry number {entry_number}")
        return found

    def location_keys(self) -> list[tuple[int, int]]:
        """Every entry's :meth:`Entry.location_key` in this block, in order:
        the one index into its entries (fresh marks, :meth:`find_copy_of`).
        A summary built here carries the list; any other block derives it
        once."""
        carry = self._carry
        if carry is not None and carry.keys is not None:
            return carry.keys
        if self._keys is None:
            number = self.block_number
            self._keys = [entry.location_key(number) for entry in self.entries]
        return self._keys

    def positions_of(self, key: tuple[int, int]) -> Iterator[int]:
        """Every position of ``key`` in :meth:`location_keys`, in order, each
        found by a C-level search from the one before."""
        keys, position = self.location_keys(), -1
        try:
            while True:
                position = keys.index(key, position + 1)
                yield position
        except ValueError:
            return

    def find_copy_of(self, origin_block_number: int, origin_entry_number: int) -> Optional[Entry]:
        """The first copy of the original entry at these coordinates (an
        entry that is not such a copy can sit under the same key)."""
        key = (origin_block_number, origin_entry_number)
        for position in self.positions_of(key):
            entry = self.entries[position]
            if (entry.origin_block_number, entry.origin_entry_number) == key:
                return entry
        return None

    def data_entries(self) -> list[Entry]:
        """All entries that are plain data records (no deletion requests)."""
        return [entry for entry in self.entries if not entry.is_deletion_request]

    def deletion_requests(self) -> list[Entry]:
        """All deletion-request entries in this block."""
        return [entry for entry in self.entries if entry.is_deletion_request]

    # ------------------------------------------------------------------ #
    # Size accounting
    # ------------------------------------------------------------------ #

    def byte_size(self) -> int:
        """Approximate serialised size of the block in bytes (memoised).

        Used by the storage-growth and summary-size benchmarks (Sections I
        and V-B2 motivate the concept with the unbounded growth of Bitcoin's
        chain).  The memo is invalidated by :meth:`set_nonce`, the only
        mutation performed after a block is built.
        """
        if self._cached_byte_size is None:
            self._memoise_hash_and_size()
        return self._cached_byte_size

    # ------------------------------------------------------------------ #
    # Serialisation and display
    # ------------------------------------------------------------------ #

    def to_dict(self) -> dict[str, Any]:
        """Return a JSON-serialisable representation (includes the hash)."""
        payload = self.content_dict()
        payload["block_hash"] = self.block_hash
        return payload

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], *, entries: Optional[list[Entry]] = None, memos: Optional[list[str]] = None
    ) -> "Block":
        """Rebuild a block from :meth:`to_dict` output and verify its hash;
        ``entries``, if given, replaces the payload's (already built) entries,
        and ``memos``, if given, are those entries' canonical memos — taken as
        given, the entries already numbered."""
        header = payload["header"]
        block = cls(
            block_number=int(header["block_number"]),
            timestamp=int(header["timestamp"]),
            previous_hash=str(header["previous_hash"]),
            entries=[Entry.from_dict(item) for item in payload.get("entries", ())] if entries is None else entries,
            block_type=BlockType(header.get("block_type", BlockType.NORMAL.value)),
            nonce=int(header.get("nonce", 0)),
            redundancy=[RedundancyRecord.from_dict(item) for item in payload.get("redundancy", ())],
            merged_sequences=list(payload.get("merged_sequences", ())),
            summary_references=list(payload.get("summary_references", ())),
            _carry=None if memos is None else CarryRecord(memos, None, None, 0, ()),
        )
        expected = payload.get("block_hash")
        if expected is not None and block.block_hash != expected:
            raise ChainIntegrityError(
                f"stored hash of block {block.block_number} does not match its content"
            )
        return block

    def display(self, *, hash_length: int = 5) -> str:
        """Console header line in the style of the paper's figures.

        Example: ``S2; t=2; prev=4F0C1; hash=A77E2`` for a summary block or
        ``1; t=1; prev=0BEEF; hash=4F0C1`` for a normal block.
        """
        prefix = f"S{self.block_number}" if self.is_summary else f"{self.block_number}"
        previous = (
            self.previous_hash
            if self.previous_hash == GENESIS_PREVIOUS_HASH
            else truncate_hash(self.previous_hash, hash_length)
        )
        own = truncate_hash(self.block_hash, hash_length)
        return f"{prefix}; t={self.timestamp}; prev={previous}; hash={own}"


def canonical_text_hash(text: str) -> Optional[str]:
    """The block hash a :meth:`Block.__canonical_json__` text commits to: the
    sha256 of the content after its ``"block_hash"`` member, computed from the
    bytes and never read from them (``None`` for text of another shape)."""
    head, separator, rest = text.partition('",')
    if not separator or not head.startswith('{"block_hash":"'):
        return None
    return sha256_hex(("{" + rest).encode("utf-8"))


def make_genesis_block(*, timestamp: int = 0, entries: Optional[Sequence[Entry]] = None) -> Block:
    """Create the original Genesis Block (block 0, previous hash ``DEADB``)."""
    return Block(
        block_number=0,
        timestamp=timestamp,
        previous_hash=GENESIS_PREVIOUS_HASH,
        entries=list(entries or []),
        block_type=BlockType.NORMAL,
    )
