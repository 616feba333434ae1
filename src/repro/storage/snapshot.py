"""Whole-chain JSON snapshots.

Snapshots capture the complete state of a :class:`~repro.core.chain.Blockchain`
(blocks, genesis marker, deletion registry, configuration) in one JSON file.
They are what a freshly joining anchor node downloads to obtain the *"current
status quo"* clients and nodes must anchor their trust in (Section V-B3/B4).

Two formats share the same ``to_dict`` payload:

* the **file format** (:func:`save_snapshot` / :func:`load_snapshot`) —
  indented JSON, friendly to inspection and version control;
* the **wire format** (:func:`snapshot_payload` / :func:`chain_from_payload`)
  — one compact, canonically ordered string, the unit the snapshot-bootstrap
  protocol (:mod:`repro.sync.bootstrap`) chunks, digests and streams between
  anchor nodes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import TYPE_CHECKING, Union

from repro.core.errors import StorageError
from repro.crypto.hashing import canonical_json
from repro.storage.wal import replace_durably

if TYPE_CHECKING:  # pragma: no cover - the chain façade imports this package
    from repro.core.chain import Blockchain


#: Audit events carried by the wire format.  The audit trail is pure
#: observability — it never influences block hashes or chain behaviour — so
#: a bootstrapping replica only receives a bounded tail of it.  Without this
#: cap the snapshot would grow linearly with chain *age* even though the
#: living chain itself is bounded by retention, and the whole point of the
#: snapshot bootstrap is that its cost tracks the living state, not history.
WIRE_AUDIT_WINDOW = 64


def snapshot_payload(chain: Blockchain) -> str:
    """Serialise the chain state to one compact canonical string.

    The output is deterministic for a given chain state (sorted keys, no
    whitespace), so its length and digest are stable quantities the wire
    protocol can advertise in a manifest before streaming the chunks.  The
    audit trail is truncated to its newest :data:`WIRE_AUDIT_WINDOW` events
    (the file format keeps all of them).

    It encodes :meth:`Blockchain.to_dict`'s shape with the domain objects left
    in, so the text is joined from pieces that already exist — each block
    composed from its entry memos, each decision around its request's memo —
    and equals ``json.dumps`` of the ``to_dict()`` tree byte for byte.
    """
    return canonical_json({
        "config": chain.config, "genesis_marker": chain.genesis_marker, "blocks": chain.blocks,
        "registry": chain.registry, "events": chain.events[-WIRE_AUDIT_WINDOW:],
        "total_blocks_created": chain.total_blocks_created,
        "deleted_block_count": chain.deleted_block_count, "deleted_entry_count": chain.deleted_entry_count,
    })


def snapshot_digest(payload: str) -> str:
    """Integrity digest of a wire snapshot payload (hex sha256)."""
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _restore(text: str, what: str, chain_kwargs: dict) -> Blockchain:
    """Parse, rebuild and fully verify a chain: hash chain, then the index."""
    from repro.core.chain import Blockchain

    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise StorageError(f"{what} is not valid JSON: {exc}") from exc
    try:
        chain = Blockchain.from_dict(data, **chain_kwargs)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise StorageError(f"{what} is not a chain: {exc!r}") from exc
    del data  # the parsed tree is garbage once the chain is built; verify without it
    chain.validate()
    chain.verify_index()
    return chain


def chain_from_payload(payload: str, **chain_kwargs) -> Blockchain:
    """Restore and fully verify a chain from a wire snapshot payload.

    Mirrors :func:`load_snapshot`: besides the hash-chain validation the
    chain index rebuilt by ``Blockchain.from_dict`` is verified against the
    legacy linear scans, so a bootstrapping replica never starts serving
    lookups from a corrupt cache.  Raises :class:`StorageError` on malformed
    payloads and the chain's own integrity errors on inconsistent state.
    """
    return _restore(payload, "snapshot payload", chain_kwargs)


# repro: allow[REPRO-S601] the file format that keeps the registry over a restart
def save_snapshot(chain: Blockchain, path: Union[str, Path]) -> int:
    """Serialise the chain to ``path`` atomically; returns the written size in bytes."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    payload = json.dumps(chain.to_dict(), sort_keys=True, indent=2)
    with replace_durably(target) as handle:
        handle.write(payload)
    return len(payload.encode("utf-8"))


# repro: allow[REPRO-S601] the file format that keeps the registry over a restart
def load_snapshot(path: Union[str, Path], **chain_kwargs) -> Blockchain:
    """Restore a chain from a snapshot produced by :func:`save_snapshot`.

    Besides the hash-chain validation this also verifies the chain index
    rebuilt by ``Blockchain.from_dict`` against the legacy linear scans, so a
    freshly joining anchor node never starts serving lookups from a corrupt
    cache.
    """
    source = Path(path)
    if not source.exists():
        raise StorageError(f"snapshot {source} does not exist")
    return _restore(source.read_text(encoding="utf-8"), f"snapshot {source}", chain_kwargs)
