"""Chain validation.

Section IV-A explains why a naive deletion is impossible: it *"destroys the
hash chain of a blockchain"*.  The validator therefore checks exactly the
properties the concept preserves across summarisation and marker shifts:

* consecutive block numbers starting at the genesis marker,
* intact previous-hash links from the marker onwards (the shifted genesis is
  *"a trusted anchor for the left blockchain part already approved by the
  anchor nodes"*, so its own parent is not — and cannot be — checked),
* summary blocks exactly at the summary slots, carrying the timestamp of the
  block before them (Section IV-B),
* non-decreasing timestamps,
* optionally, valid entry signatures under the configured scheme,
* optionally, that approved deletions are effective (the target is neither in
  its original position nor carried forward anywhere).

Section V-B3 warns that after shortening, participants must not judge a chain
by its length or block index but only accept chains *"traceable from [the]
current status quo"* — :func:`is_traceable_extension` implements that rule
for the anchor-node synchronisation logic.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.block import Block, BlockType
from repro.core.config import ChainConfig
from repro.core.deletion import DeletionRegistry
from repro.core.entry import Entry
from repro.core.errors import AuthorizationError, ChainIntegrityError
from repro.core.sequence import is_summary_slot
from repro.crypto.hashing import GENESIS_PREVIOUS_HASH
from repro.crypto.signatures import SignedPayload, new_scheme


def validate_block_link(previous: Block, block: Block) -> None:
    """Check numbering, hash link and timestamp ordering between neighbours."""
    if block.block_number != previous.block_number + 1:
        raise ChainIntegrityError(
            f"block {block.block_number} does not follow block {previous.block_number}"
        )
    if block.previous_hash != previous.block_hash:
        raise ChainIntegrityError(
            f"block {block.block_number} has a broken previous-hash link"
        )
    if block.timestamp < previous.timestamp:
        raise ChainIntegrityError(
            f"block {block.block_number} has a timestamp before its predecessor"
        )


def validate_entry_signature(entry: Entry, scheme_name: str) -> None:
    """Verify one entry signature under the named scheme."""
    scheme = new_scheme(scheme_name)
    signed = SignedPayload(
        payload=entry.signing_payload(),
        signer=entry.author,
        signature=entry.signature,
        public_key=entry.public_key,
    )
    if not scheme.verify(signed):
        raise AuthorizationError(
            f"entry by {entry.author!r} carries an invalid {scheme_name} signature"
        )


def validate_block_signatures(block: Block, scheme_name: str) -> None:
    """Batch-verify every entry signature of a sealed block in one pass.

    This is the anchor-side form of signature checking: instead of paying the
    per-entry scheme setup (and, for ECDSA, a point decompression per entry),
    the whole block goes to :meth:`SignatureScheme.verify_batch`, which
    decodes each distinct author key once and reuses it across that author's
    entries.  Raises :class:`AuthorizationError` naming the first offender.
    """
    if not block.entries:
        return
    scheme = new_scheme(scheme_name)
    batch = [
        SignedPayload(
            payload=entry.signing_payload(),
            signer=entry.author,
            signature=entry.signature,
            public_key=entry.public_key,
        )
        for entry in block.entries
    ]
    for entry, valid in zip(block.entries, scheme.verify_batch(batch)):
        if not valid:
            raise AuthorizationError(
                f"entry by {entry.author!r} in block {block.block_number} carries "
                f"an invalid {scheme_name} signature"
            )


def validate_chain(
    blocks: Sequence[Block],
    *,
    config: ChainConfig,
    genesis_marker: int = 0,
    verify_signatures: bool = False,
) -> None:
    """Validate a living chain; raises :class:`ChainIntegrityError` on failure."""
    if not blocks:
        raise ChainIntegrityError("chain contains no blocks")

    first = blocks[0]
    if first.block_number != genesis_marker:
        raise ChainIntegrityError(
            f"first living block is {first.block_number} but the genesis marker is {genesis_marker}"
        )
    if first.block_number == 0 and first.previous_hash != GENESIS_PREVIOUS_HASH:
        raise ChainIntegrityError("original Genesis Block must use the DEADB previous hash")

    previous = first
    for block in blocks[1:]:
        validate_block_link(previous, block)
        previous = block

    for index, block in enumerate(blocks):
        expected_summary = is_summary_slot(block.block_number, config.sequence_length)
        if expected_summary and block.block_type is not BlockType.SUMMARY:
            raise ChainIntegrityError(
                f"block {block.block_number} occupies a summary slot but is not a summary block"
            )
        if not expected_summary and block.block_type is BlockType.SUMMARY:
            raise ChainIntegrityError(
                f"block {block.block_number} is a summary block outside a summary slot"
            )
        if block.block_type is BlockType.SUMMARY and index > 0:
            if block.timestamp != blocks[index - 1].timestamp:
                raise ChainIntegrityError(
                    f"summary block {block.block_number} must reuse the previous block's timestamp"
                )

    if verify_signatures:
        for block in blocks:
            validate_block_signatures(block, config.signature_scheme)


# repro: allow[REPRO-S601] a paper invariant, for the invariant table
def verify_summary_determinism(own: Block, other: Block) -> bool:
    """Compare two independently computed summary blocks (Section IV-B).

    Anchor nodes use the hash of their locally created summary block as a
    synchronisation check; a mismatch means the nodes diverged and the
    network would fork.
    """
    if not (own.is_summary and other.is_summary):
        return False
    return own.block_hash == other.block_hash


# repro: allow[REPRO-S601] a paper invariant, for the invariant table
def is_traceable_extension(known_blocks: Sequence[Block], candidate_blocks: Sequence[Block]) -> bool:
    """Accept a candidate chain only if it extends the known status quo.

    Implements Section V-B3: a node that already trusts ``known_blocks`` must
    not switch to a chain merely because it is longer or has higher block
    indices; the candidate must contain the node's current head (same block
    number and hash) and extend it with valid links.
    """
    if not known_blocks:
        return bool(candidate_blocks)
    known_head = known_blocks[-1]
    anchor_index = None
    for index, block in enumerate(candidate_blocks):
        if block.block_number == known_head.block_number and block.block_hash == known_head.block_hash:
            anchor_index = index
            break
    if anchor_index is None:
        return False
    previous = candidate_blocks[anchor_index]
    for block in candidate_blocks[anchor_index + 1 :]:
        try:
            validate_block_link(previous, block)
        except ChainIntegrityError:
            return False
        previous = block
    return True


# repro: allow[REPRO-S601] a paper invariant, for the invariant table
def deletion_is_effective(
    blocks: Sequence[Block],
    registry: DeletionRegistry,
) -> list[str]:
    """Check that every approved deletion target is really gone.

    Returns a list of violation descriptions (empty when everything marked
    for deletion that should already have been purged is indeed absent from
    summary blocks).  Targets whose original block is still living are not
    violations — deletion is delayed by design (Section IV-D3).
    """
    violations: list[str] = []
    living_numbers = {block.block_number for block in blocks}
    for block in blocks:
        if not block.is_summary:
            continue
        for entry in block.entries:
            if entry.origin_block_number is None:
                continue
            if entry.origin_block_number in living_numbers:
                continue
            if registry.is_marked_entry(entry, block.block_number):
                violations.append(
                    f"summary block {block.block_number} still carries deleted entry "
                    f"(origin block {entry.origin_block_number}, entry {entry.origin_entry_number})"
                )
    return violations
