"""Sharded multi-ledger deployments behind one ``LedgerClient`` surface.

One producer seals one block at a time, and ``BENCH_fleet.json`` pinned
what that costs: a single deployment saturates near ~47 req/s virtual with
the p50-inflation knee at N=300 clients.  The way past a single producer is
the way past any single writer — partition the keyspace.  This module
shards *authors* across K independent anchor deployments (one chain per
tenant/region, the paper's many-operators model writ large) while keeping
the application surface unchanged:

* :func:`shard_of_author` hashes an author onto a shard deterministically
  (SHA-256, stable across processes and seeds — never the salted builtin
  ``hash``);
* :class:`ShardAuthorIndex` is the shard-level generalisation of the
  chain-level ``ChainIndex`` entry-location map: which shards hold which
  authors' entries, maintained incrementally on every routed submission;
* :class:`ShardRouter` implements the full :class:`LedgerClient` protocol
  in front of the K deployments — ``submit`` routes by author hash,
  ``request_deletion`` routes by recorded entry location, ``find_entry``
  probes the recorded location first, ``statistics`` merges per-shard
  counters into one report — plus the one operation a sharded GDPR ledger
  must add: :meth:`ShardRouter.request_erasure`, which fans an author's
  right-to-be-forgotten request out to **exactly** the shards holding that
  author's entries and folds the per-shard completions into a single
  :class:`ErasureReceipt`.

Cross-shard deletion routing is the point: an erasure request must reach
every shard with the author's data (or the deletion is not globally
effective) and *only* those shards (or erasure cost grows with deployment
size instead of data size).  The index makes the fan-out exact, and the
routing-exactness test pins it.

Determinism: author→shard placement is a pure function of the author
string, the index iterates in sorted shard order, merged statistics are
keyed ``shard-0 .. shard-K-1``, and latency samples are plain rounded
floats — sharded runs replay byte-identically per (seed, K).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Mapping, Optional, Sequence

from repro.core.entry import EntryReference
from repro.service.client import (
    DeletionReceipt,
    LedgerClient,
    LedgerRecord,
    TargetLike,
    as_reference,
)
from repro.workloads.stats import latency_summary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.transport import Process

#: Domain tag for author→shard placement, so shard routing can never
#: collide with other SHA-256 derivations (client sub-seeds, block hashes).
_SHARD_ROUTE_DOMAIN = "shard-route"


def shard_of_author(author: str, shard_count: int) -> int:
    """The deterministic home shard of ``author`` in a K-shard deployment.

    A pure function of the author string: stable across processes, runs and
    seeds (SHA-256, not the per-process-salted builtin ``hash``), uniform
    enough that a fleet of authors spreads evenly across shards.
    """
    if shard_count <= 0:
        raise ValueError("shard_count must be positive")
    digest = hashlib.sha256(
        f"{_SHARD_ROUTE_DOMAIN}:{author}".encode()
    ).digest()
    return int.from_bytes(digest[:8], "big") % shard_count


@dataclass(frozen=True)
class ErasureReceipt:
    """One author-level erasure, folded from its per-shard deletions.

    ``shards`` lists exactly the shards the request was routed to — the
    shards holding the author's entries at request time, in ascending
    order.  ``approved`` holds only when **every** routed deletion was
    approved: a right-to-be-forgotten request is not satisfied by a subset
    of the author's data disappearing.
    """

    author: str
    #: Shards the request fanned out to (ascending; empty when the author
    #: had no recorded entries).
    shards: tuple[int, ...]
    #: Entries targeted across all shards.
    entries_targeted: int
    #: Per-entry deletion receipts, in (shard, reference) routing order.
    receipts: tuple[DeletionReceipt, ...]
    #: Every targeted entry's deletion was approved (vacuously False when
    #: nothing was targeted — erasing an unknown author is not a success).
    approved: bool
    #: Summed effort across shards (the paper's deletion-effort metric).
    effort_units: float
    error: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


class ShardAuthorIndex:
    """Which shards hold which authors' entries (and where each entry is).

    The shard-level generalisation of the chain-level ``ChainIndex``: the
    chain index answers "which block holds this entry" in O(1); this index
    answers "which *shards* hold this author's entries" — the lookup that
    makes cross-shard erasure fan-out exact instead of broadcast.

    Each shard numbers its own blocks, so an :class:`EntryReference` is
    only unique *per shard* — shard 0's (block 5, entry 1) and shard 1's
    (block 5, entry 1) are different entries.  The location map therefore
    refcounts holder shards per reference key instead of storing a single
    shard a later collision would silently overwrite, and ``discard``
    removes exactly one (shard, reference) recording, never a same-keyed
    entry on another shard.
    """

    def __init__(self) -> None:
        #: author -> list of (shard, reference) in submission order.
        self._refs: dict[str, list[tuple[int, EntryReference]]] = {}
        #: (block_number, entry_number) -> {shard: recordings}, for
        #: deletion routing.  A key held by several shards is ambiguous —
        #: :meth:`location_of` reports that honestly instead of guessing.
        self._locations: dict[tuple[int, int], dict[int, int]] = {}

    def record(self, author: str, shard: int, reference: EntryReference) -> None:
        """Note a sealed submission of ``author`` on ``shard``."""
        self._refs.setdefault(author, []).append((shard, reference))
        holders = self._locations.setdefault(
            (reference.block_number, reference.entry_number), {}
        )
        holders[shard] = holders.get(shard, 0) + 1

    def discard(self, author: str, shard: int, reference: EntryReference) -> None:
        """Forget one recording of ``reference`` on ``shard`` (after its
        deletion was approved)."""
        key = (reference.block_number, reference.entry_number)
        refs = self._refs.get(author, [])
        for position, (held_shard, ref) in enumerate(refs):
            if held_shard == shard and (ref.block_number, ref.entry_number) == key:
                del refs[position]
                break
        if not refs:
            self._refs.pop(author, None)
        holders = self._locations.get(key)
        if holders is None:
            return
        remaining = holders.get(shard, 0) - 1
        if remaining > 0:
            holders[shard] = remaining
        else:
            holders.pop(shard, None)
        if not holders:
            self._locations.pop(key, None)

    def shards_holding(self, author: str) -> list[int]:
        """The ascending shard list an erasure for ``author`` must reach."""
        return sorted({shard for shard, _ in self._refs.get(author, [])})

    def references_of(self, author: str) -> list[tuple[int, EntryReference]]:
        """The author's recorded entries as (shard, reference), in
        submission order — the erasure fan-out worklist."""
        return list(self._refs.get(author, []))

    def location_of(self, reference: EntryReference) -> Optional[int]:
        """The shard holding ``reference`` — when exactly one does.

        ``None`` both for unrouted references and for keys several shards
        hold (the per-shard block numbering collision): an ambiguous
        location is no location, and the caller falls back to its sweep
        or home-shard routing instead of acting on a guess.
        """
        holders = self.holders_of(reference)
        return holders[0] if len(holders) == 1 else None

    def holders_of(self, reference: EntryReference) -> list[int]:
        """Every shard recorded as holding ``reference``'s key, ascending
        (several when per-shard block numbering collides)."""
        return sorted(
            self._locations.get(
                (reference.block_number, reference.entry_number), {}
            )
        )

    def authors(self) -> list[str]:
        """All authors with recorded entries, sorted."""
        return sorted(self._refs)

    def __len__(self) -> int:
        return sum(len(refs) for refs in self._refs.values())


class ShardRouter(LedgerClient):
    """K independent ledger deployments behind one client surface.

    Parameters
    ----------
    shards:
        One :class:`LedgerClient` per shard (typically a
        ``RemoteLedgerClient`` bound to that shard's anchor deployment).
        Shard ``i`` of the router is ``shards[i]``.
    index:
        Optional shared :class:`ShardAuthorIndex` — pass one index to
        several routers to shard a deployment per-client while keeping a
        single global view of entry locations.
    clock:
        Optional virtual-clock callable (``kernel.now``).  When set, every
        routed ``submit`` / ``request_deletion`` round trip is timed and
        the per-shard service-latency percentiles land in
        :meth:`latency_report` — the per-shard half of the
        ``report["shards"]`` block.
    """

    name = "sharded"

    def __init__(
        self,
        shards: Sequence[LedgerClient],
        *,
        index: Optional[ShardAuthorIndex] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        if not shards:
            raise ValueError("a sharded deployment needs at least one shard")
        self.shards = list(shards)
        self.index = index if index is not None else ShardAuthorIndex()
        self.clock = clock
        #: Per-shard routed-operation counters, index-aligned with shards.
        self.submitted_per_shard = [0] * len(self.shards)
        self.deletions_per_shard = [0] * len(self.shards)
        #: Author-level erasures processed (each fans out per the index).
        self.erasures = 0
        #: Per-shard service-latency samples (virtual ms), clock-gated.
        self._latency_per_shard: list[list[float]] = [[] for _ in self.shards]

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    @property
    def shard_count(self) -> int:
        return len(self.shards)

    def shard_of(self, author: str) -> int:
        """The home shard new submissions of ``author`` route to."""
        return shard_of_author(author, len(self.shards))

    def _timed(self, shard: int, process: "Process") -> "Process":
        """Run a shard's process, sampling its round trip when clocked."""
        started = self.clock() if self.clock is not None else None
        result = yield from process
        if started is not None:
            assert self.clock is not None
            self._latency_per_shard[shard].append(round(self.clock() - started, 6))
        return result

    def run(self, process: "Process") -> Any:
        """Drive a process from outside any kernel event; the shards share
        one kernel, so shard 0's client drives it."""
        return self.shards[0].run(process)

    # ------------------------------------------------------------------ #
    # LedgerClient protocol
    # ------------------------------------------------------------------ #

    def submit_process(
        self,
        data: Mapping[str, Any],
        author: str,
        *,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> "Process":
        """Route the record to the author's home shard and index the seal.

        Submissions to *different* shards — and to the same shard from
        different callers — consume concurrent round-trip time; this is
        where the K-fold service rate comes from.
        """
        shard = self.shard_of(author)
        receipt = yield from self._timed(
            shard,
            self.shards[shard].submit_process(
                data,
                author,
                expires_at_time=expires_at_time,
                expires_at_block=expires_at_block,
            ),
        )
        self.submitted_per_shard[shard] += 1
        if receipt.ok and receipt.reference is not None:
            self.index.record(author, shard, receipt.reference)
        return receipt

    def request_deletion_process(
        self, target: TargetLike, author: str, *, reason: str = ""
    ) -> "Process":
        """Route a single-entry deletion to the shard holding the entry.

        The recorded location wins (an entry always lives where it was
        submitted); an unindexed target falls back to the author's home
        shard — the only shard that *can* hold an entry this router would
        have placed.  When per-shard block numbering makes the reference
        key ambiguous, the author's home shard breaks the tie if it is
        among the holders, else the lowest holder.
        """
        reference = as_reference(target)
        holders = self.index.holders_of(reference)
        home = self.shard_of(author)
        if len(holders) == 1:
            shard = holders[0]
        elif home in holders or not holders:
            shard = home
        else:
            shard = holders[0]
        return (yield from self._delete_on(shard, reference, author, reason))

    def _delete_on(
        self, shard: int, reference: EntryReference, author: str, reason: str
    ) -> "Process":
        receipt = yield from self._timed(
            shard, self.shards[shard].request_deletion_process(reference, author, reason=reason)
        )
        self.deletions_per_shard[shard] += 1
        if receipt.ok and receipt.approved:
            self.index.discard(author, shard, reference)
        return receipt

    def request_erasure(self, author: str, *, reason: str = "") -> ErasureReceipt:
        """Drive :meth:`request_erasure_process` from outside any kernel event."""
        return self.run(self.request_erasure_process(author, reason=reason))

    def request_erasure_process(self, author: str, *, reason: str = "") -> "Process":
        """Erase every recorded entry of ``author`` — the GDPR Article 17
        request a sharded deployment must route, not broadcast.

        Fans out to exactly the shards the index holds entries on (the
        routing-exactness acceptance pin), folds the per-shard deletion
        receipts into one author-level receipt, and forgets approved
        entries so a repeated erasure is a no-op rather than a re-issue.
        """
        worklist = self.index.references_of(author)
        shards_touched = self.index.shards_holding(author)
        if not worklist:
            return ErasureReceipt(
                author=author,
                shards=(),
                entries_targeted=0,
                receipts=(),
                approved=False,
                effort_units=0.0,
                error=f"no recorded entries for author {author!r}",
            )
        self.erasures += 1
        receipts: list[DeletionReceipt] = []
        for shard, reference in worklist:
            receipts.append((yield from self._delete_on(shard, reference, author, reason)))
        return ErasureReceipt(
            author=author,
            shards=tuple(shards_touched),
            entries_targeted=len(worklist),
            receipts=tuple(receipts),
            approved=all(r.ok and r.approved for r in receipts),
            effort_units=round(sum(r.effort_units for r in receipts), 6),
        )

    def find_entry(self, reference: TargetLike) -> Optional[LedgerRecord]:
        """Locate a record across shards: recorded holder shards first
        (several when per-shard block numbering collides), then a sorted
        sweep (an entry submitted outside this router can live on any
        shard)."""
        resolved = as_reference(reference)
        holders = self.index.holders_of(resolved)
        order = holders + [
            shard for shard in range(len(self.shards)) if shard not in holders
        ]
        for shard in order:
            record = self.shards[shard].find_entry(resolved)
            if record is not None:
                return record
        return None

    def statistics(self) -> dict[str, Any]:
        """The merged deployment view: summed chain counters, per-shard
        breakdown, and the router's own routing counters."""
        per_shard = {
            f"shard-{shard}": client.statistics()
            for shard, client in enumerate(self.shards)
        }
        merged: dict[str, Any] = {
            "backend": self.name,
            "shards": len(self.shards),
            "living_blocks": sum(s["living_blocks"] for s in per_shard.values()),
            "byte_size": sum(s["byte_size"] for s in per_shard.values()),
            "total_blocks_created": sum(
                s["total_blocks_created"] for s in per_shard.values()
            ),
            "routing": {
                "submitted_per_shard": list(self.submitted_per_shard),
                "deletions_per_shard": list(self.deletions_per_shard),
                "erasures": self.erasures,
                "indexed_entries": len(self.index),
                "indexed_authors": len(self.index.authors()),
            },
            "per_shard": per_shard,
        }
        return merged

    def tick_process(self, ticks: int = 1) -> "Process":
        """Advance every shard's ledger clock; ``True`` if any shard sealed
        an idle block (progress is per-shard, not global)."""
        appended = False
        for shard, client in enumerate(self.shards):
            appended = (yield from self._timed(shard, client.tick_process(ticks))) or appended
        return appended

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def latency_report(self) -> dict[str, dict[str, Any]]:
        """Per-shard service-latency percentiles of the routed round trips.

        Keys ``shard-0 .. shard-K-1``; each value is a
        :func:`~repro.workloads.stats.latency_summary` block.  Gate on
        :func:`~repro.workloads.stats.has_samples` before comparing — an
        idle shard reports the empty-window shape, not zero latency.
        """
        return {
            f"shard-{shard}": latency_summary(samples)
            for shard, samples in enumerate(self._latency_per_shard)
        }

    def aggregate_latency(self) -> dict[str, Any]:
        """Deployment-wide service-latency percentiles: every routed round
        trip across every shard folded into one summary — the aggregate
        half of the ``report["shards"]`` block."""
        merged: list[float] = []
        for samples in self._latency_per_shard:
            merged.extend(samples)
        return latency_summary(merged)
