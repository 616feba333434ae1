"""Deletion requests and the registry of marked entries.

Section IV-D: a participant submits a *deletion entry* referencing the block
number and entry number of the data set to be forgotten.  The request follows
the same path as a normal entry (it is signed and stored in a block), the
quorum checks authorization and semantic cohesion, and — if approved — the
target entry is *marked*.  Marked entries are simply not copied into future
summary blocks, so they physically disappear once their sequence expires
(delayed deletion, Eq. 1).  Deletion entries themselves are never copied
forward, which is what Fig. 8 demonstrates.

Wrong requests *"can be included in the blockchain, but these have no further
effects"* — rejected requests are therefore recorded with their rejection
reason instead of being discarded.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Callable, Iterable, Mapping, Optional

from repro.core.entry import Entry, EntryKind, EntryReference
from repro.core.errors import DeletionError
from repro.crypto.hashing import canonical_json


class DeletionStatus(str, Enum):
    """Lifecycle of a deletion request."""

    #: Approved by the quorum; the target will not be copied forward.
    APPROVED = "approved"
    #: Stored in the chain but without effect (authorization or cohesion failed).
    REJECTED = "rejected"
    #: The target has physically left the chain (its sequence was cut off).
    EXECUTED = "executed"


@dataclass(frozen=True)
class DeletionDecision:
    """Outcome of evaluating a deletion request."""

    request: Entry
    target: EntryReference
    status: DeletionStatus
    reason: str = ""

    @property
    def is_approved(self) -> bool:
        """True for approved (or already executed) deletions."""
        return self.status in (DeletionStatus.APPROVED, DeletionStatus.EXECUTED)


#: Signature of an authorization hook: receives the deletion request entry and
#: the target entry, returns (allowed, reason).
Authorizer = Callable[[Entry, Entry], tuple[bool, str]]


def build_deletion_request(
    target: EntryReference,
    *,
    author: str,
    signature: str,
    public_key: Optional[str] = None,
    reason: str = "",
) -> Entry:
    """Construct the deletion-request entry for ``target``.

    The caller is responsible for producing ``signature`` with the configured
    signature scheme over :meth:`Entry.signing_payload`; the chain façade
    (:class:`repro.core.chain.Blockchain`) does this automatically.
    """
    data: dict[str, Any] = {"target": target.to_dict()}
    if reason:
        data["reason"] = reason
    return Entry(
        data=data,
        author=author,
        signature=signature,
        public_key=public_key,
        kind=EntryKind.DELETION_REQUEST,
    )


def default_authorizer(
    *,
    admins: Iterable[str] = (),
    allow_admin_foreign_deletion: bool = True,
) -> Authorizer:
    """The paper's authorization rule (Section IV-D1).

    A user may only delete entries whose stored signature shares the same key
    (here: the same author identity / public key); members of the quorum with
    the master signature — modelled as the ``admins`` set — may delete any
    entry when ``allow_admin_foreign_deletion`` is enabled.
    """
    admin_set = set(admins)

    def authorize(request: Entry, target: Entry) -> tuple[bool, str]:
        if request.public_key and target.public_key:
            if request.public_key == target.public_key:
                return True, "requester key matches the stored entry key"
        elif request.author == target.author:
            return True, "requester matches the stored entry author"
        if allow_admin_foreign_deletion and request.author in admin_set:
            return True, "requester holds the quorum master signature"
        return False, (
            f"user {request.author!r} is not allowed to delete an entry of {target.author!r}"
        )

    return authorize


@dataclass
class DeletionRegistry:
    """Book-keeping of all deletion requests and their outcomes.

    The registry is the single source of truth the summarizer consults when
    deciding which entries to carry forward.  It survives marker shifts: a
    target reference stays marked even after its sequence has been cut, so a
    copy that may still exist in a redundancy record is recognised as deleted.
    """

    _decisions: list[DeletionDecision] = field(default_factory=list)
    _approved_targets: dict[tuple[int, int], DeletionDecision] = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def record(self, decision: DeletionDecision) -> None:
        """Store a decision; approved targets become marked for deletion."""
        self._decisions.append(decision)
        if decision.is_approved:
            key = (decision.target.block_number, decision.target.entry_number)
            self._approved_targets[key] = decision

    def record_request(
        self,
        request: Entry,
        *,
        approved: bool,
        reason: str = "",
    ) -> DeletionDecision:
        """Convenience wrapper building and storing a decision from a request."""
        decision = DeletionDecision(
            request=request,
            target=request.deletion_target(),
            status=DeletionStatus.APPROVED if approved else DeletionStatus.REJECTED,
            reason=reason,
        )
        self.record(decision)
        return decision

    def mark_executed(self, target: EntryReference) -> None:
        """Flag an approved deletion as physically executed."""
        key = (target.block_number, target.entry_number)
        decision = self._approved_targets.get(key)
        if decision is None:
            raise DeletionError(f"no approved deletion for {target}")
        executed = DeletionDecision(
            request=decision.request,
            target=decision.target,
            status=DeletionStatus.EXECUTED,
            reason=decision.reason,
        )
        self._approved_targets[key] = executed
        self._decisions.append(executed)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #

    def is_marked(self, reference: EntryReference) -> bool:
        """True when the referenced entry must not be copied forward."""
        return (reference.block_number, reference.entry_number) in self._approved_targets

    def is_marked_entry(self, entry: Entry, containing_block_number: int) -> bool:
        """Check an entry (original or summary copy) against the marks.

        Runs per carried entry per summary cycle: keyed on the bare tuple.
        """
        if not self._approved_targets:
            return False
        try:
            key = entry.location_key(containing_block_number)
        except DeletionError:
            return False
        return key in self._approved_targets

    def decision_for(self, reference: EntryReference) -> Optional[DeletionDecision]:
        """Latest decision affecting ``reference``, if any."""
        return self._approved_targets.get((reference.block_number, reference.entry_number))

    @property
    def decision_count(self) -> int:
        """Decisions recorded so far (a summary's watermark)."""
        return len(self._decisions)

    def approved_since(self, watermark: int) -> list[tuple[int, int]]:
        """Target keys approved after the first ``watermark`` decisions (marks are never withdrawn)."""
        since = self._decisions[watermark:]
        return [(d.target.block_number, d.target.entry_number) for d in since if d.is_approved]

    @property
    def decisions(self) -> list[DeletionDecision]:
        """All recorded decisions, in chronological order."""
        return list(self._decisions)

    @property
    def approved_count(self) -> int:
        """Number of currently approved (or executed) deletion targets."""
        return len(self._approved_targets)

    @property
    def rejected_count(self) -> int:
        """Number of rejected requests."""
        return sum(1 for decision in self._decisions if decision.status is DeletionStatus.REJECTED)

    @property
    def executed_count(self) -> int:
        """Number of deletions whose target has physically left the chain."""
        return sum(
            1
            for decision in self._approved_targets.values()
            if decision.status is DeletionStatus.EXECUTED
        )

    def statistics(self) -> dict[str, int]:
        """Summary counters for reports and benchmarks."""
        # Every evaluated request yields exactly one APPROVED or REJECTED
        # decision; the EXECUTED entries appended by mark_executed re-record
        # the same request.  Counting by status (not object identity) keeps
        # the figure stable across snapshot round-trips, where from_dict
        # rebuilds a fresh request object per decision.
        return {
            "requests": sum(
                1 for d in self._decisions if d.status is not DeletionStatus.EXECUTED
            ),
            "approved": self.approved_count,
            "rejected": self.rejected_count,
            "executed": self.executed_count,
        }

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable snapshot (used by the file storage backend)."""
        return {
            "decisions": [
                {
                    "request": decision.request.to_dict(),
                    "target": decision.target.to_dict(),
                    "status": decision.status.value,
                    "reason": decision.reason,
                }
                for decision in self._decisions
            ]
        }

    def __canonical_json__(self) -> str:
        """Canonical JSON of :meth:`to_dict`, each decision composed around its
        request's memo.  The producer records the unnumbered original, which has
        none; it is encoded here without keeping one."""
        return '{"decisions":[' + ",".join(
            '{"reason":%s,"request":%s,"status":"%s","target":{"block_number":%d,"entry_number":%d}}'
            % (canonical_json(d.reason), d.request._canonical_cache or canonical_json(d.request.to_dict()),
               d.status.value, d.target.block_number, d.target.entry_number)
            for d in self._decisions
        ) + "]}"

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "DeletionRegistry":
        """Rebuild a registry from :meth:`to_dict` output."""
        registry = cls()
        for item in payload.get("decisions", ()):
            decision = DeletionDecision(
                request=Entry.from_dict(item["request"]),
                target=EntryReference.from_dict(item["target"]),
                status=DeletionStatus(item["status"]),
                reason=item.get("reason", ""),
            )
            registry.record(decision)
        return registry
