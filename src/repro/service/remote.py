"""Ledger client backed by a replicated anchor-node deployment.

:class:`RemoteLedgerClient` implements the :class:`LedgerClient` protocol on
top of the anchor-node message protocol: records are signed client-side (one
:class:`~repro.network.node.ClientNode` per author, the paper's model of
many users talking to the quorum), submissions travel to an anchor node,
non-producer anchors forward producer-only operations, and queries are
served from the contacted anchor's replica.

Because anchor replicas converge deterministically (Section IV-B), a
workload replayed through this client against a healthy deployment yields
chain statistics identical to the same workload replayed through a
:class:`~repro.service.client.LocalLedgerClient` — the parity the layered
API is designed around (and that the test suite pins).
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Optional, Sequence

from repro.core.entry import EntryReference
from repro.network.message import Message
from repro.network.node import ClientNode
from repro.network.transport import InMemoryTransport
from repro.service.client import (
    DeletionReceipt,
    LedgerClient,
    LedgerError,
    LedgerRecord,
    SubmitReceipt,
    TargetLike,
    as_reference,
)


class RemoteLedgerClient(LedgerClient):
    """Drives anchor nodes over the transport — the networked backend."""

    name = "remote"

    def __init__(
        self,
        transport: InMemoryTransport,
        anchor_id: str,
        *,
        scheme_name: str = "simplified",
        fallback_anchor_ids: Sequence[str] = (),
    ) -> None:
        """Bind to ``anchor_id`` for submissions, lookups and statistics.

        ``scheme_name`` must match the chain configuration of the anchors so
        client-side signatures verify server-side.  ``fallback_anchor_ids``
        are tried in order when the bound anchor answers with a transport
        error — the client-side failover the paper proposes against node
        isolation (Section V-B4).
        """
        self.transport = transport
        self.anchor_id = anchor_id
        self.fallback_anchor_ids = tuple(fallback_anchor_ids)
        self.scheme_name = scheme_name
        #: Failovers performed (an anchor answered with an error and a
        #: fallback was tried), for reports.
        self.failovers = 0
        #: One signing client per author, created on first use.
        self._clients: dict[str, ClientNode] = {}

    def _client_for(self, author: str) -> ClientNode:
        client = self._clients.get(author)
        if client is None:
            client = ClientNode(author, self.transport, scheme_name=self.scheme_name)
            self._clients[author] = client
        return client

    def _driver(self) -> ClientNode:
        """The client used for author-less operations (tick, queries)."""
        return self._client_for("ledger-driver")

    @staticmethod
    def _require_ok(response: Message, operation: str) -> Message:
        if response.is_error:
            raise LedgerError(
                f"{operation} failed: {response.payload.get('reason', 'unknown error')}"
            )
        return response

    def _targets(self) -> list[str]:
        """The bound anchor, then each fallback not yet listed."""
        targets = [self.anchor_id]
        for fallback in self.fallback_anchor_ids:
            if fallback not in targets:
                targets.append(fallback)
        return targets

    def _with_failover(self, operation: Callable[[str], Message]) -> Message:
        """Run ``operation`` against the bound anchor, falling over on error.

        ``operation`` receives an anchor id and returns the response message;
        the first non-error response wins.  When every anchor errors, the
        last error response is returned for the caller to surface.
        """
        response: Optional[Message] = None
        for target in self._targets():
            response = operation(target)
            if not response.is_error:
                return response
            self.failovers += 1
        assert response is not None
        # Every target failed; one failover count per *extra* target tried.
        self.failovers -= 1
        return response

    # ------------------------------------------------------------------ #
    # LedgerClient protocol
    # ------------------------------------------------------------------ #

    @staticmethod
    def _submit_receipt_from(response: Message) -> SubmitReceipt:
        if response.is_error:
            error = str(response.payload.get("reason", "submission failed"))
            return SubmitReceipt(reference=None, block_number=None, error=error)
        try:
            block_number = int(response.payload["block_number"])
            entry_number = int(response.payload["entry_number"])
        except (KeyError, TypeError, ValueError) as exc:
            # The reply is wire input: an ACK that does not name the sealed
            # entry is the anchor's fault and must not read as accepted.
            error = f"malformed ACK: {type(exc).__name__}: {exc}"
            return SubmitReceipt(reference=None, block_number=None, error=error)
        return SubmitReceipt(
            reference=EntryReference(block_number, entry_number),
            block_number=block_number,
        )

    def submit(
        self,
        data: Mapping[str, Any],
        author: str,
        *,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> SubmitReceipt:
        """Sign the record as ``author`` and submit it to the bound anchor."""
        response = self._with_failover(
            lambda target: self._client_for(author).submit_entry(
                target,
                dict(data),
                expires_at_time=expires_at_time,
                expires_at_block=expires_at_block,
            )
        )
        return self._submit_receipt_from(response)

    def submit_async(
        self,
        data: Mapping[str, Any],
        author: str,
        *,
        on_receipt: Callable[[SubmitReceipt], None],
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> None:
        """:meth:`submit` without the virtual-time wait.

        The receipt callback fires when the anchor's response arrives;
        failover walks the same target order as the blocking path, one
        continuation per attempt.  Overlapping submissions — to one anchor
        or across a sharded deployment — consume concurrent, not summed,
        round-trip time.
        """
        client = self._client_for(author)
        targets = self._targets()

        def attempt(index: int) -> None:
            def handle(response: Message) -> None:
                if not response.is_error:
                    on_receipt(self._submit_receipt_from(response))
                    return
                if index + 1 < len(targets):
                    self.failovers += 1
                    attempt(index + 1)
                    return
                on_receipt(self._submit_receipt_from(response))

            client.submit_entry_async(
                targets[index],
                dict(data),
                on_response=handle,
                expires_at_time=expires_at_time,
                expires_at_block=expires_at_block,
            )

        attempt(0)

    def request_deletion(
        self,
        target: TargetLike,
        author: str,
        *,
        reason: str = "",
    ) -> DeletionReceipt:
        """Sign and submit a deletion request; the anchor seals it."""
        response = self._with_failover(
            lambda target_anchor: self._client_for(author).request_deletion(
                target_anchor, as_reference(target), reason=reason
            )
        )
        if response.is_error:
            return DeletionReceipt(
                approved=False,
                reason="",
                error=str(response.payload.get("reason", "deletion request failed")),
            )
        # A deletion request is sealed like any entry; its ACK additionally
        # carries the decision, without which it must not read as a rejection.
        sealed = self._submit_receipt_from(response)
        status = response.payload.get("deletion_status")
        if not sealed.ok or not isinstance(status, str):
            error = sealed.error or f"malformed ACK: deletion_status is {status!r}"
            return DeletionReceipt(approved=False, reason="", error=error)
        approved = status == "approved"
        return DeletionReceipt(
            approved=approved,
            reason=str(response.payload.get("deletion_reason", "")),
            block_number=sealed.block_number,
            globally_effective=approved,
            effort_units=1.0,
        )

    def find_entry(self, reference: TargetLike) -> Optional[LedgerRecord]:
        """Look the record up on the bound anchor's replica.

        Converged replicas answer lookups identically, so when the bound
        anchor is unreachable the lookup fails over to the rest of the
        deployment instead of raising — reads survive any single-node outage.
        """
        resolved = as_reference(reference)
        response = self._require_ok(
            self._with_failover(lambda target: self._driver().find_entry(target, resolved)),
            "find_entry",
        )
        if not response.payload.get("found"):
            return None
        entry = response.payload.get("entry", {})
        return LedgerRecord(
            reference=resolved,
            data=dict(entry.get("data", {})),
            author=str(entry.get("author", "")),
            block_number=response.payload.get("block_number"),
        )

    def statistics(self) -> dict[str, Any]:
        """The bound anchor's replica statistics (with read failover)."""
        response = self._require_ok(
            self._with_failover(lambda target: self._driver().query_statistics(target)),
            "statistics",
        )
        return dict(response.payload.get("statistics", {}))

    def tick(self, ticks: int = 1) -> bool:
        """Advance the producer's clock; idle blocks replicate automatically."""
        response = self._require_ok(
            self._with_failover(lambda target: self._driver().idle_tick(target, ticks=ticks)),
            "tick",
        )
        return bool(response.payload.get("appended"))
