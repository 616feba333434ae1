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

from repro.network.message import Message, MessageKind
from repro.network.node import ClientNode
from repro.network.transport import InMemoryTransport, Process, run_process
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

    def _request(self, client: ClientNode, build: Callable[[ClientNode], Message]) -> Process:
        """Walk the bound anchor and its fallbacks until one answers without
        error; when every anchor errors, the last error response is returned
        for the caller to surface.  One failover is counted per extra
        anchor tried."""
        response, failed = yield from client.request_process(
            self._targets(), lambda: build(client)
        )
        self.failovers += failed - 1 if response.is_error else failed
        return response

    def _driver_request(
        self, kind: MessageKind, operation: str, payload: Optional[dict[str, Any]] = None
    ) -> Process:
        """An author-less request; an error reply raises :class:`LedgerError`."""
        response = yield from self._request(
            self._driver(),
            lambda client: Message(kind=kind, sender=client.client_id, payload=payload or {}),
        )
        return self._require_ok(response, operation)

    def run(self, process: Process) -> Any:
        """Drive a process on the deployment's kernel from outside any event."""
        return run_process(process, self.transport.kernel)

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
    ) -> Process:
        """Sign the record as ``author`` and submit it to the bound anchor."""
        response = yield from self._request(
            self._client_for(author),
            lambda client: client.entry_message(
                dict(data), expires_at_time=expires_at_time, expires_at_block=expires_at_block
            ),
        )
        return SubmitReceipt.from_ack(response)

    def request_deletion_process(
        self, target: TargetLike, author: str, *, reason: str = ""
    ) -> Process:
        """Sign and submit a deletion request; the anchor seals it."""
        response = yield from self._request(
            self._client_for(author),
            lambda client: client.deletion_message(as_reference(target), reason=reason),
        )
        if response.is_error:
            return DeletionReceipt(
                approved=False,
                reason="",
                error=str(response.payload.get("reason", "deletion request failed")),
            )
        # A deletion request is sealed like any entry; its ACK additionally
        # carries the decision, without which it must not read as a rejection.
        sealed = SubmitReceipt.from_ack(response)
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
        response = self.run(
            self._driver_request(
                MessageKind.FIND_ENTRY, "find_entry", {"reference": resolved.to_dict()}
            )
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
        response = self.run(self._driver_request(MessageKind.QUERY_STATISTICS, "statistics"))
        return dict(response.payload.get("statistics", {}))

    def tick_process(self, ticks: int = 1) -> Process:
        """Advance the producer's clock; idle blocks replicate automatically."""
        response = yield from self._driver_request(MessageKind.IDLE_TICK, "tick", {"ticks": ticks})
        return bool(response.payload.get("appended"))
