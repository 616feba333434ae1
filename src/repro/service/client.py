"""The ledger client protocol and the in-process implementation.

:class:`LedgerClient` is the one client surface of the layered Ledger
service API: *what an application does with the ledger* — submit records,
request deletions, look entries up, read statistics, drive progress — is
expressed once, and *where the ledger runs* is an implementation detail:

* :class:`LocalLedgerClient` drives a :class:`~repro.core.chain.Blockchain`
  in-process (over any storage backend — memory or the durable journal),
* :class:`~repro.service.remote.RemoteLedgerClient` drives a replicated
  anchor-node deployment over the transport, exactly as the paper's CORBA
  clients did (Section V-B4),
* :class:`~repro.service.baseline.BaselineLedgerClient` adapts the
  Section III comparison baselines.

A workload replayed through any of them performs the same logical
operations, which is what makes cross-backend comparisons
(:mod:`repro.analysis.compare`, the growth benchmarks) apples-to-apples.

The protocol follows the paper's evaluation model: ``submit`` seals one
block per record (every login event becomes one block).  Multi-entry blocks
live in the core (``Blockchain.add_entry`` ×N + ``seal_block``), not in the
client protocol.

Each write (``submit``, ``request_deletion``, ``tick``) is also a kernel
process (``*_process``, :func:`repro.network.transport.spawn`), which callers
inside a kernel event spawn.  A client implements one of the two forms; the
other is derived.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping, Optional, Union

from repro.core.chain import Blockchain
from repro.core.entry import EntryReference
from repro.core.errors import SelectiveDeletionError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.message import Message
    from repro.network.transport import Process


class LedgerError(SelectiveDeletionError):
    """Raised when a ledger-client operation cannot be completed."""


@dataclass(frozen=True)
class SubmitReceipt:
    """Outcome of one record submission."""

    #: Reference the record can later be addressed by; ``None`` on error.
    reference: Optional[EntryReference]
    #: Block the record was sealed into; ``None`` on error.
    block_number: Optional[int]
    error: str = ""

    @property
    def ok(self) -> bool:
        """True when the submission was accepted."""
        return not self.error

    @classmethod
    def from_ack(cls, response: "Message") -> "SubmitReceipt":
        """The receipt an anchor's reply to a submission stands for.

        An error reply carries its reason.  The reply is wire input: an ACK
        that does not name the sealed entry is the anchor's fault and must
        not read as accepted.
        """
        if response.is_error:
            error = str(response.payload.get("reason", "submission failed"))
            return cls(reference=None, block_number=None, error=error)
        try:
            block_number = int(response.payload["block_number"])
            entry_number = int(response.payload["entry_number"])
        except (KeyError, TypeError, ValueError) as exc:
            error = f"malformed ACK: {type(exc).__name__}: {exc}"
            return cls(reference=None, block_number=None, error=error)
        return cls(reference=EntryReference(block_number, entry_number), block_number=block_number)


@dataclass(frozen=True)
class DeletionReceipt:
    """Outcome of one deletion request."""

    approved: bool
    reason: str
    #: Block the request was sealed into, when known.
    block_number: Optional[int] = None
    #: Whether the removal is globally effective (gone from what every node
    #: stores).  On the selective-deletion chain approval implies global
    #: effect; baselines like local pruning accept requests that only take
    #: effect locally — the distinction the comparison (claim C5) is about.
    globally_effective: bool = False
    #: Work units the backend spent on the request (baseline comparison).
    effort_units: float = 0.0
    error: str = ""

    @property
    def ok(self) -> bool:
        """True when the request was processed (approved or not)."""
        return not self.error


@dataclass(frozen=True)
class LedgerRecord:
    """A record located through :meth:`LedgerClient.find_entry`."""

    reference: EntryReference
    data: Mapping[str, Any] = field(default_factory=dict)
    author: str = ""
    #: Block the record currently lives in (original or summary copy);
    #: ``None`` for backends without block addressing (baselines).
    block_number: Optional[int] = None


#: Reference forms accepted by the protocol.
TargetLike = Union[EntryReference, tuple]


def as_reference(target: TargetLike) -> EntryReference:
    """Coerce a ``(block, entry)`` pair into an :class:`EntryReference`."""
    return target if isinstance(target, EntryReference) else EntryReference(*target)


class LedgerClient(ABC):
    """One client protocol for local, networked and baseline ledgers."""

    #: Short backend name used in reports.
    name: str = "abstract"

    def __init_subclass__(cls, **kwargs: Any) -> None:
        # Each operation's blocking form and ``*_process`` form default to
        # each other: a backend must implement one, or every call recurses.
        super().__init_subclass__(**kwargs)
        for operation in ("submit", "request_deletion", "tick"):
            forms = (operation, f"{operation}_process")
            if all(getattr(cls, form) is getattr(LedgerClient, form) for form in forms):
                raise TypeError(f"{cls.__name__} must implement {' or '.join(forms)}")

    def run(self, process: "Process") -> Any:
        """Drive one of this client's processes from outside any kernel
        event (networked clients step their deployment's kernel)."""
        from repro.network.transport import run_process  # network imports service

        return run_process(process)

    def submit(
        self,
        data: Mapping[str, Any],
        author: str,
        *,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> SubmitReceipt:
        """Submit one signed record and seal it into a block of its own."""
        return self.run(
            self.submit_process(
                data, author, expires_at_time=expires_at_time, expires_at_block=expires_at_block
            )
        )

    def submit_process(
        self,
        data: Mapping[str, Any],
        author: str,
        *,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> "Process":
        """:meth:`submit` as a kernel process returning the receipt."""
        yield from ()
        return self.submit(
            data, author, expires_at_time=expires_at_time, expires_at_block=expires_at_block
        )

    def request_deletion(
        self,
        target: TargetLike,
        author: str,
        *,
        reason: str = "",
    ) -> DeletionReceipt:
        """Submit a deletion request for ``target`` and seal it into a block."""
        return self.run(self.request_deletion_process(target, author, reason=reason))

    def request_deletion_process(
        self, target: TargetLike, author: str, *, reason: str = ""
    ) -> "Process":
        """:meth:`request_deletion` as a kernel process returning the receipt."""
        yield from ()
        return self.request_deletion(target, author, reason=reason)

    @abstractmethod
    def find_entry(self, reference: TargetLike) -> Optional[LedgerRecord]:
        """Locate a record by its original reference, or ``None`` if gone."""

    @abstractmethod
    def statistics(self) -> dict[str, Any]:
        """Operational counters of the backend.

        Every implementation guarantees the keys ``living_blocks``,
        ``byte_size`` and ``total_blocks_created`` so growth sampling works
        uniformly; chain-backed clients return the full
        :meth:`~repro.core.chain.Blockchain.statistics` dictionary.
        """

    def tick(self, ticks: int = 1) -> bool:
        """Advance ledger time; returns ``True`` when an idle block resulted.

        This drives the empty-block progress rule of Section IV-D3 so
        delayed deletions execute even without traffic.
        """
        return self.run(self.tick_process(ticks))

    def tick_process(self, ticks: int = 1) -> "Process":
        """:meth:`tick` as a kernel process returning its result."""
        yield from ()
        return self.tick(ticks)


class LocalLedgerClient(LedgerClient):
    """Drives an in-process :class:`Blockchain` (any storage backend)."""

    name = "local"

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain

    def submit(
        self,
        data: Mapping[str, Any],
        author: str,
        *,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> SubmitReceipt:
        """Sign the record and seal it into a block of its own."""
        block = self.chain.add_entry_block(
            data, author, expires_at_time=expires_at_time, expires_at_block=expires_at_block
        )
        return SubmitReceipt(
            reference=EntryReference(block.block_number, len(block.entries)),
            block_number=block.block_number,
        )

    def request_deletion(
        self,
        target: TargetLike,
        author: str,
        *,
        reason: str = "",
    ) -> DeletionReceipt:
        """Evaluate and record the request, then seal it (with any pending)."""
        decision = self.chain.request_deletion(as_reference(target), author, reason=reason)
        block = self.chain.seal_block()
        return DeletionReceipt(
            approved=decision.is_approved,
            reason=decision.reason,
            block_number=block.block_number,
            globally_effective=decision.is_approved,
            effort_units=1.0,
        )

    def find_entry(self, reference: TargetLike) -> Optional[LedgerRecord]:
        """O(1) lookup through the chain index."""
        resolved = as_reference(reference)
        located = self.chain.find_entry(resolved)
        if located is None:
            return None
        block, entry = located
        return LedgerRecord(
            reference=resolved,
            data=dict(entry.data),
            author=entry.author,
            block_number=block.block_number,
        )

    def statistics(self) -> dict[str, Any]:
        """The chain's full operational counters (O(1))."""
        return self.chain.statistics()

    def tick(self, ticks: int = 1) -> bool:
        """Advance the chain clock and apply the idle-block rule."""
        self.chain.clock.advance(ticks)
        return self.chain.idle_tick() is not None
