"""The four duties of an anchor node (Section IV-A), one protocol each.

:mod:`~repro.network.protocols.service` serves clients,
:mod:`~repro.network.protocols.announce` disseminates blocks,
:mod:`~repro.network.protocols.sync` checks summary hashes and adopts the
status quo, and :mod:`~repro.network.protocols.election` votes in the
quorum.  Each declares ``HANDLES`` (message kind -> the method serving it;
every kind has exactly one) and ``WINDOWS`` (each bounded collection it
keeps -> its bound), and keeps its own ``counters``.  An
:class:`~repro.network.node.AnchorNode` builds its one dispatch table from
the four ``HANDLES`` maps.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, ClassVar

from repro.network.message import MessageKind

if TYPE_CHECKING:  # pragma: no cover - the node composes the protocols
    from repro.network.node import AnchorNode


class Protocol:
    """One duty of an anchor node: its handlers, windows and counters."""

    HANDLES: ClassVar[dict[MessageKind, str]] = {}
    WINDOWS: ClassVar[dict[str, int]] = {}

    def __init__(self, node: "AnchorNode") -> None:
        self.node = node
        self.transport = node.transport
        self.counters: dict[str, int] = {}
