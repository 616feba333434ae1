"""Protocol-consistency rules (``REPRO-P2xx``).

The anchor-node protocol is defined in three places that can drift apart:
the :class:`~repro.network.message.MessageKind` registry, the dispatch
branches — the ``HANDLES`` maps of the protocol classes under
``network/protocols/`` and the adversary/sync modules' own — and the
taxonomy table in ``network/message.py``'s docstring.  These rules
cross-reference all of them over the whole tree:

* every registered kind must be *accounted for* — dispatched by a handler
  branch or produced as a reply (``REPRO-P201``); registering a kind and
  forgetting its handler fails the lint before any scenario can hit it,
* every kind actually sent as a request must have a handler (``REPRO-P202``),
* a request handler may only return ``None`` (silently dropping the reply)
  for kinds the taxonomy declares one-way (``REPRO-P203``),
* the taxonomy table itself must list exactly the registered kinds
  (``REPRO-P204``),
* every :class:`~repro.core.events.EventType` subscription must name an
  event type that is actually published (``REPRO-P205``).

The extraction walks ASTs, not imports, so the rules also run on synthetic
projects (the test suite injects a new kind and asserts the lint fails).
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from repro.lint.base import Finding, Rule, register
from repro.lint.project import FileContext, Project

MESSAGE_MODULE_SUFFIX = "repro/network/message.py"
EVENTS_MODULE_SUFFIX = "repro/core/events.py"

#: Taxonomy rows look like ``` ``SUBMIT_ENTRY``      client   ... ``` —
#: a kind in double backticks at the start of the (stripped) line.
TAXONOMY_ROW_PATTERN = re.compile(r"^``([A-Z_]+)``\s")


@dataclass
class ProtocolModel:
    """Everything the protocol rules extract from one project scan."""

    #: Registered kind name -> line number in network/message.py.
    members: dict[str, int] = field(default_factory=dict)
    #: Kind -> places it appears as a dispatch branch (dict key / comparison).
    handled: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    #: Kind -> places it is produced via ``.reply(MessageKind.X, ...)``.
    replied: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    #: Kind -> places it is sent as a request via ``Message(kind=...)``.
    sent: dict[str, list[tuple[str, int]]] = field(default_factory=dict)
    #: Kinds whose taxonomy row declares them one-way (no reply expected).
    one_way: set[str] = field(default_factory=set)
    #: Kinds with a taxonomy row at all.
    documented: set[str] = field(default_factory=set)
    #: Kind -> ``(file, class, method)`` of the handler a class-level
    #: ``HANDLES = {MessageKind.X: "method", ...}`` map names.
    handlers: dict[str, tuple[str, str, str]] = field(default_factory=dict)
    #: network/message.py context (anchor for registry-level findings).
    message_ctx: Optional[FileContext] = None

    @property
    def accounted(self) -> set[str]:
        """Kinds with a dispatch branch or a reply production site."""
        return set(self.handled) | set(self.replied)


def _kind_attr(node: ast.AST) -> Optional[str]:
    """``X`` for an ``MessageKind.X`` attribute access."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "MessageKind"
    ):
        return node.attr
    return None


def build_protocol_model(project: Project) -> ProtocolModel:
    """Scan the whole project for message-kind registration and usage.

    The rules share one model per project: they ask ``project.derive``.
    """
    model = ProtocolModel()
    message_ctx = project.find(MESSAGE_MODULE_SUFFIX)
    model.message_ctx = message_ctx
    if message_ctx is not None and message_ctx.tree is not None:
        model.members.update(_class_members(message_ctx, "MessageKind"))
        _extract_taxonomy(message_ctx, model)
    for ctx in project.python_files():
        _extract_usage(ctx, model)
    return model


def _class_members(ctx: FileContext, class_name: str) -> dict[str, int]:
    """``name -> line`` of the assignments in the body of the first class
    named ``class_name``."""
    for node in ctx.nodes(ast.ClassDef):
        if node.name == class_name:
            return {
                target.id: statement.lineno
                for statement in node.body
                if isinstance(statement, ast.Assign)
                for target in statement.targets
                if isinstance(target, ast.Name)
            }
    return {}


def _extract_taxonomy(ctx: FileContext, model: ProtocolModel) -> None:
    docstring = ast.get_docstring(ctx.tree) or ""
    for line in docstring.splitlines():
        match = TAXONOMY_ROW_PATTERN.match(line.strip())
        if match is None:
            continue
        kind = match.group(1)
        model.documented.add(kind)
        if "one-way" in line:
            model.one_way.add(kind)


def _handler_tables(cls: ast.ClassDef) -> Iterator[ast.Dict]:
    """The dicts ``cls``'s body assigns to ``HANDLES``."""
    for statement in cls.body:
        if isinstance(statement, ast.Assign) and isinstance(statement.value, ast.Dict):
            if any(isinstance(target, ast.Name) and target.id == "HANDLES" for target in statement.targets):
                yield statement.value


def _extract_usage(ctx: FileContext, model: ProtocolModel) -> None:
    for cls in ctx.nodes(ast.ClassDef):
        for table in _handler_tables(cls):
            for key, value in zip(table.keys, table.values):
                kind = _kind_attr(key) if key is not None else None
                if kind is not None and isinstance(value, ast.Constant) and isinstance(value.value, str):
                    model.handlers[kind] = (ctx.rel_path, cls.name, value.value)
    for node in ctx.nodes(ast.Dict, ast.Compare, ast.Call):
        if isinstance(node, ast.Dict):
            # A dispatch table: ``{MessageKind.X: handler, ...}``.
            for key in node.keys:
                kind = _kind_attr(key) if key is not None else None
                if kind is not None:
                    model.handled.setdefault(kind, []).append((ctx.rel_path, key.lineno))
        elif isinstance(node, ast.Compare):
            # ``message.kind is MessageKind.X`` (and ==, is not, != guards)
            # are dispatch branches too: the named kind is the one handled.
            for comparator in [node.left, *node.comparators]:
                kind = _kind_attr(comparator)
                if kind is not None:
                    model.handled.setdefault(kind, []).append((ctx.rel_path, node.lineno))
        elif isinstance(node, ast.Call):
            if isinstance(node.func, ast.Attribute) and node.func.attr == "reply":
                args = list(node.args)
                kind = _kind_attr(args[0]) if args else None
                if kind is None:
                    for keyword in node.keywords:
                        if keyword.arg == "kind":
                            kind = _kind_attr(keyword.value)
                if kind is not None:
                    model.replied.setdefault(kind, []).append((ctx.rel_path, node.lineno))
            elif isinstance(node.func, ast.Name) and node.func.id == "Message":
                for keyword in node.keywords:
                    if keyword.arg == "kind":
                        kind = _kind_attr(keyword.value)
                        if kind is not None:
                            model.sent.setdefault(kind, []).append(
                                (ctx.rel_path, node.lineno)
                            )


@register
class UnaccountedKindRule(Rule):
    """Registered message kinds nobody dispatches or replies with."""

    rule_id = "REPRO-P201"
    title = "message kind neither handled nor produced as a reply"
    rationale = (
        "a kind in the registry that no dispatch branch handles is a message the "
        "protocol can send but every node silently rejects"
    )
    example = "NEW_KIND = \"new_kind\"  # registered, no handler branch anywhere"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = project.derive(build_protocol_model)
        if model.message_ctx is None:
            return
        for kind, line in sorted(model.members.items()):
            if kind not in model.accounted:
                yield self.finding(
                    model.message_ctx,
                    line,
                    f"message kind {kind} is registered but no dispatch branch "
                    "handles it and no handler replies with it",
                )


@register
class SentWithoutHandlerRule(Rule):
    """Request kinds sent on the wire with no dispatch branch anywhere."""

    rule_id = "REPRO-P202"
    title = "sent message kind has no handler branch"
    rationale = (
        "a request constructed and sent must have a receiver-side dispatch branch, "
        "or every delivery dies as 'unsupported message kind'"
    )
    example = "yield from transport.exchange(peer, Message(kind=MessageKind.NEW_KIND, ...))"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = project.derive(build_protocol_model)
        for kind, sites in sorted(model.sent.items()):
            if kind not in model.handled:
                path, line = sites[0]
                yield self.finding(
                    path,
                    line,
                    f"message kind {kind} is sent as a request here but no "
                    "dispatch branch in the tree handles it",
                )


@register
class SilentDropRule(Rule):
    """Request handlers that can return ``None`` for two-way kinds."""

    rule_id = "REPRO-P203"
    title = "handler drops the reply for a two-way kind"
    rationale = (
        "every handler path must end in a reply or a typed rejection; returning "
        "None is only legal for kinds the taxonomy declares one-way"
    )
    example = "def _handle_find_entry(self, message):\n    if ...: return None"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = project.derive(build_protocol_model)
        # Kinds a handler serves; a handler shared by several kinds may only
        # return None when *all* of them are one-way.
        kinds_by_handler: dict[tuple[str, str, str], list[str]] = {}
        for kind, handler in model.handlers.items():
            kinds_by_handler.setdefault(handler, []).append(kind)
        for ctx in project.python_files():
            for cls in ctx.nodes(ast.ClassDef):
                for node in cls.body:
                    if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    kinds = kinds_by_handler.get((ctx.rel_path, cls.name, node.name))
                    if kinds and not all(kind in model.one_way for kind in kinds):
                        yield from self._drops(ctx, node, kinds)

    def _drops(
        self, ctx: FileContext, handler: ast.FunctionDef | ast.AsyncFunctionDef, kinds: list[str]
    ) -> Iterable[Finding]:
        for statement in ctx.nodes(ast.Return, within=handler):
            value = statement.value
            if value is None or (isinstance(value, ast.Constant) and value.value is None):
                yield self.finding(
                    ctx,
                    statement.lineno,
                    f"handler {handler.name} (serving {', '.join(sorted(kinds))}) "
                    "returns None — two-way kinds must reply or reject with a "
                    "typed error",
                )


@register
class TaxonomyRule(Rule):
    """The docstring taxonomy table mirrors the kind registry exactly."""

    rule_id = "REPRO-P204"
    title = "message-kind taxonomy table out of sync"
    rationale = (
        "the taxonomy table is the wire-protocol contract (including which kinds "
        "are one-way); a kind missing from it is protocol nobody agreed to"
    )
    example = "NEW_KIND = \"new_kind\"  # enum member without a taxonomy row"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        model = project.derive(build_protocol_model)
        ctx = model.message_ctx
        if ctx is None or not model.members:
            return
        for kind, line in sorted(model.members.items()):
            if kind not in model.documented:
                yield self.finding(
                    ctx,
                    line,
                    f"message kind {kind} has no row in the taxonomy table of "
                    "network/message.py",
                )
        for kind in sorted(model.documented - set(model.members)):
            yield self.finding(
                ctx,
                1,
                f"taxonomy table documents {kind}, which is not a registered "
                "MessageKind member",
            )


@register
class EventSubscriptionRule(Rule):
    """Event-bus subscriptions must name published event types."""

    rule_id = "REPRO-P205"
    title = "subscription to an event type nobody publishes"
    rationale = (
        "a subscriber waiting on an unpublished EventType is a hook that never "
        "fires — measurements and announcements silently stop"
    )
    example = "bus.subscribe(on_seal, types=(EventType.NEVER_PUBLISHED,))"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        members = self._event_members(project)
        if not members:
            return
        published: set[str] = set()
        subscribed: list[tuple[str, str, int]] = []
        for ctx in project.python_files():
            for node in ctx.nodes(ast.Call):
                func = node.func
                name = getattr(func, "attr", getattr(func, "id", ""))
                if "publish" in name:
                    for arg in list(node.args) + [kw.value for kw in node.keywords]:
                        for inner in ctx.nodes(ast.Attribute, within=arg):
                            member = self._event_attr(inner)
                            if member is not None:
                                published.add(member)
                elif name == "subscribe":
                    for keyword in node.keywords:
                        if keyword.arg != "types":
                            continue
                        for inner in ctx.nodes(ast.Attribute, within=keyword.value):
                            member = self._event_attr(inner)
                            if member is not None:
                                subscribed.append((member, ctx.rel_path, node.lineno))
        for member, path, line in subscribed:
            if member not in members:
                yield self.finding(path, line, f"subscription names unknown event type {member}")
            elif member not in published:
                yield self.finding(
                    path, line, f"subscription to EventType.{member}, which no publish site in the tree emits"
                )

    @staticmethod
    def _event_attr(node: ast.AST) -> Optional[str]:
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "EventType"
        ):
            return node.attr
        # ``EventType.X.value`` — the publish sites that stringify the kind.
        if (
            isinstance(node, ast.Attribute)
            and node.attr == "value"
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "EventType"
        ):
            return node.value.attr
        return None

    @staticmethod
    def _event_members(project: Project) -> dict[str, int]:
        ctx = project.find(EVENTS_MODULE_SUFFIX)
        if ctx is None or ctx.tree is None:
            return {}
        return _class_members(ctx, "EventType")
