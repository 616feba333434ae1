"""Performance rules (``REPRO-PERF5xx``).

The hot-path pass (PR 8) made point and signature decoding cheap by routing
them through bounded LRU caches (:func:`repro.crypto.ecdsa.decode_point`,
:func:`repro.crypto.ecdsa.decode_signature`).  A call site that decodes via
the raw classmethods instead re-runs the full on-curve / range validation on
every call — correct, but it silently forfeits the caching the profiler
showed dominating signature-heavy scenarios.  These rules keep new call
sites on the cached entry points.

Inside ``repro/crypto/`` the raw classmethods remain the implementation (the
cached wrappers *call* them), so the package is exempt — mirroring how the
determinism rules exempt ``core/clock.py`` from the wall-clock rule.

A replica's memory must follow the living chain, not the traffic it has
seen.  ``REPRO-PERF502`` flags, in the network and sync layers, a list
attribute an object builds in ``__init__`` and then grows from another
method — the shape of a message log that keeps every delivery.  A
``deque(maxlen=…)`` is the fix; a registry that only grows at setup says so
in a pragma.
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import Finding, Rule, register
from repro.lint.project import FileContext

#: Package whose modules implement the cached wrappers and may therefore
#: call the raw decoders directly.
CRYPTO_PACKAGE_FRAGMENT = "repro/crypto/"

#: Packages whose long-lived objects sit on the per-message path.
PER_MESSAGE_PACKAGE_FRAGMENTS = ("repro/network/", "repro/sync/")

#: ``Class.decode`` receivers that have a cached wrapper, mapped to it.
CACHED_DECODERS = {
    "CurvePoint": "repro.crypto.decode_point",
    "EcdsaSignature": "repro.crypto.decode_signature",
}


@register
class UncachedDecodeRule(Rule):
    """Raw ``CurvePoint.decode`` / ``EcdsaSignature.decode`` outside crypto/."""

    rule_id = "REPRO-PERF501"
    title = "uncached point/signature decode outside crypto/"
    rationale = (
        "the raw classmethods re-validate on every call; the cached wrappers "
        "decode_point/decode_signature make repeated verification of the same "
        "keys and seals O(1) after the first hit"
    )
    example = "point = CurvePoint.decode(key_hex)"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if CRYPTO_PACKAGE_FRAGMENT in ctx.rel_path:
            return
        for node in ctx.nodes(ast.Call):
            func = node.func
            if not (isinstance(func, ast.Attribute) and func.attr == "decode"):
                continue
            receiver = func.value
            if isinstance(receiver, ast.Name) and receiver.id in CACHED_DECODERS:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"{receiver.id}.decode() bypasses the decode cache — call "
                    f"{CACHED_DECODERS[receiver.id]}() instead",
                )


def _self_attribute(node: ast.AST) -> str:
    """``X`` for ``self.X``, else the empty string."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return ""


def _is_list_value(node: ast.AST) -> bool:
    """``[...]``, a list comprehension or a ``list(...)`` call."""
    if isinstance(node, (ast.List, ast.ListComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "list"
    )


@register
class UnboundedListGrowthRule(Rule):
    """A list attribute built in ``__init__`` and grown by another method."""

    rule_id = "REPRO-PERF502"
    title = "list attribute grown outside __init__ in network/ or sync/"
    rationale = (
        "a list an object appends to for its whole life grows with traffic, "
        "not with the living chain; keep a deque(maxlen=…) window, or say in "
        "a pragma why the list is bounded"
    )
    example = "self.message_log.append(message)  # message_log = [] in __init__"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if not any(fragment in ctx.rel_path for fragment in PER_MESSAGE_PACKAGE_FRAGMENTS):
            return
        for node in ctx.nodes(ast.ClassDef):
            yield from self._check_class(ctx, node)

    def _check_class(self, ctx: FileContext, node: ast.ClassDef) -> Iterable[Finding]:
        methods = [
            member
            for member in node.body
            if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        lists: set[str] = set()
        for method in methods:
            if method.name != "__init__":
                continue
            for statement in ctx.nodes(ast.Assign, ast.AnnAssign, within=method):
                if isinstance(statement, ast.Assign):
                    targets, value = statement.targets, statement.value
                elif statement.value is not None:
                    targets, value = [statement.target], statement.value
                else:
                    continue
                if _is_list_value(value):
                    lists.update(filter(None, map(_self_attribute, targets)))
        for method in methods:
            if method.name == "__init__":
                continue
            for call in ctx.nodes(ast.Call, within=method):
                if not (
                    isinstance(call.func, ast.Attribute)
                    and call.func.attr in ("append", "extend")
                ):
                    continue
                attribute = _self_attribute(call.func.value)
                if attribute in lists:
                    yield self.finding(
                        ctx,
                        call.lineno,
                        f"{node.name}.{attribute} is a list built in __init__ and "
                        f"grown in {method.name}() — keep a deque(maxlen=…) "
                        "window, or say in a pragma why it is bounded",
                    )
