"""Frozen-object discipline rules (``REPRO-F3xx``).

The domain model is built from frozen dataclasses so that chain content is
immutable once hashed.  Two disciplines keep that story honest:

* ``object.__setattr__`` — the only legal way to write to a frozen instance —
  is confined to ``__post_init__`` (derived-field initialisation).  Anywhere
  else it is mutation of supposedly immutable state (``REPRO-F301``).
* every frozen core type that participates in canonical serialisation (it
  defines ``to_dict``, so :func:`repro.crypto.hashing.canonical_json` will
  happily serialise it through the ``_encode_fallback`` path) must define
  ``__canonical_json__`` so its canonical form is explicit and memoisable
  rather than an accident of the fallback encoder (``REPRO-F302``).
"""

from __future__ import annotations

import ast
from typing import Iterable

from repro.lint.base import Finding, Rule, register
from repro.lint.project import FileContext

#: Modules whose frozen types are chain content: their serialised form feeds
#: summary hashes, so the canonical-form hook is mandatory there.
CORE_PACKAGE_FRAGMENT = "repro/core/"

#: Method bodies where ``object.__setattr__`` on a frozen instance is the
#: sanctioned idiom (dataclasses docs say so for derived fields).
SETATTR_SANCTUARY = "__post_init__"


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = getattr(decorator.func, "id", getattr(decorator.func, "attr", ""))
        if name != "dataclass":
            continue
        for keyword in decorator.keywords:
            if keyword.arg == "frozen" and getattr(keyword.value, "value", False) is True:
                return True
    return False


def _is_object_setattr(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "__setattr__"
        and isinstance(node.func.value, ast.Name)
        and node.func.value.id == "object"
    )


@register
class FrozenSetattrRule(Rule):
    """``object.__setattr__`` anywhere but ``__post_init__``."""

    rule_id = "REPRO-F301"
    title = "object.__setattr__ outside __post_init__"
    rationale = (
        "frozen dataclasses are the immutability guarantee of chain content; "
        "a __setattr__ escape hatch outside derived-field initialisation is "
        "mutation of hashed state"
    )
    example = "object.__setattr__(block, \"entries\", pruned)"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        for node in ctx.nodes(ast.Call):
            if not _is_object_setattr(node):
                continue
            function = ctx.enclosing(node, ast.FunctionDef, ast.AsyncFunctionDef)
            if function is not None and function.name == SETATTR_SANCTUARY:
                continue
            yield self.finding(
                ctx,
                node.lineno,
                "object.__setattr__ outside __post_init__ mutates a frozen "
                "instance — derive the value in __post_init__ or rebuild "
                "the object",
            )


@register
class MissingCanonicalHookRule(Rule):
    """Frozen core types serialisable via ``to_dict`` without the hook."""

    rule_id = "REPRO-F302"
    title = "frozen core type lacks __canonical_json__"
    rationale = (
        "canonical_json serialises any to_dict-bearing object through its "
        "fallback encoder; core chain content must define __canonical_json__ "
        "so its canonical form is explicit, testable and memoisable"
    )
    example = "@dataclass(frozen=True)\nclass EntryReference:  # to_dict, no hook"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        if CORE_PACKAGE_FRAGMENT not in ctx.rel_path:
            return
        for node in ctx.nodes(ast.ClassDef):
            if not _is_frozen_dataclass(node):
                continue
            methods = {
                member.name
                for member in node.body
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
            if "to_dict" in methods and "__canonical_json__" not in methods:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"frozen core type {node.name} defines to_dict but no "
                    "__canonical_json__ — its canonical form is an accident of "
                    "the fallback encoder",
                )
