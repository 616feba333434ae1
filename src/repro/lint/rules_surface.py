"""Surface rules (``REPRO-S6xx``): code the system does not run.

* a public top-level ``src/repro`` definition that no entry point reaches
  (``REPRO-S601``) is surface nobody runs, however well tested,
* an imported name the module never uses (``REPRO-S602``).

Both are name-based and over-approximate use.  A definition kept on purpose
carries a reasoned ``allow`` pragma like any other finding.
"""

from __future__ import annotations

import ast
import re
from typing import Iterable

from repro.lint.base import Finding, Rule, register
from repro.lint.project import FileContext, Project

#: Files whose whole text is an entry point: the CLI (through it the
#: scenario catalogue and ``repro lint``), and every non-test module under
#: the benchmark and example trees.
ENTRY_MODULES = ("src/repro/cli.py", "src/repro/__main__.py")
ENTRY_TREES = ("benchmarks/", "examples/")

#: Decorators that store the definition they wrap in a registry.
REGISTERING_DECORATORS = frozenset({"register", "scenario"})

DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: The node types a string annotation may consist of.
TYPE_EXPRESSION = (
    ast.Name, ast.Attribute, ast.Subscript, ast.Tuple, ast.List, ast.Load, ast.BinOp, ast.BitOr, ast.Constant,
)


def _is_entry(rel_path: str) -> bool:
    if rel_path in ENTRY_MODULES:
        return True
    return rel_path.startswith(ENTRY_TREES) and not rel_path.rsplit("/", 1)[-1].startswith("test_")


def _decorator_name(node: ast.expr) -> str | None:
    node = node.func if isinstance(node, ast.Call) else node
    return getattr(node, "id", getattr(node, "attr", None))


def _uses(ctx: FileContext, roots: Iterable[ast.AST], aliases: dict[str, str]) -> set[str]:
    """Identifiers used under ``roots``, an alias counting as the name it imports.

    A string that spells an identifier counts: it may be a ``getattr`` or
    registry lookup by name.
    """
    names: set[str] = set()
    for root in roots:
        for node in ctx.nodes(ast.Name, ast.Attribute, ast.Constant, within=root):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node.value, str) and node.value.isidentifier():
                names.add(node.value)
    return names | {aliases[name] for name in names & aliases.keys()}


@register
class UnreachedDefinitionRule(Rule):
    """Public ``src/repro`` definitions no entry point reaches."""

    rule_id = "REPRO-S601"
    title = "public definition no entry point reaches"
    rationale = (
        "the library keeps what the CLI, the scenarios, the benchmarks or the "
        "examples run; a public definition only tests reach is surface nobody runs"
    )
    example = "def legacy_scan(chain):  # called from tests/ only"
    scope = "project"

    def applies_to(self, project: Project) -> bool:
        # A run over named paths does not see every entry point.
        return project.complete

    def check_project(self, project: Project) -> Iterable[Finding]:
        roots: set[str] = set()
        # name -> (module, uses of the body) per definition; per module the
        # uses of its own statements, which run once one definition is reached.
        definitions: dict[str, list[tuple[str, set[str]]]] = {}
        module_uses: dict[str, set[str]] = {}
        public: list[tuple[FileContext, ast.AST]] = []
        for ctx in project.python_files():
            aliases = {
                alias.asname: alias.name.rsplit(".", 1)[-1]
                for node in ctx.nodes(ast.Import, ast.ImportFrom)
                for alias in node.names
                if alias.asname
            }
            if _is_entry(ctx.rel_path):
                roots |= _uses(ctx, [ctx.tree], aliases)
                continue
            if not ctx.rel_path.startswith("src/repro/"):
                continue
            statements = []
            for node in ctx.tree.body:
                if not isinstance(node, DEFINITIONS):
                    # A package __init__ only re-exports, which is no use.
                    if not ctx.rel_path.endswith("/__init__.py"):
                        statements.append(node)
                    continue
                definitions.setdefault(node.name, []).append((ctx.rel_path, _uses(ctx, [node], aliases)))
                if not node.name.startswith("_"):
                    public.append((ctx, node))
                if any(_decorator_name(d) in REGISTERING_DECORATORS for d in node.decorator_list):
                    roots.add(node.name)
            module_uses[ctx.rel_path] = _uses(ctx, statements, aliases)

        reached: set[str] = set()
        live_modules: set[str] = set()
        frontier = set(roots)
        while frontier:
            name = frontier.pop()
            if name in reached:
                continue
            reached.add(name)
            for module, uses in definitions.get(name, ()):
                frontier |= uses - reached
                if module not in live_modules:
                    live_modules.add(module)
                    frontier |= module_uses[module] - reached
        for ctx, node in public:
            if node.name not in reached:
                yield self.finding(
                    ctx,
                    node.lineno,
                    f"public definition {node.name} is reached by no entry point (the CLI, a "
                    "scenario, benchmarks/, examples/) — reach it from one or delete it",
                )


@register
class UnusedImportRule(Rule):
    """Imported names the module never uses."""

    rule_id = "REPRO-S602"
    title = "imported name the module never uses"
    rationale = (
        "an import nothing uses is a dependency the module does not have; "
        "it misleads readers and the reach census alike"
    )
    example = "import json  # and no json anywhere below"

    def check_file(self, ctx: FileContext) -> Iterable[Finding]:
        imported: dict[str, int] = {}
        for node in ctx.nodes(ast.Import, ast.ImportFrom):
            if getattr(node, "module", None) != "__future__":
                for alias in node.names:
                    if alias.name != "*":
                        imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        # Uses: a Name, a module-level __all__ entry, a type-expression string.
        unused = imported.keys() - {node.id for node in ctx.nodes(ast.Name)} - _exported(ctx)
        if unused:
            unused -= _type_string_uses(ctx, unused)
        for name in sorted(unused, key=lambda name: (imported[name], name)):
            yield self.finding(ctx, imported[name], f"{name} is imported but never used")


def _exported(ctx: FileContext) -> set[str]:
    names: set[str] = set()
    for node in ctx.tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        value = getattr(node, "value", None)
        if value is not None and any(getattr(target, "id", None) == "__all__" for target in targets):
            names |= {c.value for c in ctx.nodes(ast.Constant, within=value) if isinstance(c.value, str)}
    return names


def _type_string_uses(ctx: FileContext, candidates: set[str]) -> set[str]:
    """The ``candidates`` a non-docstring string names as a type expression.

    A string that does not spell a candidate cannot name it, and is not parsed.
    """
    docstrings = set()
    for node in ctx.nodes(ast.Module, *DEFINITIONS):
        if node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant):
            docstrings.add(node.body[0].value)
    spelled = re.compile("|".join(map(re.escape, sorted(candidates))))
    used: set[str] = set()
    for node in ctx.nodes(ast.Constant):
        if isinstance(node.value, str) and node not in docstrings and spelled.search(node.value):
            try:
                expression = ast.parse(node.value.strip(), mode="eval").body
            except SyntaxError:
                continue
            parts = list(ast.walk(expression))
            if all(isinstance(part, TYPE_EXPRESSION) for part in parts):
                used |= {part.id for part in parts if isinstance(part, ast.Name)} & candidates
    return used
