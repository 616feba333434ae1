"""Every public ``src/repro`` definition is reached by something the system runs.

The library keeps a definition only if a non-test entry point reaches it:
the CLI (and through it the scenario catalogue and ``repro lint``), the
benchmark sweeps and the wall-clock yardstick under ``benchmarks/``, and the
example programs.  A public function or class that only tests call is
surface nobody runs; this census fails the day one is added, and it also
fails when an exception below is no longer needed.

The pass is static and name-based, so it over-approximates reach: a name
used anywhere in reached code keeps every top-level definition of that name.

- Roots are every identifier in the entry files, and the bodies of
  definitions a registering decorator collects (``@register`` lint rules,
  ``@scenario`` catalogue entries).
- A reached definition reaches the names its body uses.  A reached class
  reaches the names used in all of its methods.
- A module's own top-level statements count once one of its definitions
  is reached.  Import statements and package ``__init__`` re-exports are
  not uses: a name that is only re-exported is not reached.

Only top-level definitions are censused.  Methods ride with their class, so
method-level test oracles (``CurvePoint.affine_multiply``, the ``legacy_*``
scans ``self_check`` runs) are out of scope.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
PACKAGE = REPO_ROOT / "src" / "repro"

# Files whose whole text is an entry point.
ENTRY_FILES = (
    PACKAGE / "cli.py",
    PACKAGE / "__main__.py",
)
ENTRY_TREES = (REPO_ROOT / "benchmarks", REPO_ROOT / "examples")

# Decorators that store the definition they wrap in a registry.
REGISTERING_DECORATORS = frozenset({"register", "scenario"})

# Public definitions that nothing the system runs reaches, each kept on
# purpose.  The key is ``module:name`` relative to ``src/repro``.
EXCEPTIONS = {
    "core/validation.py:verify_summary_determinism": "a paper invariant, for the invariant table",
    "core/validation.py:is_traceable_extension": "a paper invariant, for the invariant table",
    "core/validation.py:deletion_is_effective": "a paper invariant, for the invariant table",
    "storage/snapshot.py:save_snapshot": "the file format that keeps the registry over a restart",
    "storage/snapshot.py:load_snapshot": "the file format that keeps the registry over a restart",
    "core/clock.py:SystemClock": "the one wall clock a deployment outside the simulator passes",
    "crypto/ecdsa.py:clear_decode_caches": "isolates tests from the process-wide decode caches",
}


def _decorator_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _aliases(tree: ast.Module) -> dict[str, str]:
    """``asname -> name`` for every ``import ... as`` in one file."""
    return {
        alias.asname: alias.name.rsplit(".", 1)[-1]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
        if alias.asname
    }


def _uses(nodes, aliases: dict[str, str]) -> set[str]:
    """Identifiers the nodes use, import statements excluded.

    A string that spells an identifier counts: it may be a ``getattr`` or
    registry lookup by name.
    """
    names: set[str] = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                names.add(node.value)
        stack.extend(ast.iter_child_nodes(node))
    return names | {aliases[name] for name in names & aliases.keys()}


def _python_files(root: Path):
    return sorted(path for path in root.rglob("*.py") if "__pycache__" not in path.parts)


def unreached_definitions() -> set[str]:
    """``module:name`` of every public top-level definition nothing reaches."""
    roots: set[str] = set()
    entry_files = set(ENTRY_FILES)
    for tree_root in ENTRY_TREES:
        entry_files.update(
            path for path in _python_files(tree_root) if not path.name.startswith("test_")
        )
    for path in entry_files:
        tree = ast.parse(path.read_text(), filename=str(path))
        roots |= _uses([tree], _aliases(tree))

    # name -> [(module, uses of its body)], and per module its top-level uses.
    definitions: dict[str, list[tuple[str, set[str]]]] = {}
    module_uses: dict[str, set[str]] = {}
    public: set[tuple[str, str]] = set()
    for path in _python_files(PACKAGE):
        if path in entry_files:
            continue
        module = path.relative_to(PACKAGE).as_posix()
        tree = ast.parse(path.read_text(), filename=str(path))
        aliases = _aliases(tree)
        statements = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                uses = _uses([node], aliases)
                definitions.setdefault(node.name, []).append((module, uses))
                if not node.name.startswith("_"):
                    public.add((module, node.name))
                if any(
                    _decorator_name(d) in REGISTERING_DECORATORS for d in node.decorator_list
                ):
                    roots.add(node.name)
            elif path.name != "__init__.py":
                statements.append(node)
        module_uses[module] = _uses(statements, aliases)

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
    return {f"{module}:{name}" for module, name in public if name not in reached}


def test_only_the_listed_exceptions_are_unreached():
    unreached = unreached_definitions()
    new = sorted(unreached - EXCEPTIONS.keys())
    stale = sorted(EXCEPTIONS.keys() - unreached)
    assert not new, (
        f"public definitions no entry point reaches: {new}; reach them from "
        f"a scenario, a CLI command, a benchmark or an example, or delete them"
    )
    assert not stale, f"exceptions that are reached now, or gone: {stale}"
