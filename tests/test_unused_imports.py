"""No module under ``src/`` or ``tests/`` imports a name it never uses.

An AST pass binds each imported name (``import a.b`` binds ``a``) and counts
as uses every ``Name`` node, every name listed in a module-level
``__all__``, and the names inside a string that reads as a type expression
(``"Sequence[Workload]"``, ``Callable[["Blockchain"], None]``).  An import
line carrying ``# noqa`` is skipped, as are ``from __future__`` and star
imports.  ``tests/fixtures/`` holds deliberately bad code and is not scanned.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests")

#: The node types a string annotation may consist of.
TYPE_EXPRESSION = (ast.Name, ast.Attribute, ast.Subscript, ast.Tuple, ast.List, ast.Load, ast.BinOp, ast.BitOr,
                   ast.Constant)


def _names_in_type_string(text: str) -> set[str]:
    try:
        tree = ast.parse(text.strip(), mode="eval")
    except SyntaxError:
        return set()
    nodes = list(ast.walk(tree.body))
    if not all(isinstance(node, TYPE_EXPRESSION) for node in nodes):
        return set()
    return {node.id for node in nodes if isinstance(node, ast.Name)}


def _docstrings(tree: ast.Module) -> set[ast.Constant]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant):
                found.add(first.value)
    return found


def unused_imports(source: str) -> list[tuple[int, str]]:
    """``(line, name)`` of every imported name ``source`` never uses."""
    tree = ast.parse(source)
    lines = source.splitlines()
    docstrings = _docstrings(tree)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa" in lines[number] for number in range(node.lineno - 1, node.end_lineno)):
                continue
            for alias in node.names:
                if alias.name != "*":
                    imported.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and node not in docstrings:
            used |= _names_in_type_string(node.value)
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
            used |= {c.value for c in ast.walk(node.value) if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_no_module_imports_a_name_it_never_uses():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for directory in SCANNED
        for path in sorted((ROOT / directory).rglob("*.py"))
        if "fixtures" not in path.relative_to(ROOT).parts
        for line, name in unused_imports(path.read_text(encoding="utf-8"))
    ]
    assert found == []


def test_a_planted_unused_import_is_found():
    source = "import json\nfrom typing import Any, Optional\n\n\ndef f(x: Optional[int]) -> int:\n    return 1\n"
    assert unused_imports(source) == [(1, "json"), (2, "Any")]


def test_all_noqa_and_type_strings_count_as_uses():
    source = '''"""Optional in a docstring is not a use."""
from typing import Callable, Optional, Sequence
import os.path
import sys  # noqa: F401
from .workload import Workload, Runner
from .other import Exported

__all__ = ["Exported"]


def run(items: "Sequence[Workload]", hook: Callable[["Runner"], None]) -> None:
    os.path.join("a", "b")
'''
    assert unused_imports(source) == [(2, "Optional")]
