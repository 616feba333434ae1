"""The file model the lint engine runs over.

A :class:`Project` is an ordered set of :class:`FileContext` objects — parsed
Python sources plus raw markdown documents — with the repo root they are
relative to.  Each Python file is parsed once and walked once: the walk
numbers every node in source order and records where its subtree ends, so a
rule asks :meth:`FileContext.nodes` for the nodes of a type (in the whole
file or under one node) instead of walking the tree itself.  Two
constructors exist:

* :meth:`Project.from_root` walks the real tree (the CLI path),
* :meth:`Project.from_sources` builds a synthetic project from
  ``{relative_path: source}`` mappings — how the test suite proves
  cross-file rules fire (e.g. that registering a new message kind without a
  dispatch branch fails the lint) without touching the working tree.

Suppression pragmas are parsed here, once per file::

    risky_call()  # repro: allow[REPRO-D103] counting shared request objects

The pragma suppresses matching findings on its own line or, when written on
a line of its own, on the line directly below.  Several ids may share one
pragma (``allow[REPRO-D101,REPRO-D102] reason``).  The reason is mandatory —
a bare pragma is itself reported (``REPRO-A001``), and a pragma that ends up
suppressing nothing is reported too (``REPRO-A002``), so suppressions can
neither be silent nor go stale.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from bisect import bisect_left
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Optional, TypeVar

T = TypeVar("T")

#: Directories scanned by default, relative to the repo root.
DEFAULT_SCAN_DIRS = ("src", "tests", "benchmarks", "examples")

#: Markdown documents checked by the docs rules.
DEFAULT_DOC_FILES = ("README.md", "docs")

#: Path fragments excluded from every scan: the known-bad lint fixtures are
#: *meant* to violate the rules (CI runs the linter on them expecting a
#: nonzero exit), so the default pass must not trip over them.
EXCLUDED_PARTS = ("tests/fixtures/",)

PRAGMA_PATTERN = re.compile(
    r"#\s*repro:\s*allow\[(?P<ids>[A-Z0-9,\s-]+)\]\s*(?P<reason>.*)$"
)


@dataclass
class Pragma:
    """One parsed ``allow`` pragma."""

    line: int
    rule_ids: tuple[str, ...]
    reason: str

    def covers(self, rule_id: str, line: int) -> bool:
        """True when this pragma suppresses ``rule_id`` findings at ``line``."""
        return rule_id in self.rule_ids and line in (self.line, self.line + 1)


@dataclass
class NodeIndex:
    """One walk of a tree, numbering its nodes in preorder: the subtree of
    the node at ``position[node]`` is the range up to ``end[position[node]]``."""

    order: list[ast.AST]
    end: list[int]
    position: dict[ast.AST, int]
    by_type: dict[type, list[int]]

    @classmethod
    def build(cls, tree: ast.AST) -> "NodeIndex":
        order: list[ast.AST] = []
        end: list[int] = []
        by_type: dict[type, list[int]] = {}

        def visit(node: ast.AST) -> None:
            at = len(order)
            order.append(node)
            end.append(0)
            by_type.setdefault(type(node), []).append(at)
            for name in node._fields:
                value = getattr(node, name, None)
                for child in value if isinstance(value, list) else (value,):
                    if isinstance(child, ast.AST):
                        visit(child)
            end[at] = len(order)

        visit(tree)
        return cls(order, end, {node: at for at, node in enumerate(order)}, by_type)


@dataclass
class FileContext:
    """One source file as the rules see it."""

    rel_path: str
    source: str
    _tree: Optional[ast.AST] = field(default=None, repr=False)
    _parse_error: Optional[SyntaxError] = field(default=None, repr=False)
    _index: Optional[NodeIndex] = field(default=None, repr=False)
    _pragmas: Optional[list[Pragma]] = field(default=None, repr=False)

    @property
    def is_python(self) -> bool:
        """True for files the AST rules should parse."""
        return self.rel_path.endswith(".py")

    @property
    def is_markdown(self) -> bool:
        """True for files the docs rules should scan."""
        return self.rel_path.endswith(".md")

    @property
    def tree(self) -> Optional[ast.AST]:
        """The parsed AST (``None`` for non-Python or unparseable files)."""
        if self._tree is None and self._parse_error is None and self.is_python:
            try:
                self._tree = ast.parse(self.source)
            except SyntaxError as exc:
                self._parse_error = exc
        return self._tree

    @property
    def parse_error(self) -> Optional[SyntaxError]:
        """The syntax error that prevented parsing, if any."""
        return self._parse_error if self.tree is None else None

    def nodes(self, *types: type, within: Optional[ast.AST] = None) -> list[Any]:
        """The nodes of exactly these types, in source order.

        ``within`` narrows the search to one node's subtree, the node itself
        included (what ``ast.walk(within)`` would visit).
        """
        index = self._node_index()
        low, high = 0, len(index.order)
        if within is not None:
            low = index.position[within]
            high = index.end[low]
        positions: list[int] = []
        for kind in types:
            found = index.by_type.get(kind, ())
            positions.extend(found[bisect_left(found, low) : bisect_left(found, high)])
        if len(types) > 1:
            positions.sort()
        return [index.order[at] for at in positions]

    def enclosing(self, node: ast.AST, *types: type) -> Optional[Any]:
        """The innermost proper ancestor of ``node`` of one of ``types``."""
        index = self._node_index()
        at = index.position[node]
        ancestors = [n for n in self.nodes(*types) if index.position[n] < at < index.end[index.position[n]]]
        return ancestors[-1] if ancestors else None

    def _node_index(self) -> NodeIndex:
        if self._index is None:
            self._index = NodeIndex.build(self.tree)
        return self._index

    @property
    def lines(self) -> list[str]:
        """The raw source split into lines (1-indexed via ``line - 1``)."""
        return self.source.splitlines()

    @property
    def pragmas(self) -> list[Pragma]:
        """All ``allow`` pragmas of this file, parsed once.

        Python files are tokenised so only genuine comments count — pragma-
        shaped text inside string literals (rule examples, docstrings) must
        not suppress anything.  A file whose text never spells ``repro:``
        holds no pragma and is not tokenised at all.
        """
        if self._pragmas is None:
            parsed: list[Pragma] = []
            for number, text in self._comment_lines():
                match = PRAGMA_PATTERN.search(text)
                if match is None:
                    continue
                ids = tuple(
                    part.strip() for part in match.group("ids").split(",") if part.strip()
                )
                parsed.append(
                    Pragma(line=number, rule_ids=ids, reason=match.group("reason").strip())
                )
            self._pragmas = parsed
        return self._pragmas

    def _comment_lines(self) -> Iterator[tuple[int, str]]:
        """``(line, text)`` pairs a pragma may legitimately live in.

        Only Python files carry pragmas: markdown has no comment syntax the
        engine honours (the docs rule-catalogue table quotes pragma examples
        verbatim, which must not register as suppressions), and findings on
        docs are meant to be fixed, not muted.
        """
        if not self.is_python or "repro:" not in self.source:
            return
        try:
            tokens = list(
                tokenize.generate_tokens(io.StringIO(self.source).readline)
            )
        except (tokenize.TokenError, SyntaxError, IndentationError):
            # Unparseable files already carry a REPRO-A000 finding; their
            # pragmas are read with the plain line scan.
            yield from enumerate(self.lines, 1)
            return
        for token in tokens:
            if token.type == tokenize.COMMENT:
                yield token.start[0], token.string


@dataclass
class Project:
    """The ordered file set one lint run covers."""

    files: list[FileContext]
    root: Optional[Path] = None
    #: False when the run names explicit paths: the project then holds a
    #: part of the tree, and a rule about the whole tree proves nothing.
    complete: bool = True
    _derived: dict[Callable[..., Any], Any] = field(default_factory=dict, repr=False)

    @classmethod
    def from_root(
        cls,
        root: Path,
        *,
        paths: Optional[Iterable[Path]] = None,
    ) -> "Project":
        """Collect the default scan set (or explicit ``paths``) under ``root``.

        Explicit paths bypass the fixture exclusion — pointing the linter at
        a known-bad file on purpose (the CI gate test) must work.
        """
        root = root.resolve()
        contexts: list[FileContext] = []
        if paths is None:
            candidates = _default_candidates(root)
            explicit = False
        else:
            candidates = []
            for path in paths:
                path = path.resolve()
                if path.is_dir():
                    candidates.extend(sorted(path.rglob("*.py")))
                    candidates.extend(sorted(path.rglob("*.md")))
                else:
                    candidates.append(path)
            explicit = True
        seen: set[str] = set()
        for path in candidates:
            try:
                rel = path.relative_to(root).as_posix()
            except ValueError:
                rel = path.as_posix()
            if rel in seen:
                continue
            if not explicit and any(part in rel for part in EXCLUDED_PARTS):
                continue
            seen.add(rel)
            contexts.append(FileContext(rel_path=rel, source=path.read_text(encoding="utf-8")))
        return cls(files=contexts, root=root, complete=not explicit)

    @classmethod
    def from_sources(cls, sources: dict[str, str]) -> "Project":
        """Build a synthetic project from ``{relative_path: source}``."""
        return cls(
            files=[
                FileContext(rel_path=rel_path, source=source)
                for rel_path, source in sorted(sources.items())
            ]
        )

    def derive(self, build: Callable[["Project"], T]) -> T:
        """``build(self)``, computed once per project for every rule that asks."""
        if build not in self._derived:
            self._derived[build] = build(self)
        return self._derived[build]

    def python_files(self) -> Iterator[FileContext]:
        """The parseable Python files, in scan order."""
        for ctx in self.files:
            if ctx.is_python and ctx.tree is not None:
                yield ctx

    def markdown_files(self) -> Iterator[FileContext]:
        """The markdown documents, in scan order."""
        for ctx in self.files:
            if ctx.is_markdown:
                yield ctx

    def find(self, rel_suffix: str) -> Optional[FileContext]:
        """The file whose relative path ends with ``rel_suffix``, if any."""
        for ctx in self.files:
            if ctx.rel_path.endswith(rel_suffix):
                return ctx
        return None


def _default_candidates(root: Path) -> list[Path]:
    """The default scan set: code directories plus the documentation."""
    candidates: list[Path] = []
    for name in DEFAULT_SCAN_DIRS:
        base = root / name
        if base.is_dir():
            candidates.extend(sorted(base.rglob("*.py")))
    for name in DEFAULT_DOC_FILES:
        base = root / name
        if base.is_dir():
            candidates.extend(sorted(base.glob("*.md")))
        elif base.is_file():
            candidates.append(base)
    return candidates
