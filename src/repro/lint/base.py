"""Rule base classes, findings, and the rule registry.

Every rule is a class with a unique ``rule_id`` (``REPRO-<FAMILY><NUMBER>``),
a one-line ``title`` shown in reports and the docs catalogue, a ``rationale``
explaining which reproduction guarantee the rule protects, and an ``example``
of code it rejects.  Rules come in two scopes:

* **file** rules inspect one parsed Python file at a time
  (:meth:`Rule.check_file`),
* **project** rules see the whole file set at once and perform cross-file
  consistency checks (:meth:`Rule.check_project`) — the protocol rules
  cross-reference the message-kind registry against every dispatch site,
  something no per-file pass can do.

The registry is the single source of truth for the rule catalogue: the CLI's
``--list-rules``, the docs table in ``docs/ARCHITECTURE.md`` (pinned by
``REPRO-DOC403``) and the test suite all read it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Type

if TYPE_CHECKING:  # pragma: no cover - only for type annotations
    from repro.lint.project import FileContext, Project


@dataclass(frozen=True)
class Finding:
    """One lint finding, anchored to a file position.

    ``suppressed`` findings were matched by an ``allow`` pragma; they are
    excluded from the exit-code decision but kept available for reporting
    (``--show-suppressed``) so suppressions stay visible, not silent.
    """

    rule_id: str
    path: str
    line: int
    message: str
    suppressed: bool = False
    suppression_reason: str = ""

    @property
    def sort_key(self) -> tuple[str, int, str]:
        """Stable report order: by file, then line, then rule."""
        return (self.path, self.line, self.rule_id)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (the JSON reporter's row)."""
        payload: dict[str, Any] = {
            "rule": self.rule_id,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.suppressed:
            payload["suppressed"] = True
            payload["suppression_reason"] = self.suppression_reason
        return payload


class Rule:
    """Base class for all lint rules."""

    #: Unique identifier, e.g. ``REPRO-D101``.
    rule_id: str = ""
    #: One-line summary for reports and the docs catalogue.
    title: str = ""
    #: Which guarantee the rule protects (docs catalogue column).
    rationale: str = ""
    #: A short snippet of code the rule rejects (docs catalogue column).
    example: str = ""
    #: ``"file"`` or ``"project"``.
    scope: str = "file"

    def applies_to(self, project: "Project") -> bool:
        """False when ``project`` lacks what a finding of this rule needs.

        A rule that does not apply does not run, and its pragmas are not
        judged stale.
        """
        return True

    def check_file(self, ctx: "FileContext") -> Iterable[Finding]:
        """Yield findings for one parsed Python file (file-scope rules)."""
        return ()

    def check_project(self, project: "Project") -> Iterable[Finding]:
        """Yield findings for the whole file set (project-scope rules)."""
        return ()

    def finding(self, ctx_or_path: Any, line: int, message: str) -> Finding:
        """Build a finding anchored at ``line`` of the given file."""
        path = getattr(ctx_or_path, "rel_path", ctx_or_path)
        return Finding(rule_id=self.rule_id, path=str(path), line=line, message=message)


#: The live rule registry, ordered by registration (re-sorted on read).
_REGISTRY: dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the registry (id must be unique)."""
    if not cls.rule_id:
        raise ValueError(f"rule {cls.__name__} has no rule_id")
    if cls.rule_id in _REGISTRY:
        raise ValueError(f"duplicate rule id {cls.rule_id}")
    _REGISTRY[cls.rule_id] = cls
    return cls


def rule_catalogue() -> list[Type[Rule]]:
    """All registered rule classes, sorted by rule id."""
    # The rule modules register themselves on first import, so the catalogue
    # is complete no matter which entry point asked for it.
    # repro: allow[REPRO-S602] imported for the registration side effect
    from repro.lint import (
        rules_determinism,
        rules_docs,
        rules_frozen,
        rules_perf,
        rules_protocol,
        rules_surface,
    )

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> list[str]:
    """All registered rule ids (plus the engine's meta-checks)."""
    rule_catalogue()
    return sorted(set(_REGISTRY) | {check["rule_id"] for check in ENGINE_CHECKS})


#: Engine-level meta-checks: these are emitted by the engine itself (they
#: concern parsing and the suppression mechanism, which no rule can see), but
#: they carry ids like every other check so they can be listed, documented
#: and tested.
SYNTAX_ERROR_ID = "REPRO-A000"
PRAGMA_WITHOUT_REASON_ID = "REPRO-A001"
UNUSED_PRAGMA_ID = "REPRO-A002"

#: Catalogue rows for the engine-level checks (same shape as Rule attributes),
#: so the docs table and ``--list-rules`` cover the full check surface.
ENGINE_CHECKS: list[dict[str, str]] = [
    {
        "rule_id": SYNTAX_ERROR_ID,
        "title": "file does not parse",
        "rationale": "a file the AST rules cannot read is a file no invariant is checked in",
        "example": "def broken(:",
    },
    {
        "rule_id": PRAGMA_WITHOUT_REASON_ID,
        "title": "allow pragma without a reason",
        "rationale": "every suppression must say why the hazard is acceptable; a bare pragma is an unreviewable mute",
        "example": "x = hash(key)  # repro: allow[REPRO-D103]",
    },
    {
        "rule_id": UNUSED_PRAGMA_ID,
        "title": "allow pragma that suppresses nothing",
        "rationale": "stale pragmas hide the rule's absence — the hazard they once excused may have moved or gone",
        "example": "y = 1  # repro: allow[REPRO-D101] no clock read here",
    },
]


@dataclass
class LintReport:
    """Outcome of one lint run."""

    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    files_scanned: int = 0
    rules_run: int = 0

    @property
    def clean(self) -> bool:
        """True when no unsuppressed finding remains."""
        return not self.findings

    @property
    def exit_code(self) -> int:
        """0 when clean, 1 when findings remain."""
        return 0 if self.clean else 1

    def to_dict(self) -> dict[str, Any]:
        """JSON-serialisable representation (the JSON reporter's document)."""
        return {
            "clean": self.clean,
            "files_scanned": self.files_scanned,
            "rules_run": self.rules_run,
            "findings": [finding.to_dict() for finding in self.findings],
            "suppressed": [finding.to_dict() for finding in self.suppressed],
        }

    def by_rule(self) -> dict[str, int]:
        """Unsuppressed finding counts per rule id."""
        counts: dict[str, int] = {}
        for finding in self.findings:
            counts[finding.rule_id] = counts.get(finding.rule_id, 0) + 1
        return counts
