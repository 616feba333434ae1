"""Documentation rules (``REPRO-DOC4xx``).

The relative-link check plus the table-sync checks the test suite pins,
folded into the lint pass so one command (``python -m repro lint``) gates
code *and* documentation:

* every local markdown link must resolve to a real file (``REPRO-DOC401``),
* the scenario-catalogue table in ``docs/ARCHITECTURE.md`` must mirror the
  live :func:`repro.network.scenarios.scenario_catalogue` — names and
  parameter sets (``REPRO-DOC402``),
* the static-analysis rule table in ``docs/ARCHITECTURE.md`` must list
  exactly the registered rule ids, engine meta-checks included
  (``REPRO-DOC403``) — this file you are reading cannot add a rule without
  documenting it,
* the claims table in ``docs/CLAIMS.md`` must have exactly one row per
  section of the committed ``BENCH_paper.json``, each naming code that
  exists (``REPRO-DOC404``).
"""

from __future__ import annotations

import json
import re
from typing import Iterable

from repro.lint.base import ENGINE_CHECKS, Finding, Rule, register, rule_catalogue
from repro.lint.project import FileContext, Project

#: ``[text](target)`` or ``[text](target "Title")`` — the target is captured
#: either way, so a link with a title cannot silently escape the check.
LINK_PATTERN = re.compile(r"\[[^\]]*\]\(([^)\s]+)(?:\s+\"[^\"]*\")?\)")

#: Targets that are not local paths.
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:", "#")

#: Heading under which the pinned scenario table lives.
SCENARIO_HEADING = "### Scenario catalogue"

#: Heading under which the pinned rule-catalogue table lives.
RULES_HEADING = "### Rule catalogue"

ARCHITECTURE_DOC_SUFFIX = "docs/ARCHITECTURE.md"

#: Heading under which the pinned claims table lives, and the file of numbers
#: its rows point into.
CLAIMS_HEADING = "## Claims"
CLAIMS_DOC_SUFFIX = "docs/CLAIMS.md"
PAPER_BENCH = "BENCH_paper.json"


def _table_rows(ctx: FileContext, heading: str) -> list[tuple[int, list[str]]]:
    """``(line, cells)`` rows of the markdown table under ``heading``."""
    rows: list[tuple[int, list[str]]] = []
    in_section = False
    for number, line in enumerate(ctx.lines, 1):
        if line.startswith("#"):
            in_section = line.strip() == heading
            continue
        if not in_section or "|" not in line:
            continue
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        rows.append((number, cells))
    return rows


@register
class BrokenLinkRule(Rule):
    """Local markdown links that do not resolve."""

    rule_id = "REPRO-DOC401"
    title = "broken local link in the docs"
    rationale = (
        "the handbook's source links are how readers reach the code; they "
        "must not rot as the tree moves"
    )
    example = "[the kernel](../src/repro/kernel.py) after the file moved"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        for ctx in project.markdown_files():
            base = _posix_parent(ctx.rel_path)
            for number, line in enumerate(ctx.lines, 1):
                for match in LINK_PATTERN.finditer(line):
                    target = match.group(1)
                    if target.startswith(EXTERNAL_PREFIXES):
                        continue
                    target = target.split("#", 1)[0]
                    if not target:
                        continue
                    if not _resolves(project, base, target):
                        yield self.finding(
                            ctx,
                            number,
                            f"broken local link: {target}",
                        )


def _posix_parent(rel_path: str) -> str:
    return rel_path.rsplit("/", 1)[0] if "/" in rel_path else ""


def _normalise(base: str, target: str) -> str:
    parts: list[str] = base.split("/") if base else []
    for piece in target.split("/"):
        if piece in ("", "."):
            continue
        if piece == "..":
            if parts:
                parts.pop()
        else:
            parts.append(piece)
    return "/".join(parts)


def _resolves(project: Project, base: str, target: str) -> bool:
    rel = _normalise(base, target)
    if project.root is not None:
        return (project.root / rel).exists()
    # Synthetic projects: resolve against the in-memory file set.
    return any(
        ctx.rel_path == rel or ctx.rel_path.startswith(rel + "/") for ctx in project.files
    )


@register
class ScenarioTableRule(Rule):
    """The documented scenario catalogue mirrors the live registry."""

    rule_id = "REPRO-DOC402"
    title = "scenario-catalogue table out of sync"
    rationale = (
        "the handbook's scenario table is how operators pick workloads; a row "
        "that drifts from the registry documents knobs that do not exist"
    )
    example = "a `partition_healing` row naming a parameter the registry renamed"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        ctx = project.find(ARCHITECTURE_DOC_SUFFIX)
        if ctx is None:
            return
        try:
            from repro.network.scenarios import scenario_catalogue
        except Exception:  # pragma: no cover - only on a broken tree
            return
        documented: dict[str, tuple[int, set[str]]] = {}
        for number, cells in _table_rows(ctx, SCENARIO_HEADING):
            if len(cells) == 3 and cells[0].startswith("`") and cells[0].endswith("`"):
                params = {
                    part.strip().strip("`") for part in cells[1].split(",") if part.strip()
                }
                documented[cells[0].strip("`")] = (number, params)
        if not documented:
            yield self.finding(
                ctx, 1, f"no scenario table found under '{SCENARIO_HEADING}'"
            )
            return
        live = {entry.name: set(entry.defaults) for entry in scenario_catalogue()}
        for name, defaults in sorted(live.items()):
            if name not in documented:
                yield self.finding(
                    ctx, 1, f"scenario {name} is not documented in the catalogue table"
                )
            elif documented[name][1] != defaults:
                number, params = documented[name]
                yield self.finding(
                    ctx,
                    number,
                    f"documented parameters of scenario {name} drifted: "
                    f"docs say {sorted(params)}, registry says {sorted(defaults)}",
                )
        for name in sorted(set(documented) - set(live)):
            yield self.finding(
                ctx,
                documented[name][0],
                f"documented scenario {name} does not exist in the registry",
            )


@register
class RuleTableRule(Rule):
    """The documented rule catalogue lists exactly the registered rules."""

    rule_id = "REPRO-DOC403"
    title = "static-analysis rule table out of sync"
    rationale = (
        "the rule catalogue is the contract of this very linter; an "
        "undocumented rule is an unexplained CI failure waiting to happen"
    )
    example = "adding REPRO-D105 in code without a docs table row"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        ctx = project.find(ARCHITECTURE_DOC_SUFFIX)
        if ctx is None:
            return
        documented: dict[str, int] = {}
        for number, cells in _table_rows(ctx, RULES_HEADING):
            if cells and cells[0].startswith("`REPRO-") and cells[0].endswith("`"):
                documented[cells[0].strip("`")] = number
        registered = {cls.rule_id for cls in rule_catalogue()}
        registered.update(check["rule_id"] for check in ENGINE_CHECKS)
        for rule_id in sorted(registered):
            if rule_id not in documented:
                yield self.finding(
                    ctx,
                    1,
                    f"rule {rule_id} is registered but missing from the "
                    f"'{RULES_HEADING}' table",
                )
        for rule_id, number in sorted(documented.items()):
            if rule_id not in registered:
                yield self.finding(
                    ctx,
                    number,
                    f"documented rule {rule_id} is not registered in the linter",
                )


@register
class ClaimsTableRule(Rule):
    """The claims table and the committed paper numbers name each other."""

    rule_id = "REPRO-DOC404"
    title = "claims table out of sync with BENCH_paper.json"
    rationale = (
        "the claims table is the one place the repository says what it "
        "reproduces; a claim without a committed number, a number nobody "
        "claims or a code path that moved away makes it say something else"
    )
    example = "a `growth` row after the `growth` section left `BENCH_paper.json`"
    scope = "project"

    def check_project(self, project: Project) -> Iterable[Finding]:
        ctx = project.find(CLAIMS_DOC_SUFFIX)
        if ctx is None:
            return
        documented: dict[str, int] = {}
        for number, cells in _table_rows(ctx, CLAIMS_HEADING):
            # claim | paper | the claim | code | section | status
            if len(cells) != 6 or not re.fullmatch(r"`\w+`", cells[4]):
                continue
            documented[cells[4].strip("`")] = number
            for path in re.findall(r"`([^`]+)`", cells[3]):
                if not _resolves(project, "", path):
                    yield self.finding(ctx, number, f"code path {path} of claim {cells[0]} does not exist")
        sections = _paper_sections(project)
        for section in sorted(sections - set(documented)):
            yield self.finding(ctx, 1, f"{PAPER_BENCH} section {section} has no row in the claims table")
        for section in sorted(set(documented) - sections):
            yield self.finding(
                ctx, documented[section], f"claims row names {section}, which is no section of {PAPER_BENCH}"
            )


def _paper_sections(project: Project) -> set[str]:
    """Keys of the committed file that hold one row per axis value."""
    synthetic = project.find(PAPER_BENCH)  # real scans hold only code and markdown
    if synthetic is not None:
        text = synthetic.source
    elif project.root is not None and (project.root / PAPER_BENCH).is_file():
        text = (project.root / PAPER_BENCH).read_text(encoding="utf-8")
    else:
        return set()
    document = json.loads(text)
    return {key for key, value in document.items() if isinstance(value, dict) and key != "config"}
