"""The lint engine: run every rule, apply suppressions, build the report.

The engine is deliberately small — rules do the analysis, the engine owns the
mechanics every rule shares: iterating files, matching findings against
``allow`` pragmas, policing the pragmas themselves (reason mandatory, stale
pragmas reported) and aggregating everything into a :class:`LintReport`
whose exit code CI gates on.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Iterable, Optional, Type

from repro.lint.base import (
    ENGINE_CHECKS,
    Finding,
    LintReport,
    PRAGMA_WITHOUT_REASON_ID,
    Rule,
    SYNTAX_ERROR_ID,
    UNUSED_PRAGMA_ID,
    rule_catalogue,
)
from repro.lint.project import Project


def run_lint(
    project: Project, *, rules: Optional[Iterable[Type[Rule]]] = None
) -> LintReport:
    """Run the full (or given) rule set over ``project``, the rules that apply."""
    active = [cls() for cls in (rules if rules is not None else rule_catalogue())]
    active = [rule for rule in active if rule.applies_to(project)]
    report = LintReport(rules_run=len(active) + len(ENGINE_CHECKS))
    raw: list[Finding] = []
    for ctx in project.files:
        report.files_scanned += 1
        # A file no rule can parse is itself a finding, not a silent skip.
        if ctx.is_python and ctx.parse_error is not None:
            error = ctx.parse_error
            raw.append(
                Finding(SYNTAX_ERROR_ID, ctx.rel_path, error.lineno or 1, f"file does not parse: {error.msg}")
            )
    for rule in active:
        if rule.scope == "file":
            for ctx in project.python_files():
                raw.extend(rule.check_file(ctx))
        else:
            raw.extend(rule.check_project(project))
    _apply_pragmas(project, raw, report, {rule.rule_id for rule in active})
    report.findings.sort(key=lambda finding: finding.sort_key)
    report.suppressed.sort(key=lambda finding: finding.sort_key)
    return report


def _apply_pragmas(project: Project, raw: list[Finding], report: LintReport, active_ids: set[str]) -> None:
    """Split findings into active and suppressed; police the pragmas."""
    pragmas_by_path = {ctx.rel_path: ctx.pragmas for ctx in project.files}
    used: set[tuple[str, int]] = set()
    for finding in raw:
        pragma = next(
            (
                candidate
                for candidate in pragmas_by_path.get(finding.path, ())
                if candidate.reason and candidate.covers(finding.rule_id, finding.line)
            ),
            None,
        )
        if pragma is None:
            report.findings.append(finding)
        else:
            used.add((finding.path, pragma.line))
            report.suppressed.append(replace(finding, suppressed=True, suppression_reason=pragma.reason))
    for ctx in project.files:
        for pragma in ctx.pragmas:
            if not pragma.reason:
                report.findings.append(
                    Finding(
                        PRAGMA_WITHOUT_REASON_ID,
                        ctx.rel_path,
                        pragma.line,
                        "allow pragma without a reason — state why the suppressed hazard is acceptable",
                    )
                )
            elif (ctx.rel_path, pragma.line) not in used and active_ids.intersection(pragma.rule_ids):
                # Staleness is only judged against rules that actually ran:
                # a partial run (a rule subset, or named paths a whole-tree
                # rule does not apply to) must not flag the others' pragmas.
                report.findings.append(
                    Finding(
                        UNUSED_PRAGMA_ID,
                        ctx.rel_path,
                        pragma.line,
                        f"allow pragma for {', '.join(pragma.rule_ids)} suppresses nothing — "
                        "remove it or re-anchor it",
                    )
                )
