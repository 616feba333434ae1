"""Docs rules: broken links, table sync, and the docs-sync pin that the
rule-catalogue table in the handbook lists exactly the registered rules."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.lint.base import ENGINE_CHECKS, rule_catalogue
from repro.lint.engine import run_lint
from repro.lint.project import Project
from repro.lint.rules_docs import (
    RULES_HEADING,
    BrokenLinkRule,
    ClaimsTableRule,
    RuleTableRule,
    ScenarioTableRule,
)

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestBrokenLinkRule:
    def test_broken_link_flagged(self):
        sources = {
            "docs/GUIDE.md": "See [the kernel](../src/repro/kernel.py) for details.\n",
        }
        report = run_lint(Project.from_sources(sources), rules=[BrokenLinkRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-DOC401"]
        assert "kernel.py" in report.findings[0].message

    def test_resolving_link_passes(self):
        sources = {
            "docs/GUIDE.md": "See [the kernel](../src/repro/kernel.py).\n",
            "src/repro/kernel.py": "value = 1\n",
        }
        report = run_lint(Project.from_sources(sources), rules=[BrokenLinkRule])
        assert not report.findings

    def test_external_and_anchor_links_ignored(self):
        sources = {
            "docs/GUIDE.md": (
                "[paper](https://example.org/paper.pdf) and [below](#section)\n"
            ),
        }
        report = run_lint(Project.from_sources(sources), rules=[BrokenLinkRule])
        assert not report.findings

    def test_real_docs_have_no_broken_links(self, repo_project):
        report = run_lint(repo_project, rules=[BrokenLinkRule])
        assert not report.findings, [f.message for f in report.findings]


class TestRuleTableSync:
    def documented_ids(self) -> set[str]:
        handbook = REPO_ROOT / "docs" / "ARCHITECTURE.md"
        ids: set[str] = set()
        in_section = False
        for line in handbook.read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                in_section = line.strip() == RULES_HEADING
                continue
            if in_section and line.startswith("| `REPRO-"):
                ids.add(line.split("|")[1].strip().strip("`"))
        return ids

    def test_docs_table_lists_exactly_the_registered_rules(self):
        registered = {cls.rule_id for cls in rule_catalogue()}
        registered.update(check["rule_id"] for check in ENGINE_CHECKS)
        assert self.documented_ids() == registered

    def test_doc403_fires_when_a_rule_is_undocumented(self):
        sources = {
            "docs/ARCHITECTURE.md": (
                "### Rule catalogue\n\n"
                "| Rule | Protects | Example rejected |\n"
                "| --- | --- | --- |\n"
                "| `REPRO-D101` | clocks | `time.time()` |\n"
            ),
        }
        report = run_lint(Project.from_sources(sources), rules=[RuleTableRule])
        flagged = {f.rule_id for f in report.findings}
        assert flagged == {"REPRO-DOC403"}
        # Every registered-but-undocumented rule gets its own finding.
        assert len(report.findings) >= len(rule_catalogue())

    def test_doc403_fires_on_phantom_documented_rule(self):
        table = "\n".join(
            f"| `{rule_id}` | x | y |"
            for rule_id in sorted(
                {cls.rule_id for cls in rule_catalogue()}
                | {check["rule_id"] for check in ENGINE_CHECKS}
                | {"REPRO-Z999"}
            )
        )
        sources = {"docs/ARCHITECTURE.md": f"### Rule catalogue\n\n{table}\n"}
        report = run_lint(Project.from_sources(sources), rules=[RuleTableRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-DOC403"]
        assert "REPRO-Z999" in report.findings[0].message


class TestScenarioTableRule:
    def test_real_scenario_table_in_sync(self, repo_project):
        report = run_lint(repo_project, rules=[ScenarioTableRule])
        assert not report.findings, [f.message for f in report.findings]

    def test_missing_table_flagged(self):
        sources = {"docs/ARCHITECTURE.md": "# Handbook\n\nno tables here\n"}
        report = run_lint(Project.from_sources(sources), rules=[ScenarioTableRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-DOC402"]


class TestClaimsTableRule:
    ROW = "| C{n} | §I | claim | `src/repro/{code}.py` | `{section}` | reproduced |\n"

    def lint(self, rows, sections):
        table = "## Claims\n\n| claim | paper | the claim | code | `BENCH_paper.json` section | status |\n"
        table += "| --- | --- | --- | --- | --- | --- |\n"
        table += "".join(self.ROW.format(n=n, code=code, section=section) for n, (code, section) in enumerate(rows))
        document = {"benchmark": "bench_paper", "clock": "logical", "config": {"seed": 1}}
        for section in sections:
            document[f"{section}_values"] = [1]
            document[section] = {"1": {"blocks": 7}}
        sources = {
            "docs/CLAIMS.md": table,
            "BENCH_paper.json": json.dumps(document),
            "src/repro/core.py": "value = 1\n",
        }
        return run_lint(Project.from_sources(sources), rules=[ClaimsTableRule]).findings

    def test_one_row_per_section_with_existing_code_passes(self):
        assert not self.lint([("core", "growth"), ("core", "figures")], ["growth", "figures"])

    @pytest.mark.parametrize(
        "rows, sections, message",
        [
            ([("core", "growth")], ["growth", "figures"], "BENCH_paper.json section figures has no row"),
            ([("core", "growth"), ("core", "figures")], ["growth"], "names figures, which is no section"),
            ([("moved", "growth")], ["growth"], "code path src/repro/moved.py of claim C0 does not exist"),
        ],
        ids=["section-without-row", "row-without-section", "code-path-gone"],
    )
    def test_each_direction_of_drift_is_one_finding(self, rows, sections, message):
        (finding,) = self.lint(rows, sections)
        assert finding.rule_id == "REPRO-DOC404"
        assert message in finding.message
