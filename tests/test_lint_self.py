"""The self-check: the shipped tree is lint-clean through the real CLI,
and the known-bad fixture fails it — exactly what CI gates on."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.base import rule_ids

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro", "lint", *args],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
        env=env,
    )


@pytest.fixture(scope="module")
def whole_tree() -> dict:
    """One whole-tree run of the CLI, in the JSON format, for every check of it."""
    result = run_cli("--format", "json")
    assert result.returncode == 0, result.stdout + result.stderr
    return json.loads(result.stdout)


class TestSelfCheck:
    def test_repo_is_lint_clean(self, whole_tree):
        assert whole_tree["clean"] is True
        assert whole_tree["findings"] == []

    def test_bad_fixture_fails_the_gate(self):
        result = run_cli("tests/fixtures/lint_bad.py")
        assert result.returncode == 1, result.stdout + result.stderr
        # The fixture exercises one rule per determinism family plus the
        # frozen, unused-import and pragma meta checks.
        for rule_id in ("D101", "D102", "D103", "D104", "F301", "S602", "A001"):
            assert f"REPRO-{rule_id}" in result.stdout, rule_id

    def test_bad_fixture_is_excluded_from_default_scan(self, whole_tree):
        scanned_bad = [
            row
            for row in whole_tree["findings"] + whole_tree["suppressed"]
            if "lint_bad" in row["path"]
        ]
        assert not scanned_bad

    def test_json_report_shape(self, whole_tree):
        assert whole_tree["files_scanned"] > 100
        assert whole_tree["rules_run"] == len(rule_ids())
        # The shipped suppressions are all reasoned.
        assert whole_tree["suppressed"]
        for row in whole_tree["suppressed"]:
            assert row["suppression_reason"]

    def test_list_rules_covers_every_id(self):
        result = run_cli("--list-rules")
        assert result.returncode == 0
        for rule_id in rule_ids():
            assert rule_id in result.stdout

    def test_usage_error_on_unknown_path(self):
        result = run_cli("no/such/path.py")
        assert result.returncode == 2
