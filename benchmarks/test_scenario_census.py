"""What :mod:`scenario_census` reports: per-scenario lines, kinds and sections."""

from __future__ import annotations

import sys

import pytest

import scenario_census
from repro.network import ScenarioError
from repro.network.transport import InMemoryTransport


def test_spans_joins_consecutive_lines_per_file():
    lines = [("a.py", 3), ("a.py", 4), ("a.py", 5), ("a.py", 9), ("b.py", 2)]
    assert scenario_census.spans(lines) == "a.py:3-5,9; b.py:2"
    assert scenario_census.spans([]) == ""


def test_trace_records_src_lines_delivered_kinds_and_result_sections():
    lines, kinds, sections = scenario_census.trace("clock-skew", True)
    assert all(not path.startswith("/") for path, _ in lines)
    assert any(path == "repro/network/scenarios.py" for path, _ in lines)
    assert "submit_entry" in kinds
    assert {"replicas_identical", "report.transport"} <= sections
    assert "report" not in sections


def test_trace_restores_the_tracer_and_delivery_hook_when_a_run_fails():
    account = InMemoryTransport._account_delivery
    before = sys.gettrace()
    with pytest.raises(ScenarioError):
        scenario_census.trace("no-such-scenario", True)
    assert InMemoryTransport._account_delivery is account
    assert sys.gettrace() is before


def test_census_prints_one_row_per_scenario_and_what_only_it_reaches(monkeypatch, capsys):
    monkeypatch.setattr(scenario_census, "scenario_names", lambda: ["clock-skew", "failover-storm"])
    scenario_census.census(smoke=True)
    out = capsys.readouterr().out
    assert "smoke size, seed 7" in out
    rows = [line for line in out.splitlines() if line.startswith("| `")]
    assert [row.split("`")[1] for row in rows] == ["clock-skew", "failover-storm"]
    # Each scenario reaches lines of its own body that the other does not.
    assert all(int(row.split("|")[2].split()[0]) > 0 for row in rows)
    assert "distinct src/ lines" in out
