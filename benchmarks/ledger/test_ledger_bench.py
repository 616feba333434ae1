"""Self-test of the ledger benchmark: drives ``run.py`` through its CLI at
smoke sizes and checks what the harness promises about its own output."""

from __future__ import annotations

import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
REPO_ROOT = HERE.parent.parent
sys.path.insert(0, str(HERE))

from ledgerbench import report  # noqa: E402
from ledgerbench.declarations import (  # noqa: E402
    ALL_WORKLOADS,
    END_TO_END,
    UNIVERSAL_END_TO_END,
    benchmark_json,
    per_layer_declarations,
)

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def start_run(*arguments: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), *arguments],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        cwd=REPO_ROOT,
    )


@pytest.fixture(scope="module")
def smoke_runs(tmp_path_factory):
    """Two smoke runs at seed 7 and one at seed 23, started side by side."""
    directory = tmp_path_factory.mktemp("ledger-bench")
    wanted = {"first": 7, "second": 7, "other": 23}
    started = {
        label: start_run("--smoke", "--reps", "1", "--seed", str(seed), "--out", str(directory / f"{label}.json"))
        for label, seed in wanted.items()
    }
    runs = {}
    for label, process in started.items():
        stdout, stderr = process.communicate(timeout=120)
        assert process.returncode == 0, stdout + stderr
        runs[label] = {
            "stdout": stdout,
            "document": json.loads((directory / f"{label}.json").read_text(encoding="utf-8")),
            "path": directory / f"{label}.json",
        }
    return runs


def test_output_follows_the_schema(smoke_runs):
    for run in smoke_runs.values():
        assert report.validate_document(run["document"]) == []
        assert run["document"]["claim"] is None


def test_names_are_plain(smoke_runs):
    document = smoke_runs["first"]["document"]
    assert list(document["workloads"]) == list(ALL_WORKLOADS)
    names = list(document["workloads"]) + list(document["probes"])
    for section in document["workloads"].values():
        names += list(section["end_to_end"]) + list(section["per_layer"])
    assert all(NAME.match(name) for name in names)


def test_every_metric_is_printed_with_unit_and_clock(smoke_runs):
    stdout = smoke_runs["first"]["stdout"]
    for metric, spec in END_TO_END.items():
        assert re.search(rf"{re.escape(metric)}\s+\S+\s+{re.escape(spec['unit'])}\s+{spec['clock']}", stdout)
    for row in per_layer_declarations():
        if row["name"].startswith("probe."):
            assert row["name"] in stdout


def test_no_metric_is_nan_or_missing(smoke_runs):
    def numbers(node):
        if isinstance(node, dict):
            for value in node.values():
                yield from numbers(value)
        elif isinstance(node, (int, float)) and not isinstance(node, bool):
            yield node

    for run in smoke_runs.values():
        document = run["document"]
        assert all(math.isfinite(value) for value in numbers(document))
        for section in document["workloads"].values():
            assert section["end_to_end"]["failure_share"]["median"] == 0
            assert section["violations"] == []


def test_exact_metrics_repeat_per_seed_and_digests_follow_the_seed(smoke_runs):
    first, second, other = (smoke_runs[label]["document"]["workloads"] for label in ("first", "second", "other"))
    for workload in ALL_WORKLOADS:
        assert first[workload]["result_digest"] == second[workload]["result_digest"]
        assert first[workload]["result_digest"] != other[workload]["result_digest"]
        for metric, row in first[workload]["end_to_end"].items():
            if END_TO_END[metric]["bound"] is None:
                assert row["median"] == second[workload]["end_to_end"][metric]["median"], metric
                assert row["q1"] == row["q3"], metric
        for metric, row in first[workload]["per_layer"].items():
            if metric.startswith(("count.", "ratio.")):
                assert row["value"] == second[workload]["per_layer"][metric]["value"], metric


def test_self_times_add_up_to_the_profile(smoke_runs):
    for workload, section in smoke_runs["first"]["document"]["workloads"].items():
        attributed = sum(
            row["value"] for metric, row in section["per_layer"].items() if metric.startswith("self_s.")
        )
        assert attributed == pytest.approx(section["trace"]["profiled_total_s"], rel=0.05), workload


def test_compare_accepts_a_rerun_and_catches_a_regression(smoke_runs, tmp_path):
    document = smoke_runs["first"]["document"]
    table, regressed = report.compare(document, smoke_runs["second"]["document"])
    exact_rows = [line for line in table.splitlines() if " exact " in line]
    assert exact_rows and all(line.rstrip().endswith("ok") for line in exact_rows)
    assert "differs" not in table

    slower = json.loads(json.dumps(document))
    row = slower["workloads"]["ledger-ingest"]["end_to_end"]["living_bytes"]
    row["best"] = row["median"] = row["median"] + 1
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(slower), encoding="utf-8")
    finished = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(smoke_runs["first"]["path"]), str(worse)],
        capture_output=True,
        text=True,
    )
    assert finished.returncode == 1
    assert re.search(r"ledger-ingest\s+living_bytes.*regressed", finished.stdout)
    same = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--compare", str(worse), str(worse)],
        capture_output=True,
        text=True,
    )
    assert same.returncode == 0, same.stdout


def test_benchmark_json_matches_the_declarations():
    committed = json.loads((REPO_ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert committed == benchmark_json(committed["run_seconds"])
    assert [row["name"] for row in committed["end_to_end"]] == list(UNIVERSAL_END_TO_END)
    assert len(committed["per_layer"]) <= 128
    assert all(len(row["why"]) <= 200 for row in committed["workloads"])


def test_the_contract_form_prints_one_result_line():
    finished = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload", "fleet-sharded",
         "--seed", "11", "--seconds", "0.2", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=REPO_ROOT,
    )
    assert finished.returncode == 0, finished.stderr
    result = json.loads(finished.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == list(UNIVERSAL_END_TO_END)
    assert all(row["value"] > 0 for row in result["metrics"].values())
