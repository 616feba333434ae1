"""Findings on file.

One finding remains a strict xfail: a retried deletion whose first reply
was lost is reported rejected although it executes (ROADMAP item 2).  The
test states the behaviour the system *should* have; ``strict=True`` turns
an unexpected pass into a failure, so the fix must flip it to an ordinary
test instead of leaving stale prose.

The 12-anchor deployments used to die with ``RecursionError`` while every
blocking exchange nested the kernel; they are ordinary tests now.
"""

import pytest

from repro.network.scenarios import run_scenario


@pytest.mark.parametrize(
    "name, events",
    [("gossip-vs-broadcast", 60), ("partition-and-heal", 120)],
)
def test_twelve_anchor_deployments_run_to_completion(name, events):
    result = run_scenario(name, seed=7, anchors=12, events=events)
    runs = result.get("modes", {name: result})
    assert {run: row["replicas_identical"] for run, row in runs.items()} == dict.fromkeys(runs, True)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a retried deletion whose first reply was lost is reported rejected although it executes",
)
def test_every_executed_deletion_was_reported_approved_under_loss():
    # The yardstick's ``lossy-sync`` parameters.
    result = run_scenario(
        "vehicle-telemetry", seed=7, vehicles=200, anchors=6,
        settle_ms=30000, empty_block_interval_ticks=5000,
    )
    counters = result["report"]["workloads"]["vehicle-lifecycle"]
    assert (counters["deletions_approved"], counters["deletions_executed"]) == (522, 522)
