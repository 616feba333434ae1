"""Findings on file, pinned as strict-xfail tests.

Each test states the behaviour the system *should* have and is expected to
fail today; ``strict=True`` turns an unexpected pass into a failure, so the
fix (ROADMAP item 4: blocking sends inside handlers become continuations,
and a retried deletion whose first reply was lost is reported approved)
must flip these to ordinary tests instead of leaving stale prose.
"""

import pytest

from repro.network.scenarios import run_scenario


@pytest.mark.xfail(
    strict=True,
    raises=RecursionError,
    reason="blocking transport.send inside a handler nests kernel.run_until per in-flight hop",
)
@pytest.mark.parametrize(
    "name, events",
    [("gossip-vs-broadcast", 60), ("partition-and-heal", 120)],
)
def test_twelve_anchor_deployments_run_to_completion(name, events):
    try:
        result = run_scenario(name, seed=7, anchors=12, events=events)
    except RecursionError as exc:
        # Re-raised bare: pytest spends ~4 s rendering the 1000-frame original.
        raise RecursionError(str(exc)) from None
    assert result["scenario"] == name


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
