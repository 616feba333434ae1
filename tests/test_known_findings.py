"""Findings on file.

Each finding is a strict xfail: the test states the behaviour the system
*should* have, and ``strict=True`` turns an unexpected pass into a failure,
so the fix must flip it to an ordinary test instead of leaving stale prose.

- A retried deletion whose first reply was lost is reported rejected
  although it executes (ROADMAP item 2).
- Under message loss a signed submission is applied twice: at the
  ``vehicle-telemetry`` smoke size, seed 7, two records and one deletion
  request of 44; none without loss (ROADMAP items 1 and 2).
- ``replica-bootstrap`` at 60 events strands a replica that was never
  offline: at seed 23 the heads end 87/6/87/87 with ``anchor-3`` the
  straggler.
- ``failover-storm`` at its default size ends one replica short: heads
  18/18/18/17 at seed 7 and 17/15/17/17 at seed 23 (ROADMAP item 13).
- ``gdpr-erasure`` at four anchors strands its replicas: heads (min–max)
  26–128, 11–125 and 0–129 at seeds 5, 7 and 23.  At seed 7 every replica
  makes one gap pull and then waits behind a hole with 62–75 blocks
  buffered.  ``supply-chain-recall`` and ``fleet-saturation`` strand
  replicas at 4–12 anchors too.  At their default of three anchors, fan-out
  2 reaches every peer directly and all three converge (ROADMAP item 13).
- The quorum's master signature is a name: a request signed with Mallory's
  own key but claiming the admin identity deletes another author's entry
  (ROADMAP item 14).
- A chain reopened from its journal reports different ``statistics()`` than
  the chain that wrote it: the dropped-entry count and the deletion tallies
  restart at zero although the head hash is the same.

The 12-anchor deployments used to die with ``RecursionError`` while every
blocking exchange nested the kernel; they are ordinary tests now.
"""

import json
from collections import Counter

import pytest

from repro.core.chain import Blockchain
from repro.core.config import ChainConfig
from repro.crypto.keys import KeyPair
from repro.network.scenarios import run_scenario
from repro.storage import JournalBlockStore


@pytest.mark.parametrize("name", ["coin-economy", "replica-bootstrap"])
def test_twelve_anchor_deployments_run_to_completion(name):
    result = run_scenario(name, seed=7, anchors=12)
    assert result["replicas_identical"], result["heads"]


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


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="under message loss a signed submission is applied twice",
)
def test_no_signed_submission_is_applied_twice_under_loss(monkeypatch):
    # Counts what the chain seals, so a duplicate refused on submission or
    # dropped before sealing is not counted as applied.
    applied: Counter = Counter()
    seal = Blockchain.seal_block

    def counting(self):
        block = seal(self)
        for entry in block.entries:
            applied[entry.signature, json.dumps(entry.signing_payload(), sort_keys=True)] += 1
        return block

    monkeypatch.setattr(Blockchain, "seal_block", counting)
    run_scenario("vehicle-telemetry", seed=7, smoke=True)
    assert applied
    assert {key: count for key, count in applied.items() if count > 1} == {}


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="replica-bootstrap at 60 events strands a replica that was never offline",
)
def test_replica_bootstrap_converges_at_sixty_events():
    result = run_scenario("replica-bootstrap", seed=23, events=60)
    assert result["replicas_identical"], result["heads"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="failover-storm at its default size ends one replica short",
)
@pytest.mark.parametrize("seed", [7, 23])
def test_failover_storm_converges_at_its_default_size(seed):
    result = run_scenario("failover-storm", seed=seed)
    assert result["replicas_identical"], result["heads"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="gdpr-erasure at four anchors strands replicas behind a hole",
)
@pytest.mark.parametrize("seed", [5, 7, 23])
def test_gdpr_erasure_converges_at_four_anchors(seed):
    result = run_scenario("gdpr-erasure", seed=seed, anchors=4)
    assert result["replicas_identical"], result["heads"]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the quorum's master signature is a name, not a key",
)
def test_a_master_signature_is_a_key_not_a_name():
    chain = Blockchain(ChainConfig(signature_scheme="ecdsa"), admins=("ADMIN",))
    chain.add_entry({"D": "ALICE's record"}, "ALICE", key_pair=KeyPair.from_seed("ALICE"))
    block = chain.seal_block()
    target = block.entries[0].reference_in(block.block_number)
    # Mallory signs with her own key and claims the admin's name.
    decision = chain.request_deletion(target, "ADMIN", key_pair=KeyPair.from_seed("MALLORY"))
    assert not decision.is_approved, decision.reason


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a chain reopened from its journal restarts its statistics at zero",
)
def test_a_chain_reopened_from_its_journal_reports_the_writers_statistics(tmp_path):
    path = tmp_path / "chain.journal"
    writer = Blockchain(ChainConfig.paper_evaluation(), store=JournalBlockStore(path))

    def add_blocks(author, count):
        for index in range(count):
            writer.add_entry_block({"D": f"rec {index}", "K": author, "S": f"sig_{author}"}, author)

    add_blocks("ALPHA", 10)
    writer.request_deletion((1, 1), "ALPHA")
    add_blocks("BRAVO", 40)
    reopened = Blockchain(ChainConfig.paper_evaluation(), store=JournalBlockStore(path))
    assert reopened.head.block_hash == writer.head.block_hash
    assert reopened.statistics() == writer.statistics()
