"""Adversary wing tests: actors, wire-path rejections, bounded collections.

Three concerns share this module because they share the attack surface:

* the byzantine actor roles of :mod:`repro.adversary` (unit behaviour),
* the *wire path* of deletion authorization — forged requests travelling
  through :meth:`AnchorNode.handle_message` must come back as *typed*
  rejections (an ACK carrying ``deletion_status="rejected"`` and a reason
  naming the layer), never as silence or a crash, including the
  Bell-LaPadula cohesion model of Section IV-D2,
* the bounded bookkeeping honest nodes keep about byzantine traffic
  (rejected-block window, gossip seen-set) — an adversary hammering a node
  must cost it eviction counters, not unbounded memory.
"""

import pytest

from repro.adversary import (
    AdversaryActor,
    ClockSkewedReplica,
    DeletionForger,
    DigestSpoofer,
    EquivocatingProducer,
)
from repro.authz.bell_lapadula import BellLaPadulaModel, SecurityLevel
from repro.core import Block, ChainConfig
from repro.core.entry import EntryReference
from repro.network import EventKernel, Message, MessageKind, NetworkSimulator, run_scenario
from repro.network.node import (
    DEFAULT_REJECTED_BLOCKS_LIMIT,
    DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT,
)


def _sync_simulator(**kwargs):
    """A deployment on its transport's own kernel (logical chain clocks)
    that keeps every block."""
    kwargs.setdefault("config", ChainConfig(sequence_length=3))
    return NetworkSimulator(anchor_count=kwargs.pop("anchor_count", 3), **kwargs)


def _submit_record(simulator, client_id, text):
    """Submit one record and return its origin reference."""
    response = simulator.submit_entry(
        client_id,
        {"D": text, "K": client_id, "S": f"sig_{client_id}"},
        anchor_id=simulator.producer_id,
    )
    assert not response.is_error
    return EntryReference(
        block_number=int(response.payload["block_number"]),
        entry_number=int(response.payload["entry_number"]),
    )


class TestActorBasics:
    def test_actor_requires_an_id(self):
        simulator = _sync_simulator()
        with pytest.raises(ValueError):
            AdversaryActor("", simulator.transport)

    def test_statistics_carry_kind_and_sorted_counters(self):
        simulator = _sync_simulator()
        actor = AdversaryActor("mallory", simulator.transport)
        actor._bump("zeta")
        actor._bump("alpha", 2)
        stats = actor.statistics()
        assert stats["kind"] == "abstract"
        assert list(stats) == ["kind", "alpha", "zeta"]

    def test_clock_skew_rejects_negative_offsets(self):
        simulator = _sync_simulator()
        with pytest.raises(ValueError):
            ClockSkewedReplica("skew", simulator.transport, skew_ticks=-1)

    def test_equivocation_needs_two_variants(self):
        simulator = _sync_simulator()
        producer = EquivocatingProducer("byz", simulator.transport)
        with pytest.raises(ValueError):
            producer.equivocate(["anchor-1"], head=simulator.producer.chain.head, variants=1)

    def test_digest_spoofer_cannot_start_twice(self):
        kernel = EventKernel(seed=3)
        simulator = NetworkSimulator(
            anchor_count=2, kernel=kernel, config=ChainConfig(sequence_length=3)
        )
        spoofer = DigestSpoofer("spoof", simulator.transport)
        spoofer.start(
            targets=simulator.anchor_ids,
            interval_ms=50.0,
            head_fn=lambda: 0,
            until=200.0,
        )
        with pytest.raises(ValueError):
            spoofer.start(
                targets=simulator.anchor_ids,
                interval_ms=50.0,
                head_fn=lambda: 0,
            )
        spoofer.stop()


class TestEquivocatingProducer:
    def test_variants_conflict_and_split_the_quorum(self):
        simulator = _sync_simulator(anchor_count=4)
        simulator.add_client("ALPHA")
        _submit_record(simulator, "ALPHA", "Honest record")
        byz = simulator.inject_adversary(EquivocatingProducer("byz", simulator.transport))
        victims = [peer for peer in simulator.anchor_ids if peer != simulator.producer_id]
        blocks = byz.equivocate(victims, head=simulator.producer.chain.head, variants=2)
        # Same height, same parent, different content: a real fork seed.
        assert len({block.block_number for block in blocks}) == 1
        assert len({block.previous_hash for block in blocks}) == 1
        assert len({block.block_hash for block in blocks}) == 2
        # Every replica sat on the honest head, so every victim adopted one
        # of the conflicting variants: the quorum is split.
        assert byz.stats["victims_accepted"] == len(victims)
        assert not simulator.replicas_identical()
        # Repair converges everyone back onto the honest producer.
        repaired = simulator.repair_divergent_replicas()
        assert repaired == len(victims)
        assert simulator.replicas_identical()

    def test_rejections_from_advanced_replicas_are_counted(self):
        simulator = _sync_simulator(anchor_count=3)
        simulator.add_client("ALPHA")
        _submit_record(simulator, "ALPHA", "Record one")
        byz = EquivocatingProducer("byz", simulator.transport)
        stale_head = simulator.producer.chain.head
        _submit_record(simulator, "ALPHA", "Record two")
        # The forged blocks now target an *old* height; replicas have moved
        # on and ignore them (no fork, no crash).
        byz.equivocate(simulator.anchor_ids, head=stale_head, variants=2)
        accepted = byz.stats.get("victims_accepted", 0)
        rejected = byz.stats.get("victims_rejected", 0)
        assert accepted + rejected == 3
        assert rejected == 3  # everyone already advanced past the forged height
        assert simulator.replicas_identical()


class TestWirePathAuthorization:
    """Satellite: forged deletions through handle_message, typed rejections."""

    def test_unauthorized_author_is_rejected_with_typed_reason(self):
        simulator = _sync_simulator()
        simulator.add_client("ALPHA")
        target = _submit_record(simulator, "ALPHA", "ALPHA's record")
        forger = DeletionForger("MALLORY", simulator.transport)
        response = forger.forge(simulator.producer_id, target)
        assert response.kind is MessageKind.ACK and not response.is_error
        assert response.payload["deletion_status"] == "rejected"
        assert "is not allowed to delete" in response.payload["deletion_reason"]
        assert forger.stats["rejected_unauthorized"] == 1
        # The rejection is booked on the replicated registry as well.
        assert simulator.producer.chain.registry.rejected_count == 1

    def test_bell_lapadula_blocks_impersonation_on_the_wire(self):
        model = BellLaPadulaModel()
        simulator = _sync_simulator(cohesion_checker=model.as_cohesion_checker())
        simulator.add_client("ALPHA")
        target = _submit_record(simulator, "ALPHA", "Sensitive record")
        model.classify_entry(target, SecurityLevel.CONFIDENTIAL)
        forger = DeletionForger("MALLORY", simulator.transport)
        # The simplified scheme is forgeable, so the signature comparison
        # passes — the Bell-LaPadula layer must be the one that rejects.
        response = forger.impersonate(simulator.producer_id, target, victim="ALPHA")
        assert response.kind is MessageKind.ACK and not response.is_error
        assert response.payload["deletion_status"] == "rejected"
        assert response.payload["deletion_reason"].startswith("semantic cohesion violated")
        assert forger.stats["rejected_cohesion"] == 1
        assert simulator.producer.chain.find_entry(target) is not None

    def test_replay_of_executed_deletion_dies_on_missing_target(self):
        # The paper's evaluation config physically cuts old sequences, so a
        # replayed deletion finds its target gone from the living chain.
        simulator = NetworkSimulator(
            anchor_count=3, config=ChainConfig.paper_evaluation()
        )
        simulator.add_client("ALPHA")
        # The eavesdropper is on the wire before ALPHA's traffic.
        forger = DeletionForger("MALLORY", simulator.transport)
        target = _submit_record(simulator, "ALPHA", "Record to erase")
        deletion = simulator.submit_deletion(
            "ALPHA", target, anchor_id=simulator.producer_id, reason="erasure"
        )
        assert deletion.payload["deletion_status"] == "approved"
        # Enough follow-up traffic for summarisation cycles to execute the
        # deletion and shift the genesis marker past the target's block.
        for index in range(10):
            _submit_record(simulator, "ALPHA", f"Filler #{index}")
        assert simulator.producer.chain.find_entry(target) is None
        replayed = forger.replay(simulator.producer_id, limit=1)
        assert replayed == 1
        assert forger.stats["rejected_missing_target"] == 1
        assert "approved" not in forger.stats

    def test_forger_placed_after_the_deletion_has_nothing_to_replay(self):
        simulator = _sync_simulator()
        simulator.add_client("ALPHA")
        target = _submit_record(simulator, "ALPHA", "Record to erase")
        deletion = simulator.submit_deletion(
            "ALPHA", target, anchor_id=simulator.producer_id, reason="erasure"
        )
        assert deletion.payload["deletion_status"] == "approved"
        # The request crossed the wire before the eavesdropper arrived.
        forger = DeletionForger("MALLORY", simulator.transport)
        assert forger.replay(simulator.producer_id) == 0
        assert "replays_sent" not in forger.stats


class TestBoundedCollections:
    """Satellite: rejected-block window and gossip seen-set stay bounded."""

    def test_default_limits_are_applied(self):
        simulator = _sync_simulator()
        node = simulator.producer
        assert node.rejected_blocks.maxlen == DEFAULT_REJECTED_BLOCKS_LIMIT
        assert node.sync_stats["rejected_blocks_evicted"] == 0
        assert node.sync_stats["announcements_evicted"] == 0

    def test_catch_up_fork_rejections_stay_inside_the_window(self):
        simulator = _sync_simulator(anchor_count=2)
        simulator.add_client("ALPHA")
        _submit_record(simulator, "ALPHA", "Head record")
        node = simulator.anchors["anchor-1"]
        node.rejected_blocks = type(node.rejected_blocks)(maxlen=2)
        # A forked replica repeatedly catching up against the honest
        # producer: every attempt rejects the first non-linking block into
        # the *bounded* window.
        simulator.corrupt_replica("anchor-1")
        for index in range(4):
            _submit_record(simulator, "ALPHA", f"Advance head #{index}")
            node.catch_up(simulator.producer_id)
        assert len(node.rejected_blocks) == 2
        assert node.sync_stats["rejected_blocks_evicted"] >= 1

    def test_eviction_counter_via_record_helper(self):
        simulator = _sync_simulator(anchor_count=1)
        node = simulator.producer
        node.rejected_blocks = type(node.rejected_blocks)(maxlen=2)
        genesis = node.chain.blocks[0]
        for index in range(5):
            node._record_rejected_block(genesis, f"test rejection {index}")
        assert len(node.rejected_blocks) == 2
        assert node.sync_stats["rejected_blocks_evicted"] == 3
        # The window keeps the *newest* rejections.
        assert [reason for _, reason in node.rejected_blocks] == [
            "test rejection 3",
            "test rejection 4",
        ]

    def test_seen_announcements_ring_deduplicates_and_evicts(self):
        simulator = NetworkSimulator(
            anchor_count=1, config=ChainConfig(sequence_length=3)
        )
        node = simulator.producer
        node._seen_announcements_limit = 3
        node._remember_announcement("hash-a")
        node._remember_announcement("hash-a")  # duplicate: absorbed
        assert len(node._seen_announcements) == 1
        for name in ("hash-b", "hash-c", "hash-d"):
            node._remember_announcement(name)
        assert len(node._seen_announcements) == 3
        assert node.sync_stats["announcements_evicted"] == 1
        assert "hash-a" not in node._seen_announcements  # FIFO victim
        node._remember_announcement("hash-a")  # re-admitted after eviction
        assert "hash-a" in node._seen_announcements

    def test_a_far_future_announcement_flood_cannot_grow_the_block_buffer(self):
        """Gossiped blocks far ahead of the head wait in ``_block_buffer``
        for their predecessors; a flood of them must hit the same cap as the
        seen-window, and what is evicted is the block *farthest* from the
        head — the nearest ones are what the drain needs next."""
        simulator = _sync_simulator(anchor_count=1)
        node = simulator.producer
        head = node.chain.head.block_number
        flood = 10_000
        # A fixed permutation, so neither "evict the oldest" nor "refuse the
        # newest" would leave exactly the nearest blocks behind.
        for offset in ((index * 7919) % flood for index in range(flood)):
            block = Block(
                block_number=head + 1_000 + offset,
                timestamp=1,
                previous_hash=f"forged-{offset}",
            )
            node.handle_message(
                Message(
                    kind=MessageKind.BLOCK_ANNOUNCE,
                    sender="MALLORY",
                    payload={
                        "block": block.to_dict(),
                        "gossip": {"item": block.block_hash, "hops": 0},
                    },
                )
            )
        assert len(node._seen_announcements) == DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT
        assert len(node._block_buffer) == DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT
        assert sorted(node._block_buffer) == list(
            range(head + 1_000, head + 1_000 + DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT)
        )
        # Both windows evicted once per flood message past the cap.
        assert node.sync_stats["announcements_evicted"] == 2 * (
            flood - DEFAULT_SEEN_ANNOUNCEMENTS_LIMIT
        )


class TestAdversarialScenarios:
    """The catalogue entries: outcomes, not just determinism."""

    def test_byzantine_producer_repairs_and_matches_attack_model(self):
        result = run_scenario("byzantine-producer", seed=13, smoke=True)
        assert result["replicas_identical"] is True
        assert result["in_sync_after_repair"] is True
        model = result["attack_model"]
        # Section V-B1 cross-check: summarised history without redundancy is
        # rewritable at this attacker share; middle-sequence redundancy
        # protects it.
        assert model["none_rewritable"] is True
        assert model["middle_protected"] is True
        assert model["no_redundancy"]["blocks_to_rewrite"] == 1
        assert model["middle_sequence"]["blocks_to_rewrite"] >= 2
        actors = result["report"]["adversary"]["actors"]
        assert actors["byzantine-0"]["blocks_forged"] >= 2

    def test_a_forked_announcement_in_the_buffer_ends_catch_up_typed(self):
        """At seed 5 the repair's catch-up replays up to a head that a
        buffered equivocated block does not link to; draining that buffer
        used to raise ``ChainIntegrityError`` out of the scenario."""
        result = run_scenario("byzantine-producer", seed=5, smoke=True)
        assert result["replicas_identical"] is True
        assert result["report"]["adversary"]["defense"]["forks_repaired"] == 2

    def test_forged_erasure_dies_in_three_distinct_layers(self):
        result = run_scenario("forged-erasure", seed=13, smoke=True)
        assert result["legitimate_status"] == "approved"
        assert result["approved_forgeries"] == 0
        assert result["typed_rejections"] == {
            "rejected_cohesion": 1,
            "rejected_missing_target": 1,
            "rejected_unauthorized": 1,
        }
        defense = result["report"]["adversary"]["defense"]
        assert defense["deletions_rejected"] == 3
        assert result["replicas_identical"] is True

    def test_digest_spoof_is_contained(self):
        result = run_scenario("digest-spoof", seed=13, smoke=True)
        assert result["pulls_baited"] > 0
        assert result["snapshots_refused"] > 0
        assert result["replicas_identical"] is True

    def test_clock_skew_causes_premature_expiry_without_forking(self):
        result = run_scenario("clock-skew", seed=13, smoke=True)
        assert result["premature_expiry"] is True
        assert result["honest_clock_ticks"] < result["parameters"]["temp_ttl_ticks"]
        assert result["head_timestamp"] > result["parameters"]["skew_ticks"]
        assert result["replicas_identical"] is True
        assert result["final_producer"] != result["first_producer"]

    def test_report_adversary_block_pairs_actors_with_defense(self):
        result = run_scenario("byzantine-producer", seed=29, smoke=True)
        adversary = result["report"]["adversary"]
        assert set(adversary) == {"actors", "defense"}
        for counters in adversary["actors"].values():
            assert "kind" in counters
        for key in (
            "digests_diverged",
            "rejected_blocks",
            "rejected_blocks_evicted",
            "announcements_evicted",
            "deletions_rejected",
            "forks_repaired",
        ):
            assert key in adversary["defense"]

    def test_benign_scenarios_report_no_adversary_block(self):
        result = run_scenario("failover-storm", seed=13, smoke=True)
        assert result["report"]["adversary"] == {}
