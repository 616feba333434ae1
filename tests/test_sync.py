"""Tests for the replica-synchronisation subsystem (repro.sync).

Covers the wire snapshot bootstrap (chunking, manifest verification,
retransmission over lossy links, mid-transfer restarts), the catch-up
decline reasons that route into it, the retried pull after a lost reply,
and the anti-entropy digest rounds — including the acceptance pin that
convergence is byte-identical per seed.
"""

import json

import pytest

from repro.core import Blockchain, ChainConfig
from repro.core.errors import StorageError
from repro.network import (
    AnchorNode,
    CatchUpStatus,
    EventKernel,
    GossipOverlay,
    GossipTopology,
    InMemoryTransport,
    LatencyModel,
    Message,
    MessageKind,
    NetworkSimulator,
    run_process,
    run_scenario,
    spawn,
)
from repro.service.remote import ClientNode
from repro.storage.snapshot import chain_from_payload, snapshot_digest, snapshot_payload
from repro.sync import DEFAULT_MAX_RETRIES, BootstrapError, SnapshotChunkCache, fetch_snapshot
from repro.sync import bootstrap as bootstrap_module


def login(user, detail=""):
    record = f"Login {user}" if not detail else f"Login {user} {detail}"
    return {"D": record, "K": user, "S": f"sig_{user}"}


def build_network(anchor_count=3, *, transport=None):
    transport = transport or InMemoryTransport()
    config = ChainConfig.paper_evaluation()
    ids = [f"anchor-{i}" for i in range(anchor_count)]
    nodes = {}
    for node_id in ids:
        nodes[node_id] = AnchorNode(
            node_id,
            Blockchain(config),
            transport,
            is_producer=(node_id == ids[0]),
            producer_id=ids[0],
        )
    for node in nodes.values():
        node.connect(ids)
    return transport, nodes, ids


def isolate_across_marker_shift(transport, nodes, ids, *, events=9):
    """Drive traffic while one replica is offline until the marker shifts."""
    client = ClientNode("ALPHA", transport)
    client.submit_entry(ids[0], login("ALPHA", "#0"))
    transport.set_offline(ids[-1])
    for index in range(1, events):
        client.submit_entry(ids[0], login("ALPHA", f"#{index}"))
    transport.kernel.run()  # announcements in flight die at the offline node
    transport.set_offline(ids[-1], False)
    producer = nodes[ids[0]]
    straggler = nodes[ids[-1]]
    assert producer.chain.genesis_marker > straggler.chain.head.block_number
    return producer, straggler


class TestSnapshotChunkCache:
    def test_chunks_reassemble_to_the_payload(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        for index in range(5):
            chain.add_entry_block(login("ALPHA", f"#{index}"), "ALPHA")
        cache = SnapshotChunkCache(chain)
        manifest = cache.manifest(chunk_size=128)
        assembled = "".join(
            cache.chunk(index, chunk_size=128) for index in range(manifest.total_chunks)
        )
        assert assembled == snapshot_payload(chain)
        assert len(assembled) == manifest.total_bytes
        assert snapshot_digest(assembled) == manifest.digest
        assert manifest.head_hash == chain.head.block_hash

    def test_cache_invalidates_when_the_head_moves(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        chain.add_entry_block(login("ALPHA"), "ALPHA")
        cache = SnapshotChunkCache(chain)
        first = cache.manifest()
        chain.add_entry_block(login("ALPHA", "again"), "ALPHA")
        second = cache.manifest()
        assert first.head_hash != second.head_hash
        assert first.digest != second.digest

    def test_out_of_range_chunk_and_bad_chunk_size_are_rejected(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        cache = SnapshotChunkCache(chain)
        manifest = cache.manifest()
        with pytest.raises(BootstrapError):
            cache.chunk(manifest.total_chunks)
        with pytest.raises(BootstrapError):
            cache.manifest(chunk_size=0)


class TestWireBootstrap:
    def test_bootstrap_converges_a_replica_across_a_marker_shift(self):
        transport, nodes, ids = build_network()
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        assert straggler.sync.catch_up(ids[0]).status is CatchUpStatus.SNAPSHOT_REQUIRED
        report = straggler.sync.bootstrap_from(ids[0], chunk_size=512)
        assert report.succeeded, report.reason
        assert report.chunks_fetched == report.manifest.total_chunks > 1
        assert straggler.chain.head.block_hash == producer.chain.head.block_hash
        assert straggler.chain.genesis_marker == producer.chain.genesis_marker
        # The deletion registry and audit trail travel with the snapshot.
        assert straggler.chain.statistics() == producer.chain.statistics()
        # The adopted replica keeps replicating live afterwards.
        client = ClientNode("BRAVO", transport)
        client.submit_entry(ids[0], login("BRAVO"))
        transport.kernel.run()
        assert straggler.chain.head.block_hash == producer.chain.head.block_hash

    def test_bootstrap_retransmits_chunks_over_a_lossy_scheduled_transport(self):
        kernel = EventKernel(seed=5)
        transport = InMemoryTransport(
            LatencyModel(minimum_ms=5.0, maximum_ms=15.0, seed=5),
            kernel=kernel,
            loss_rate=0.25,
            loss_seed=17,
        )
        transport_setup, nodes, ids = build_network(transport=transport)
        # Build traffic with a lossless window first so every submission
        # lands deterministically, then turn losses on for the bootstrap.
        transport.loss_rate = 0.0
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        transport.loss_rate = 0.25
        report = straggler.sync.bootstrap_from(ids[0], chunk_size=256, max_retries=8)
        assert report.succeeded, report.reason
        assert report.retransmits > 0  # losses genuinely hit the transfer
        assert transport.statistics.lost > 0
        assert straggler.chain.head.block_hash == producer.chain.head.block_hash

    def test_bootstrap_restarts_when_the_peer_head_moves_mid_transfer(self):
        transport, nodes, ids = build_network()
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        served = {"count": 0}
        original = producer.handlers[MessageKind.SNAPSHOT_REQUEST]

        def busy_producer(message):
            served["count"] += 1
            if served["count"] == 2:
                # The producer seals a new block between two chunk requests:
                # chunks fetched so far belong to a snapshot that no longer
                # exists and must not be mixed with the new one.
                producer.chain.seal_block()
            return original(message)

        producer.handlers[MessageKind.SNAPSHOT_REQUEST] = busy_producer
        report = straggler.sync.bootstrap_from(ids[0], chunk_size=512)
        assert report.succeeded, report.reason
        assert report.restarts >= 1
        assert straggler.chain.head.block_hash == producer.chain.head.block_hash

    def test_bootstrap_restarts_when_the_snapshot_shrinks_mid_transfer(self):
        """A peer verdict ("chunk out of range" after deletions shrank the
        snapshot) must trigger a restart, not burn every retry on the same
        doomed index."""
        transport, nodes, ids = build_network()
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        original = producer.handlers[MessageKind.SNAPSHOT_REQUEST]
        state = {"shrunk": False}

        def shrinking_producer(message):
            if not state["shrunk"] and int(message.payload.get("chunk", 0)) >= 2:
                state["shrunk"] = True
                return message.error(
                    producer.node_id, "chunk 2 out of range (snapshot has 2 chunks)"
                )
            return original(message)

        producer.handlers[MessageKind.SNAPSHOT_REQUEST] = shrinking_producer
        report = straggler.sync.bootstrap_from(ids[0], chunk_size=512)
        assert report.succeeded, report.reason
        assert report.restarts >= 1
        assert straggler.chain.head.block_hash == producer.chain.head.block_hash

    def test_catch_up_declines_cheaply_across_a_marker_shift(self):
        """The peer must not serialise its living chain into a response the
        requester is bound to discard — the decline carries no blocks."""
        transport, nodes, ids = build_network()
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        responses = transport.tap(lambda message: message.kind is MessageKind.SYNC_RESPONSE)
        result = straggler.sync.catch_up(ids[0])
        assert result.status is CatchUpStatus.SNAPSHOT_REQUIRED
        response = responses[-1]
        assert response.payload["snapshot_required"] is True
        assert response.payload["blocks"] == []

    def test_catch_up_from_a_forked_peer_reports_rejection_not_a_crash(self):
        transport, nodes, ids = build_network()
        fork_a, fork_b = nodes[ids[0]], nodes["anchor-1"]
        fork_b.connect(ids)
        # Both replicas seal a *different* block 1, then the producer moves on.
        fork_b.chain.add_entry_block(login("MALLORY"), "MALLORY")
        client = ClientNode("ALPHA", transport)
        client.submit_entry(ids[0], login("ALPHA", "#0"))
        client.submit_entry(ids[0], login("ALPHA", "#1"))
        result = fork_b.sync.catch_up(ids[0])
        assert result.status is CatchUpStatus.BLOCK_REJECTED
        assert "hash" in result.detail
        assert fork_b.announce.rejected_blocks

    def test_a_forked_announcement_drained_from_the_buffer_is_kept_as_rejected(self):
        """A gossiped block that overtook its gap waits in the buffer; when
        the catch-up's replay ends on a head it does not link to, the block
        has left the buffer and must land in ``rejected_blocks``."""
        transport, nodes, ids = build_network()
        straggler = nodes[ids[-1]]
        fork = Blockchain(ChainConfig.paper_evaluation())
        fork.add_entry_block(login("MALLORY", "#0"), "MALLORY")
        forked = fork.add_entry_block(login("MALLORY", "#1"), "MALLORY")
        transport.set_offline(straggler.node_id)
        ClientNode("ALPHA", transport).submit_entry(ids[0], login("ALPHA"))
        transport.kernel.run()
        transport.set_offline(straggler.node_id, False)
        straggler.handle_message(
            Message(
                kind=MessageKind.BLOCK_ANNOUNCE,
                sender="MALLORY",
                payload={
                    "block": forked.to_dict(),
                    "gossip": {"item": forked.block_hash, "hops": 0},
                },
            )
        )
        assert list(straggler.announce.block_buffer) == [forked.block_number]
        result = straggler.sync.catch_up(ids[0])
        assert result.status is CatchUpStatus.BLOCK_REJECTED
        assert straggler.announce.block_buffer == {}
        assert [(block.block_hash, reason) for block, reason in straggler.announce.rejected_blocks] == [
            (forked.block_hash, result.detail)
        ]

    def test_digest_at_equal_height_with_different_hash_counts_divergence(self):
        transport, nodes, ids = build_network()
        honest, forked = nodes[ids[0]], nodes["anchor-1"]
        forked.chain.add_entry_block(login("MALLORY"), "MALLORY")
        client = ClientNode("ALPHA", transport)
        client.submit_entry(ids[0], login("ALPHA"))
        assert honest.chain.head.block_number == forked.chain.head.block_number
        digest = Message(
            kind=MessageKind.SYNC_DIGEST,
            sender=ids[0],
            payload={
                "head": honest.chain.head.block_number,
                "head_hash": honest.chain.head.block_hash,
                "genesis_marker": honest.chain.genesis_marker,
                "round": 1,
            },
        )
        before = forked.chain.head.block_hash
        assert forked.handle_message(digest) is None
        # No pull was attempted (a replay cannot reconcile a fork) ...
        assert forked.chain.head.block_hash == before
        assert forked.sync.counters["catch_ups"] == 0
        # ... but the divergence is surfaced in the counters.
        assert forked.sync.counters["digests_diverged"] == 1

    def test_fetch_from_unreachable_peer_reports_failure(self):
        transport, nodes, ids = build_network()
        transport.set_offline(ids[0])
        report = fetch_snapshot(transport, "anchor-1", ids[0], max_retries=1)
        assert not report.succeeded
        assert "unreachable" in report.reason
        # The local replica is untouched by a failed bootstrap.
        before = nodes["anchor-1"].chain.head.block_hash
        failed = nodes["anchor-1"].sync.bootstrap_from(ids[0], max_retries=1)
        assert not failed.succeeded
        assert nodes["anchor-1"].chain.head.block_hash == before

    def test_catch_up_reports_engine_rejection(self):
        from repro.consensus.base import ConsensusDecision, NullConsensus

        class RejectAll(NullConsensus):
            def validate_block(self, block, head):
                return ConsensusDecision(accepted=False, reason="rejected by policy")

        transport = InMemoryTransport()
        config = ChainConfig.paper_evaluation()
        producer = AnchorNode("p", Blockchain(config), transport, is_producer=True)
        replica = AnchorNode(
            "r", Blockchain(config), transport, engine=RejectAll(), producer_id="p"
        )
        producer.connect(["p"])  # no announcements; the replica must pull
        replica.connect(["p", "r"])
        producer.chain.add_entry_block(login("ALPHA"), "ALPHA")
        result = replica.sync.catch_up("p")
        assert result.status is CatchUpStatus.BLOCK_REJECTED
        assert result.declined
        assert "rejected by policy" in result.detail

    def test_wire_payload_round_trips_through_chain_from_payload(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        for index in range(10):
            chain.add_entry_block(login("ALPHA", f"#{index}"), "ALPHA")
        restored = chain_from_payload(snapshot_payload(chain))
        assert restored.head.block_hash == chain.head.block_hash
        assert snapshot_payload(restored) == snapshot_payload(chain)

    @pytest.mark.parametrize("payload", ['{"config": 5}', '{"x": 1}', "[]"])
    def test_a_payload_that_is_not_a_chain_raises_storage_error(self, payload):
        with pytest.raises(StorageError):
            chain_from_payload(payload)

    def test_a_donor_serving_a_non_chain_is_rejected_and_the_replica_untouched(
        self, monkeypatch
    ):
        """The payload matches the donor's own manifest digest, so only the
        restore can catch it — and it must fail typed, not crash the pull."""
        transport, nodes, ids = build_network()
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        monkeypatch.setattr(bootstrap_module, "snapshot_payload", lambda chain: '{"config": 5}')
        before = straggler.chain.statistics()
        for report in (
            straggler.sync.bootstrap_from(producer.node_id),
            run_process(straggler.sync.bootstrap_from_best_process([producer.node_id]), transport.kernel),
        ):
            assert not report.succeeded
            assert report.reason.startswith("snapshot rejected")
            assert straggler.chain.statistics() == before
        assert straggler.sync.counters["bootstraps"] == 0


def build_anti_entropy_deployment(seed, *, anchors=4, loss_rate=0.0):
    kernel = EventKernel(seed=seed)
    ids = [f"anchor-{i}" for i in range(anchors)]
    simulator = NetworkSimulator(
        anchor_count=anchors,
        config=ChainConfig.paper_evaluation(),
        latency=LatencyModel(minimum_ms=5.0, maximum_ms=20.0, seed=seed + 1),
        kernel=kernel,
        gossip=GossipOverlay(GossipTopology.ring(ids), fanout=1, seed=seed + 2),
        loss_rate=loss_rate,
        loss_seed=seed + 3,
    )
    simulator.add_client("ALPHA")
    return kernel, simulator


def test_a_baited_pull_never_trades_the_local_head_for_an_older_snapshot():
    """A spoofed digest makes the producer pull; its honest peers all trail
    it, so the best snapshot on offer is older than its own chain."""
    from repro.adversary import DigestSpoofer

    transport, nodes, ids = build_network()
    producer = nodes[ids[0]]
    spoofer = DigestSpoofer("spoofer-0", transport)
    for peer in ids[1:]:
        transport.set_offline(peer)
    ClientNode("ALPHA", transport).submit_entry(ids[0], login("ALPHA"))
    transport.kernel.run()
    for peer in ids[1:]:
        transport.set_offline(peer, False)
    head = producer.chain.head.block_hash
    result = producer.sync.synchronize(spoofer.actor_id)
    assert result.status is CatchUpStatus.SNAPSHOT_REQUIRED
    assert "behind the local head" in result.detail
    assert producer.chain.head.block_hash == head
    assert producer.sync.counters["bootstraps"] == 0


def test_a_lost_announcement_is_pulled_once_the_next_one_waits_behind_it():
    """No anti-entropy runs: the buffered successor exposes the hole, and
    once the hole outlives its grace period the replica pulls it."""
    transport, nodes, ids = build_network()
    producer, replica = nodes[ids[0]], nodes[ids[1]]
    client = ClientNode("ALPHA", transport)
    transport.block_link(ids[0], ids[1])
    client.submit_entry(ids[0], login("ALPHA", "#0"))
    transport.kernel.run()
    transport.heal_partition()
    client.submit_entry(ids[0], login("ALPHA", "#1"))
    transport.kernel.run()
    assert replica.announce.counters["gap_pulls"] == 1
    assert nodes[ids[2]].announce.counters["gap_pulls"] == 0
    assert replica.chain.head.block_hash == producer.chain.head.block_hash


class TestLostReplyRetry:
    """A digest-triggered pull whose reply is lost is asked again."""

    def test_a_lost_reply_converges_on_the_second_attempt(self, monkeypatch):
        transport, nodes, ids = build_network()
        straggler = nodes[ids[-1]]
        transport.set_offline(straggler.node_id)
        ClientNode("ALPHA", transport).submit_entry(ids[0], login("ALPHA"))
        transport.kernel.run()
        transport.set_offline(straggler.node_id, False)
        lost = []
        response_leg = transport._response_leg

        def lose_first_sync_reply(recipient, message, response, latency_ms):
            if response.kind is MessageKind.SYNC_RESPONSE and not lost:
                lost.append(response)
                return message.error("transport", "response lost")
            return response_leg(recipient, message, response, latency_ms)

        monkeypatch.setattr(transport, "_response_leg", lose_first_sync_reply)
        result = straggler.sync.synchronize(ids[0])
        assert len(lost) == 1
        assert result.status is CatchUpStatus.ADOPTED
        assert straggler.sync.counters["catch_ups"] == 2
        assert straggler.chain.head.block_hash == nodes[ids[0]].chain.head.block_hash

    def test_a_peer_that_stays_unreachable_costs_the_retry_bound(self):
        transport, nodes, ids = build_network()
        transport.set_offline(ids[0])
        straggler = nodes[ids[-1]]
        result = straggler.sync.synchronize(ids[0])
        assert result.status is CatchUpStatus.PEER_UNREACHABLE
        assert straggler.sync.counters["catch_ups"] == DEFAULT_MAX_RETRIES + 1

    @pytest.mark.parametrize("seed", [7, 9, 37])
    def test_lossy_vehicle_telemetry_converges(self, seed):
        """The lossy-sync yardstick's smoke size: each seed used to strand a
        replica behind one lost catch-up reply (9 and 37 with a blocking
        single-lane pump, 7 with the asynchronous one)."""
        result = run_scenario(
            "vehicle-telemetry", seed=seed, vehicles=5, anchors=6,
            events_per_vehicle=4, settle_ms=800.0,
        )
        assert result["replicas_identical"] is True

    def test_vehicle_telemetry_converges_at_200_vehicles_on_6_anchors_seed_18(self):
        result = run_scenario("vehicle-telemetry", seed=18, vehicles=200, anchors=6)
        assert result["replicas_identical"] is True


class TestAntiEntropy:
    def run_deployment(self, seed):
        from repro.network.message import reset_message_counter

        reset_message_counter()
        kernel, simulator = build_anti_entropy_deployment(seed)
        simulator.enable_anti_entropy(interval_ms=60.0, until=900.0)
        simulator.transport.schedule_offline("anchor-3", 40.0)
        simulator.schedule_online("anchor-3", 600.0)
        for index in range(10):
            kernel.schedule_at(
                20.0 + index * 45.0,
                lambda index=index: spawn(
                    kernel,
                    simulator.submit_entry_process(
                        "ALPHA", login("ALPHA", f"#{index}"), anchor_id=simulator.producer_id
                    ),
                ),
                label=f"entry-{index}",
            )
        kernel.run_until(900.0)
        report = simulator.finalize()
        return simulator, report

    def test_digest_rounds_converge_a_rejoined_replica_without_fallback(self):
        simulator, report = self.run_deployment(seed=9)
        assert simulator.replicas_identical()
        stats = report.anti_entropy
        assert stats["rounds"] > 0
        assert stats["converged"] is True
        assert stats["nodes"]["digests_behind"] > 0  # pulls were digest-driven

    def test_convergence_is_byte_identical_per_seed(self):
        _, first = self.run_deployment(seed=9)
        _, second = self.run_deployment(seed=9)
        assert json.dumps(first.as_dict(), sort_keys=True) == json.dumps(
            second.as_dict(), sort_keys=True
        )

    def test_different_seeds_take_different_trajectories(self):
        _, first = self.run_deployment(seed=9)
        _, second = self.run_deployment(seed=10)
        assert json.dumps(first.as_dict(), sort_keys=True) != json.dumps(
            second.as_dict(), sort_keys=True
        )

    def test_digest_triggered_bootstrap_across_marker_shift(self):
        from repro.network.message import reset_message_counter

        reset_message_counter()
        kernel, simulator = build_anti_entropy_deployment(seed=4)
        simulator.enable_anti_entropy(interval_ms=60.0, until=1600.0)
        simulator.transport.schedule_offline("anchor-3", 30.0)
        simulator.schedule_online("anchor-3", 1100.0)
        for index in range(20):
            kernel.schedule_at(
                20.0 + index * 40.0,
                lambda index=index: spawn(
                    kernel,
                    simulator.submit_entry_process(
                        "ALPHA", login("ALPHA", f"#{index}"), anchor_id=simulator.producer_id
                    ),
                ),
                label=f"entry-{index}",
            )
        kernel.run_until(1050.0)
        # The producer's marker has shifted past the straggler's head, so
        # the digest-triggered pull must escalate to a snapshot bootstrap.
        assert (
            simulator.producer.chain.genesis_marker
            > simulator.anchors["anchor-3"].chain.head.block_number
        )
        kernel.run_until(1600.0)
        report = simulator.finalize()
        assert simulator.replicas_identical()
        assert report.anti_entropy["nodes"]["bootstraps"] >= 1
        assert report.anti_entropy["nodes"]["bootstrap_bytes"] > 0

    def test_anti_entropy_requires_an_overlay(self):
        simulator = NetworkSimulator(anchor_count=2)
        with pytest.raises(ValueError):
            simulator.enable_anti_entropy()


class TestPushPullDigests:
    def test_ahead_receiver_pushes_its_digest_back(self):
        """Push-pull: a stale replica that digests an up-to-date peer learns
        of the newer head in the same round and pulls — no waiting for the
        peer's own fan-out to select it."""
        kernel = EventKernel(seed=11)
        transport = InMemoryTransport(
            LatencyModel(minimum_ms=5.0, maximum_ms=10.0, seed=11), kernel=kernel
        )
        _, nodes, ids = build_network(transport=transport)
        client = ClientNode("ALPHA", transport)
        client.submit_entry(ids[0], login("ALPHA"))
        kernel.run_until(100.0)
        # Hold one replica back, then let only *its* digest travel.
        straggler = nodes[ids[2]]
        straggler.chain = Blockchain(ChainConfig.paper_evaluation())
        from repro.network.message import Message, MessageKind

        def post_digest() -> None:
            transport.post(
                ids[0],
                Message(
                    kind=MessageKind.SYNC_DIGEST,
                    sender=ids[2],
                    payload={
                        "head": straggler.chain.head.block_number,
                        "head_hash": straggler.chain.head.block_hash,
                        "genesis_marker": straggler.chain.genesis_marker,
                    },
                ),
            )

        kernel.schedule_at(120.0, post_digest)
        kernel.run_until(400.0)
        assert nodes[ids[0]].sync.counters["digests_pushed_back"] == 1
        assert straggler.sync.counters["digests_behind"] == 1
        assert straggler.chain.head.block_hash == nodes[ids[0]].chain.head.block_hash

    def test_converged_replicas_never_ping_pong(self):
        """Equal heads exchange digests without triggering any push-back."""
        transport, nodes, ids = build_network()
        from repro.network.message import Message, MessageKind

        digest = Message(
            kind=MessageKind.SYNC_DIGEST,
            sender=ids[1],
            payload={
                "head": nodes[ids[1]].chain.head.block_number,
                "head_hash": nodes[ids[1]].chain.head.block_hash,
                "genesis_marker": nodes[ids[1]].chain.genesis_marker,
            },
        )
        nodes[ids[0]].handle_message(digest)
        assert nodes[ids[0]].sync.counters["digests_pushed_back"] == 0
        assert nodes[ids[0]].sync.counters["digests_behind"] == 0


    @pytest.mark.parametrize(
        "payload",
        [{"blocks": [{"bogus": 1}]}, {"blocks": [], "genesis_marker": "x"}],
        ids=["block-without-fields", "non-numeric-marker"],
    )
    def test_a_malformed_pull_reply_ends_the_pull_not_the_run(self, payload):
        """The digest-triggered pull is a kernel process; a peer answering it
        with a malformed SYNC_RESPONSE costs that pull, and the kernel runs on."""
        transport, nodes, ids = build_network()
        transport.register(
            "liar", lambda message: message.reply(MessageKind.SYNC_RESPONSE, "liar", payload)
        )
        replica = nodes[ids[1]]
        head = replica.chain.head.block_hash
        transport.post(
            ids[1],
            Message(kind=MessageKind.SYNC_DIGEST, sender="liar", payload={"head": 50}),
        )
        later = []
        transport.kernel.schedule(500.0, lambda: later.append(transport.kernel.now))
        transport.kernel.run()
        assert replica.sync.counters["digests_behind"] == 1
        assert replica.chain.head.block_hash == head
        assert not replica.sync.in_progress
        assert later == [500.0]


class TestLoadAwareBootstrap:
    def test_probe_returns_manifest_and_load_without_data(self):
        transport, nodes, ids = build_network()
        nodes[ids[0]].chain.add_entry_block(login("ALPHA"), "ALPHA")
        from repro.sync import rank_bootstrap_peers

        served = transport.tap(lambda message: message.kind is MessageKind.SNAPSHOT_CHUNK)
        (probe,) = rank_bootstrap_peers(transport, "rescue", [ids[0]])
        assert probe.peer_id == ids[0]
        assert probe.load == 0
        assert probe.manifest.head_hash == nodes[ids[0]].chain.head.block_hash
        assert nodes[ids[0]].sync.counters["snapshot_probes_served"] == 1
        # The probe shipped no chunk data (that is its whole point).
        assert served and "data" not in served[-1].payload

    def test_ranking_prefers_near_and_lightly_loaded_peers(self):
        transport, nodes, ids = build_network(transport=InMemoryTransport(LatencyModel(0, 0)))
        from repro.sync import rank_bootstrap_peers

        # Load one peer: serving chunks bumps its advertised load.
        nodes[ids[1]].sync.counters["chunks_served"] = 9
        ranked = rank_bootstrap_peers(transport, "rescue", ids)
        # Zero latency: every peer is equally near (rtt 0), so load then
        # peer id decide — the loaded peer ranks last.
        assert [probe.peer_id for probe in ranked] == [ids[0], ids[2], ids[1]]
        assert ranked[-1].load == 9

    def test_unreachable_peers_drop_out_of_the_ranking(self):
        transport, nodes, ids = build_network()
        from repro.sync import rank_bootstrap_peers

        transport.set_offline(ids[1])
        ranked = rank_bootstrap_peers(transport, "rescue", ids)
        assert [probe.peer_id for probe in ranked] == [ids[0], ids[2]]

    def test_striped_fetch_spreads_chunks_across_donors(self):
        transport, nodes, ids = build_network()
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        from repro.sync import fetch_snapshot_striped

        donors = [peer for peer in ids if peer != straggler.node_id]
        report = fetch_snapshot_striped(
            transport, straggler.node_id, donors, chunk_size=256
        )
        assert report.succeeded, report.reason
        assert sorted(report.donors) == sorted(donors)
        assert report.chunks_fetched == report.manifest.total_chunks > 1
        # Every donor genuinely served chunks (the replicas share one head).
        for donor in donors:
            assert nodes[donor].sync.counters["chunks_served"] > 0

    def test_striped_fetch_prefers_the_most_advanced_head(self):
        transport, nodes, ids = build_network()
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        from repro.sync import fetch_snapshot_striped

        # Hold one donor at a stale head: it must not join the donor set.
        stale = Blockchain(ChainConfig.paper_evaluation())
        stale.add_entry_block(login("ALPHA", "stale"), "ALPHA")
        nodes[ids[1]].sync.adopt_chain(stale)
        report = fetch_snapshot_striped(
            transport, straggler.node_id, [ids[0], ids[1]], chunk_size=256
        )
        assert report.succeeded, report.reason
        assert report.donors == [ids[0]]
        assert report.manifest.head_hash == producer.chain.head.block_hash

    def test_bootstrap_from_best_adopts_the_snapshot(self):
        transport, nodes, ids = build_network()
        producer, straggler = isolate_across_marker_shift(transport, nodes, ids)
        report = run_process(straggler.sync.bootstrap_from_best_process(chunk_size=512), transport.kernel)
        assert report.succeeded, report.reason
        assert straggler.chain.head.block_hash == producer.chain.head.block_hash
        assert straggler.sync.counters["bootstraps"] == 1

    def test_striped_fetch_with_no_reachable_peers_reports_failure(self):
        transport, nodes, ids = build_network()
        from repro.sync import fetch_snapshot_striped

        for peer in ids[:2]:
            transport.set_offline(peer)
        report = fetch_snapshot_striped(transport, ids[2], ids[:2])
        assert not report.succeeded
        assert "no bootstrap peer answered" in report.reason
