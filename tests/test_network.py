"""Tests of the network substrate: transport, nodes, gossip, simulator."""

import pytest

from repro.core import Blockchain, ChainConfig, EntryReference
from repro.core.errors import SynchronisationError
from repro.crypto.hashing import canonical_json
from repro.network import (
    AnchorNode,
    EventHandle,
    EventKernel,
    GossipOverlay,
    GossipTopology,
    InMemoryTransport,
    LatencyModel,
    Message,
    MessageKind,
    NetworkSimulator,
    TransportError,
    run_process,
)
from repro.network.transport import MESSAGE_LOG_LIMIT
from repro.service.remote import ClientNode


class TestTransport:
    def test_register_and_send(self):
        transport = InMemoryTransport()
        received = []

        def handler(message):
            received.append(message)
            return message.reply(MessageKind.ACK, "b")

        transport.register("b", handler)
        response = transport.send("b", Message(kind=MessageKind.ACK, sender="a"))
        assert response.kind is MessageKind.ACK
        assert received and received[0].sender == "a"
        assert transport.statistics.delivered == 2

    def test_duplicate_registration_rejected(self):
        transport = InMemoryTransport()
        transport.register("a", lambda m: None)
        with pytest.raises(TransportError):
            transport.register("a", lambda m: None)

    def test_unknown_recipient(self):
        transport = InMemoryTransport()
        with pytest.raises(TransportError):
            transport.send("ghost", Message(kind=MessageKind.ACK, sender="a"))

    def test_offline_node_yields_error_response(self):
        transport = InMemoryTransport()
        transport.register("b", lambda m: m.reply(MessageKind.ACK, "b"))
        transport.set_offline("b")
        response = transport.send("b", Message(kind=MessageKind.ACK, sender="a"))
        assert response.is_error
        assert transport.statistics.dropped == 1
        transport.set_offline("b", False)
        assert not transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error

    def test_blocked_link_and_partition(self):
        transport = InMemoryTransport()
        transport.register("a", lambda m: m.reply(MessageKind.ACK, "a"))
        transport.register("b", lambda m: m.reply(MessageKind.ACK, "b"))
        transport.partition(["a"], ["b"])
        assert transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error
        transport.heal_partition()
        assert not transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error

    def test_a_wave_resumes_once_with_every_reply_and_costs_its_slowest_round_trip(self):
        transport = InMemoryTransport(LatencyModel(seed=3))
        twin = LatencyModel(seed=3)
        for node_id in ("b", "c"):
            transport.register(node_id, lambda m, node_id=node_id: m.reply(MessageKind.ACK, node_id))

        def ask_both():
            replies = yield [
                transport.request(node_id, Message(kind=MessageKind.ACK, sender="a"))
                for node_id in ("b", "c")
            ]
            return [(reply.sender, rtt) for reply, rtt in replies]

        (b, b_rtt), (c, c_rtt) = run_process(ask_both(), transport.kernel)
        requests = [twin.sample(), twin.sample()]
        responses = [twin.sample(), twin.sample()]
        assert (b, c) == ("b", "c")
        assert [b_rtt, c_rtt] == [q + r for q, r in zip(requests, responses)]
        assert transport.kernel.now == max(b_rtt, c_rtt)

    def test_a_handler_may_answer_through_a_process(self):
        transport = InMemoryTransport(LatencyModel(minimum_ms=1, maximum_ms=1))
        transport.register("producer", lambda m: m.reply(MessageKind.ACK, "producer"))

        def forward(message):
            reply = yield from transport.exchange("producer", message)
            return reply

        transport.register("replica", forward)
        reply = transport.send("replica", Message(kind=MessageKind.ACK, sender="client"))
        assert reply.sender == "producer"
        assert transport.kernel.now == 4.0

    def test_latency_model_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(minimum_ms=5, maximum_ms=1)
        model = LatencyModel(minimum_ms=1, maximum_ms=2, seed=1)
        assert 1 <= model.sample() <= 2

    def test_each_message_leg_draws_the_next_latency_sample(self):
        """Request, response and post legs take the model's samples in order,
        whatever their endpoints."""
        transport, twin = InMemoryTransport(LatencyModel(seed=5)), LatencyModel(seed=5)
        arrivals = []
        transport.register("b", lambda m: m.reply(MessageKind.ACK, "b"))
        transport.register("c", lambda m: arrivals.append(transport.kernel.now) and None)
        transport.send("b", Message(kind=MessageKind.ACK, sender="a"))
        request, response = twin.sample(), twin.sample()
        assert transport.kernel.now == request + response
        transport.post("c", Message(kind=MessageKind.ACK, sender="b"))
        transport.kernel.run()
        assert arrivals == [request + response + twin.sample()]

    def test_is_offline_follows_set_offline(self):
        transport = InMemoryTransport()
        transport.register("b", lambda m: m.reply(MessageKind.ACK, "b"))
        assert not transport.is_offline("b")
        transport.set_offline("b")
        assert transport.is_offline("b")
        assert not transport.is_offline("a")
        transport.set_offline("b", False)
        assert not transport.is_offline("b")

    def test_a_scheduled_partition_splits_the_network_at_its_time(self):
        transport = InMemoryTransport(LatencyModel(minimum_ms=1, maximum_ms=1))
        for node_id in ("a", "b"):
            transport.register(node_id, lambda m, node_id=node_id: m.reply(MessageKind.ACK, node_id))
        transport.schedule_partition(["a"], ["b"], at=50.0)
        transport.schedule_heal(at=100.0)
        assert not transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error
        transport.kernel.run_until(60.0)
        assert transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error
        transport.kernel.run_until(100.0)
        assert not transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error

    def test_a_transport_built_without_a_kernel_delivers_on_its_own(self):
        """There is one delivery mode: without a caller's kernel the
        transport owns one, a post waits for it and a send advances it by
        both legs' latency samples."""
        transport = InMemoryTransport(LatencyModel(seed=3))
        twin = LatencyModel(seed=3)
        transport.register("b", lambda m: m.reply(MessageKind.ACK, "b"))
        reply = transport.send("b", Message(kind=MessageKind.SYNC_DIGEST, sender="a"))
        assert reply is not None and reply.kind is MessageKind.ACK
        assert transport.kernel.now == twin.sample() + twin.sample()
        delivered = []
        transport.register("c", delivered.append)
        handle = transport.post("c", Message(kind=MessageKind.SYNC_DIGEST, sender="a"))
        assert isinstance(handle, EventHandle) and not delivered
        transport.kernel.run()
        assert len(delivered) == 1

    @pytest.mark.parametrize("fault", ["offline", "lost"])
    def test_faulted_post_draws_no_message_id(self, fault):
        """Ids are process-global and serialised into every message: a post
        that is dropped or lost reports nothing, so it must not build (and
        thereby number) an error message either."""
        kernel = EventKernel(seed=1)
        transport = InMemoryTransport(
            kernel=kernel, loss_rate=0.999999 if fault == "lost" else 0.0
        )
        delivered = []
        transport.register("b", delivered.append)
        if fault == "offline":
            transport.set_offline("b")
        ping = Message(kind=MessageKind.SYNC_DIGEST, sender="a")
        before = Message(kind=MessageKind.ACK, sender="a").message_id
        transport.post("b", ping)
        kernel.run()
        after = Message(kind=MessageKind.ACK, sender="a").message_id
        assert after - before == 1
        assert not delivered
        assert transport.statistics.dropped == 1
        assert transport.statistics.lost == (1 if fault == "lost" else 0)

    def test_message_log_keeps_only_the_newest_deliveries(self):
        transport = InMemoryTransport(LatencyModel(seed=3))
        delivered = []

        def sink(message):
            delivered.append(message)
            assert len(transport.message_log) <= MESSAGE_LOG_LIMIT

        transport.register("b", sink)
        for _ in range(4 * MESSAGE_LOG_LIMIT):
            transport.post("b", Message(kind=MessageKind.SYNC_DIGEST, sender="a"))
        transport.kernel.run()
        assert len(delivered) == 4 * MESSAGE_LOG_LIMIT
        assert len(transport.message_log) == MESSAGE_LOG_LIMIT
        assert transport.message_log[-1] is delivered[-1]
        assert list(transport.message_log) == delivered[-MESSAGE_LOG_LIMIT:]

    def test_a_tap_holds_exactly_the_delivered_messages_under_loss(self):
        transport = InMemoryTransport(LatencyModel(seed=3), loss_rate=0.3, loss_seed=5)
        requests = []

        def answer(message):
            requests.append(message)
            return message.reply(MessageKind.ACK, "b")

        transport.register("b", answer)
        transport.register("c", lambda message: None)
        transport.set_offline("c")
        everything = transport.tap(lambda message: True)
        replies = []
        for _ in range(200):
            transport.send_async(
                "b", Message(kind=MessageKind.SYNC_DIGEST, sender="a"), on_response=replies.append
            )
            transport.post("c", Message(kind=MessageKind.SYNC_DIGEST, sender="a"))
        transport.kernel.run()
        stats = transport.statistics
        assert stats.lost > 0 and stats.dropped > stats.lost
        assert len(everything) == stats.delivered
        # Requests the handler saw and replies that reached the requester —
        # never a lost or dropped message, nor a transport's error notice.
        assert [m for m in everything if m.kind is MessageKind.SYNC_DIGEST] == requests
        assert [m for m in everything if m.kind is MessageKind.ACK] == [
            reply for reply in replies if not reply.is_error
        ]

    def test_a_tap_opened_mid_run_sees_only_later_deliveries(self):
        transport = InMemoryTransport(LatencyModel(seed=3))
        delivered = []
        transport.register("b", delivered.append)
        for _ in range(10):
            transport.post("b", Message(kind=MessageKind.SYNC_DIGEST, sender="a"))
        transport.kernel.run()
        later = transport.tap(lambda message: message.kind is MessageKind.SYNC_DIGEST)
        for _ in range(5):
            transport.post("b", Message(kind=MessageKind.SYNC_DIGEST, sender="a"))
        transport.kernel.run()
        assert len(delivered) == 15
        assert later == delivered[10:]


class TestAnchorAndClientNodes:
    def build_network(self, anchor_count=3):
        transport = InMemoryTransport()
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

    def test_latest_summary_block_is_the_newest_on_the_replica(self):
        transport, nodes, ids = self.build_network(anchor_count=1)
        node = nodes[ids[0]]
        assert node.sync.latest_summary_block() is None
        for index in range(4):
            node.chain.add_entry_block({"D": f"e{index}", "K": "A", "S": "s"}, "A")
        summaries = [block for block in node.chain.blocks if block.is_summary]
        assert len(summaries) >= 2
        assert node.sync.latest_summary_block() is summaries[-1]

    def test_entry_replicated_to_all_anchors(self):
        transport, nodes, ids = self.build_network()
        client = ClientNode("ALPHA", transport)
        response = client.submit_entry(ids[0], {"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"})
        assert not response.is_error
        transport.kernel.run()  # the announcement is one-way and still in flight
        heads = {node.chain.head.block_hash for node in nodes.values()}
        assert len(heads) == 1

    def test_submission_to_replica_is_forwarded(self):
        transport, nodes, ids = self.build_network()
        client = ClientNode("BRAVO", transport)
        response = client.submit_entry(ids[2], {"D": "Login BRAVO", "K": "BRAVO", "S": "sig_BRAVO"})
        assert not response.is_error
        assert nodes[ids[0]].chain.find_entry(EntryReference(1, 1)) is not None
        assert nodes[ids[1]].chain.find_entry(EntryReference(1, 1)) is not None

    def test_deletion_request_over_network(self):
        transport, nodes, ids = self.build_network()
        client = ClientNode("BRAVO", transport)
        client.submit_entry(ids[0], {"D": "Login BRAVO", "K": "BRAVO", "S": "sig_BRAVO"})
        response = client.request_deletion(ids[0], EntryReference(1, 1))
        assert not response.is_error
        assert response.payload["deletion_status"] == "approved"
        for node in nodes.values():
            assert node.chain.registry.approved_count == 1

    def test_summary_blocks_identical_across_nodes(self):
        transport, nodes, ids = self.build_network()
        client = ClientNode("ALPHA", transport)
        for i in range(4):
            client.submit_entry(ids[0], {"D": f"event {i}", "K": "ALPHA", "S": "sig_ALPHA"})
        report = nodes[ids[0]].sync.sync_check()
        assert report.in_sync
        assert report.block_number >= 2

    def test_sync_check_detects_divergence(self):
        transport, nodes, ids = self.build_network()
        client = ClientNode("ALPHA", transport)
        client.submit_entry(ids[0], {"D": "a", "K": "ALPHA", "S": "s"})
        # Corrupt one replica: it seals a rogue block locally and forks.
        nodes[ids[1]].chain.add_entry({"D": "rogue", "K": "EVE", "S": "s"}, "EVE")
        nodes[ids[1]].chain.seal_block()
        client.submit_entry(ids[0], {"D": "b", "K": "ALPHA", "S": "s"})
        client.submit_entry(ids[0], {"D": "c", "K": "ALPHA", "S": "s"})
        report = nodes[ids[0]].sync.sync_check()
        assert ids[1] in report.diverged_peers
        with pytest.raises(SynchronisationError):
            nodes[ids[0]].sync.sync_check(raise_on_divergence=True)

    def test_a_three_entry_block_sealed_on_the_producer_replicates_byte_identically(self):
        """Multi-entry blocks live in the core: ``add_entry`` ×N + ``seal_block``
        on the producer's chain; its ``block-sealed`` subscription announces."""
        transport, nodes, ids = self.build_network()
        producer = nodes[ids[0]].chain
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            producer.add_entry({"D": f"Login {user}", "K": user, "S": f"sig_{user}"}, user)
        block = producer.seal_block()
        assert len(block.entries) == 3
        transport.kernel.run()
        expected = canonical_json([stored.to_dict() for stored in producer.blocks])
        for node_id in ids[1:]:
            replica = nodes[node_id].chain
            assert replica.find_entry(EntryReference(block.block_number, 3)) is not None
            assert canonical_json([stored.to_dict() for stored in replica.blocks]) == expected

    #: One wrong-typed payload for every dispatched kind that parses a
    #: payload field (QUERY_STATISTICS reads nothing).
    WRONG_TYPED = {
        MessageKind.SUBMIT_ENTRY: {"entry": 7},
        MessageKind.SUBMIT_DELETION: {"entry": "x"},
        MessageKind.IDLE_TICK: {"ticks": "many"},
        MessageKind.FIND_ENTRY: {"reference": 3},
        MessageKind.BLOCK_ANNOUNCE: {"block": {}},
        MessageKind.SUMMARY_HASH: {"block_number": "x"},
        MessageKind.SYNC_REQUEST: {"from_block": []},
        MessageKind.SYNC_DIGEST: {"head": "x"},
        MessageKind.SNAPSHOT_REQUEST: {"chunk_size": "x"},
        MessageKind.VOTE_REQUEST: {"candidate_head": None},
    }
    #: Kinds with a mandatory field: an empty payload is malformed too
    #: (PRODUCER_CHANGE coerces its one field, so this is its only case).
    NEEDS_A_FIELD = (
        MessageKind.SUBMIT_ENTRY,
        MessageKind.SUBMIT_DELETION,
        MessageKind.FIND_ENTRY,
        MessageKind.BLOCK_ANNOUNCE,
        MessageKind.SUMMARY_HASH,
        MessageKind.PRODUCER_CHANGE,
    )

    @pytest.mark.parametrize("kind", list(MessageKind), ids=lambda kind: kind.value)
    def test_malformed_payloads_come_back_as_typed_errors(self, kind):
        """Wire input is untrusted: whatever the payload, the handler answers
        (or stays silent) — it never raises out of the delivery event."""
        for payload in ({}, self.WRONG_TYPED.get(kind, {"x": 1})):
            transport, nodes, ids = self.build_network()
            response = nodes[ids[0]].handle_message(
                Message(kind=kind, sender="mallory", payload=payload)
            )
            malformed = (payload and kind in self.WRONG_TYPED) or (
                not payload and kind in self.NEEDS_A_FIELD
            )
            if malformed:
                assert response is not None and response.is_error
                assert response.payload["reason"].startswith(
                    f"malformed {kind.value} payload"
                )

    def test_the_malformed_payload_table_covers_every_dispatched_kind(self):
        transport, nodes, ids = self.build_network()
        node = nodes[ids[0]]
        dispatched = set()
        for kind in MessageKind:
            response = node.handle_message(Message(kind=kind, sender="x"))
            unsupported = response is not None and "unsupported message kind" in str(
                response.payload.get("reason", "")
            )
            if not unsupported:
                dispatched.add(kind)
            else:
                # A kind in no protocol's HANDLES map gets the typed error.
                assert response.is_error and kind not in node.handlers
                assert response.payload["reason"] == f"unsupported message kind {kind.value}"
        assert dispatched == set(node.handlers)
        assert dispatched - {MessageKind.QUERY_STATISTICS} == {
            *self.WRONG_TYPED,
            *self.NEEDS_A_FIELD,
        }

    def test_every_served_kind_is_in_exactly_one_protocol_handles_map(self):
        transport, nodes, ids = self.build_network()
        node = nodes[ids[0]]
        protocols = (node.service, node.announce, node.sync, node.election)
        owners = [(kind, protocol, name) for protocol in protocols for kind, name in protocol.HANDLES.items()]
        kinds = [kind for kind, _, _ in owners]
        assert len(kinds) == len(set(kinds)) == len(node.handlers) == 12
        for kind, protocol, name in owners:
            assert node.handlers[kind] == getattr(protocol, name)
        # The table is built once, at construction, not per delivery.
        table = node.handlers
        node.handle_message(Message(kind=MessageKind.QUERY_STATISTICS, sender="x"))
        assert node.handlers is table

    def test_a_negative_idle_tick_is_a_malformed_payload_on_a_kernel_clock(self):
        """The table's chains run on a logical clock, which rejects a negative
        advance itself; on a caller's kernel the producer waits the ticks out
        instead, and a negative wait must not reach ``kernel.schedule``."""
        simulator = NetworkSimulator(anchor_count=3, kernel=EventKernel(seed=1))
        head = simulator.producer.chain.head.block_number
        response = simulator.transport.send(
            simulator.producer_id,
            Message(kind=MessageKind.IDLE_TICK, sender="mallory", payload={"ticks": -5}),
        )
        assert response.is_error
        assert response.payload["reason"].startswith("malformed idle_tick payload")
        assert simulator.producer.chain.head.block_number == head

    def test_unknown_message_kind_rejected(self):
        transport, nodes, ids = self.build_network()
        # repro: allow[REPRO-P202] deliberately sends a reply-only kind to assert the typed rejection
        response = transport.send(ids[0], Message(kind=MessageKind.VOTE_RESPONSE, sender="x"))
        assert response.is_error


class TestGossip:
    def test_remove_node(self):
        topology = GossipTopology.fully_connected(["a", "b", "c"])
        topology.remove_node("b")
        assert "b" not in topology.nodes
        assert "b" not in topology.neighbours("a")

    def test_add_edge_links_both_ends_and_adds_missing_nodes(self):
        topology = GossipTopology()
        topology.add_edge("a", "b")
        assert topology.nodes == ["a", "b"]
        assert topology.neighbours("a") == {"b"} and topology.neighbours("b") == {"a"}
        topology.add_edge("a", "a")
        assert topology.neighbours("a") == {"b"}

    def test_add_node_is_idempotent_and_keeps_links(self):
        topology = GossipTopology()
        topology.add_node("solo")
        assert topology.nodes == ["solo"] and topology.neighbours("solo") == set()
        topology.add_edge("solo", "peer")
        topology.add_node("solo")
        assert topology.neighbours("solo") == {"peer"}

    def test_random_regular_topology(self):
        topology = GossipTopology.random_regular([f"n{i}" for i in range(10)], degree=3)
        assert len(topology.nodes) == 10
        assert all(len(topology.neighbours(node)) >= 3 for node in topology.nodes)

    def test_invalid_parameters(self):
        topology = GossipTopology.fully_connected(["a", "b"])
        with pytest.raises(ValueError):
            GossipOverlay(topology, fanout=0)


class TestSimulator:
    def test_login_scenario_keeps_replicas_identical(self):
        simulator = NetworkSimulator(anchor_count=3, client_ids=["ALPHA", "BRAVO", "CHARLIE"])
        logins = [(user, f"Login {user}") for user in ("ALPHA", "BRAVO", "CHARLIE")] * 3
        report = simulator.run_login_scenario(logins)
        assert report.blocks_produced == 9
        assert report.divergences_detected == 0
        assert simulator.replicas_identical()
        assert report.final_chain_statistics["living_blocks"] > 0

    def test_deletion_through_simulator(self):
        simulator = NetworkSimulator(anchor_count=3, client_ids=["ALPHA", "BRAVO"])
        simulator.submit_entry("BRAVO", {"D": "Login BRAVO", "K": "BRAVO", "S": "sig_BRAVO"})
        response = simulator.submit_deletion("BRAVO", EntryReference(1, 1))
        assert not response.is_error
        for node in simulator.anchors.values():
            assert node.chain.registry.approved_count == 1

    def test_corrupted_replica_detected(self):
        simulator = NetworkSimulator(anchor_count=3, client_ids=["ALPHA"])
        simulator.submit_entry("ALPHA", {"D": "a", "K": "ALPHA", "S": "s"})
        simulator.corrupt_replica("anchor-2")
        simulator.submit_entry("ALPHA", {"D": "b", "K": "ALPHA", "S": "s"})
        simulator.submit_entry("ALPHA", {"D": "c", "K": "ALPHA", "S": "s"})
        report = simulator.sync_check()
        assert "anchor-2" in report.diverged_peers
        assert simulator.report.divergences_detected == 1
        with pytest.raises(SynchronisationError):
            simulator.sync_check(raise_on_divergence=True)

    def test_failover_when_anchor_offline(self):
        simulator = NetworkSimulator(anchor_count=3, client_ids=["ALPHA"])
        # Note: anchor-0 is the producer; take a replica offline and submit to it.
        simulator.take_offline("anchor-1")
        response = simulator.submit_entry(
            "ALPHA", {"D": "x", "K": "ALPHA", "S": "s"}, anchor_id="anchor-1"
        )
        assert response.is_error  # directed submission to an offline node fails
        response = simulator.submit_entry("ALPHA", {"D": "x", "K": "ALPHA", "S": "s"})
        assert not response.is_error  # failover path picks a reachable anchor
        assert simulator.report.failovers >= 1
        simulator.bring_online("anchor-1")

    def test_failover_elects_the_highest_head_and_breaks_ties_by_lowest_id(self):
        simulator = NetworkSimulator(anchor_count=4, client_ids=["ALPHA"])

        def submit(index):
            response = simulator.submit_entry(
                "ALPHA", {"D": f"e{index}", "K": "ALPHA", "S": "s"}, anchor_id="anchor-0"
            )
            assert not response.is_error

        submit(0)
        simulator.take_offline("anchor-1")  # the lowest replica id falls behind
        submit(1)
        submit(2)
        simulator.bring_online("anchor-1")
        simulator.take_offline("anchor-0")
        heads = {a: node.chain.head.block_number for a, node in simulator.anchors.items()}
        assert heads["anchor-1"] < heads["anchor-2"] == heads["anchor-3"]
        election = simulator.elect_new_producer_process(exclude=("anchor-0",))
        assert run_process(election, simulator.kernel) == "anchor-2"
        assert simulator.producer_id == "anchor-2"

    def test_requires_at_least_one_anchor(self):
        with pytest.raises(ValueError):
            NetworkSimulator(anchor_count=0)

    def test_all_heads_reported(self):
        simulator = NetworkSimulator(anchor_count=2, client_ids=["A"])
        simulator.submit_entry("A", {"D": "x", "K": "A", "S": "s"})
        heads = simulator.all_heads()
        assert set(heads) == {"anchor-0", "anchor-1"}
