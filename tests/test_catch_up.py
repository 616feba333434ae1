"""Tests for the catch-up path of anchor nodes that were temporarily offline."""

from repro.core import Blockchain, ChainConfig, EntryReference
from repro.network import (
    AnchorNode,
    CatchUpStatus,
    InMemoryTransport,
    NetworkSimulator,
)
from repro.service.remote import ClientNode


def login(user, detail=""):
    record = f"Login {user}" if not detail else f"Login {user} {detail}"
    return {"D": record, "K": user, "S": f"sig_{user}"}


def build_network(anchor_count=3):
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


class TestCatchUp:
    def test_offline_replica_catches_up(self):
        transport, nodes, ids = build_network()
        client = ClientNode("ALPHA", transport)
        client.submit_entry(ids[0], login("ALPHA", "#0"))
        # anchor-2 goes offline and misses two blocks.
        transport.set_offline("anchor-2")
        client.submit_entry(ids[0], login("ALPHA", "#1"))
        client.submit_entry(ids[0], login("ALPHA", "#2"))
        transport.set_offline("anchor-2", False)
        assert nodes["anchor-2"].chain.head.block_number < nodes[ids[0]].chain.head.block_number

        result = nodes["anchor-2"].sync.catch_up(ids[0])
        assert result.status is CatchUpStatus.ADOPTED
        assert result.adopted >= 2
        assert not result.declined
        assert (
            nodes["anchor-2"].chain.head.block_hash == nodes[ids[0]].chain.head.block_hash
        )
        report = nodes[ids[0]].sync.sync_check()
        assert report.in_sync

    def test_catch_up_when_already_current_is_a_noop(self):
        transport, nodes, ids = build_network()
        client = ClientNode("ALPHA", transport)
        client.submit_entry(ids[0], login("ALPHA"))
        result = nodes["anchor-1"].sync.catch_up(ids[0])
        assert result.status is CatchUpStatus.ALREADY_CURRENT
        assert result.adopted == 0
        assert nodes["anchor-1"].chain.head.block_hash == nodes[ids[0]].chain.head.block_hash

    def test_catch_up_replays_deletion_requests(self):
        transport, nodes, ids = build_network()
        client = ClientNode("BRAVO", transport)
        client.submit_entry(ids[0], login("BRAVO"))
        transport.set_offline("anchor-2")
        client.request_deletion(ids[0], EntryReference(1, 1))
        transport.set_offline("anchor-2", False)
        assert nodes["anchor-2"].chain.registry.approved_count == 0
        nodes["anchor-2"].sync.catch_up(ids[0])
        assert nodes["anchor-2"].chain.registry.approved_count == 1

    def test_catch_up_from_unreachable_peer_reports_why(self):
        transport, nodes, ids = build_network()
        transport.set_offline(ids[0])
        result = nodes["anchor-1"].sync.catch_up(ids[0])
        assert result.status is CatchUpStatus.PEER_UNREACHABLE
        assert result.adopted == 0
        assert result.declined
        assert "unavailable" in result.detail

    def test_catch_up_across_marker_shift_requires_snapshot(self):
        """A replica that missed whole expired sequences cannot replay them."""
        transport, nodes, ids = build_network()
        client = ClientNode("ALPHA", transport)
        client.submit_entry(ids[0], login("ALPHA", "#0"))
        transport.set_offline("anchor-2")
        for i in range(1, 9):
            client.submit_entry(ids[0], login("ALPHA", f"#{i}"))
        transport.set_offline("anchor-2", False)
        producer = nodes[ids[0]]
        assert producer.chain.genesis_marker > 0
        result = nodes["anchor-2"].sync.catch_up(ids[0])
        # The peer no longer serves the blocks the stale replica would need
        # next (they were deleted), so incremental catch-up declines and
        # names both the missing range and the remedy.
        assert result.status is CatchUpStatus.SNAPSHOT_REQUIRED
        assert result.declined and result.adopted == 0
        assert "no longer served" in result.detail
        assert "bootstrap_from" in result.detail
        assert nodes["anchor-2"].chain.head.block_number < producer.chain.head.block_number


class TestSimulatorOfflineRecovery:
    def test_offline_anchor_rejoins_via_catch_up(self):
        simulator = NetworkSimulator(anchor_count=3, client_ids=["ALPHA"])
        simulator.submit_entry("ALPHA", login("ALPHA", "#0"))
        simulator.take_offline("anchor-1")
        simulator.submit_entry("ALPHA", login("ALPHA", "#1"))
        simulator.bring_online("anchor-1")
        result = simulator.anchors["anchor-1"].sync.catch_up("anchor-0")
        assert result.adopted >= 1
        assert simulator.replicas_identical()
