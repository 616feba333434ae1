#!/usr/bin/env python3
"""Replica bootstrap: a late-joining node adopts a snapshot over the wire.

A replica that rejoins after the genesis marker shifted cannot replay the
blocks it missed — they were physically deleted (that is the paper's
point).  This example shows both halves of the recovery story:

1. an isolated replica asks to catch up, is told *why* that is impossible
   (``CatchUpStatus.SNAPSHOT_REQUIRED`` names the deleted range), and
   adopts the producer's snapshot in bounded, digest-verified chunks;
2. a kernel-backed deployment where nobody scripts the recovery at all —
   periodic anti-entropy digests detect the stale replica and trigger the
   same bootstrap, over a transport that randomly loses messages.

Run with::

    python examples/replica_bootstrap.py
"""

from repro.core import Blockchain, ChainConfig
from repro.network import (
    AnchorNode,
    CatchUpStatus,
    ClientNode,
    EventKernel,
    GossipOverlay,
    GossipTopology,
    InMemoryTransport,
    LatencyModel,
    NetworkSimulator,
    spawn,
)


def login(index: int) -> dict[str, str]:
    return {"D": f"Login ALPHA #{index}", "K": "ALPHA", "S": "sig_ALPHA"}


def manual_bootstrap() -> None:
    print("Act 1 — explicit bootstrap after an isolation across a marker shift")
    print("-------------------------------------------------------------------")
    transport = InMemoryTransport()
    config = ChainConfig.paper_evaluation()
    ids = ["anchor-0", "anchor-1", "anchor-2"]
    nodes = {
        node_id: AnchorNode(
            node_id,
            Blockchain(config),
            transport,
            is_producer=(node_id == ids[0]),
            producer_id=ids[0],
        )
        for node_id in ids
    }
    for node in nodes.values():
        node.connect(ids)

    client = ClientNode("ALPHA", transport)
    client.submit_entry(ids[0], login(0))
    transport.set_offline("anchor-2")  # the replica drops off the network
    for index in range(1, 10):
        client.submit_entry(ids[0], login(index))
    transport.kernel.run()  # announcements still in flight die at the offline node
    transport.set_offline("anchor-2", False)

    producer, straggler = nodes[ids[0]], nodes["anchor-2"]
    print(f"producer head:     block {producer.chain.head.block_number}, "
          f"marker at {producer.chain.genesis_marker}")
    print(f"straggler head:    block {straggler.chain.head.block_number}")

    declined = straggler.catch_up(ids[0])
    print(f"catch-up declined: {declined.status.value}")
    print(f"  because:         {declined.detail}")
    assert declined.status is CatchUpStatus.SNAPSHOT_REQUIRED

    report = straggler.bootstrap_from(ids[0], chunk_size=1024)
    assert report.succeeded, report.reason
    print(f"bootstrap:         {report.chunks_fetched} chunks, "
          f"{report.payload_bytes} bytes, digest verified")
    assert straggler.chain.head.block_hash == producer.chain.head.block_hash
    print("converged:         straggler's head hash now matches the producer\n")


def autonomous_bootstrap() -> None:
    print("Act 2 — anti-entropy digests trigger the bootstrap on their own")
    print("----------------------------------------------------------------")
    kernel = EventKernel(seed=11)
    ids = [f"anchor-{index}" for index in range(4)]
    simulator = NetworkSimulator(
        anchor_count=4,
        config=ChainConfig.paper_evaluation(),
        latency=LatencyModel(minimum_ms=5.0, maximum_ms=20.0, seed=12),
        kernel=kernel,
        gossip=GossipOverlay(GossipTopology.fully_connected(ids), fanout=2, seed=13),
        loss_rate=0.05,  # a lossy network: chunks may need retransmission
        loss_seed=14,
    )
    simulator.add_client("ALPHA")
    simulator.enable_anti_entropy(interval_ms=100.0, until=1800.0)
    simulator.schedule_offline("anchor-3", 40.0)
    simulator.schedule_online("anchor-3", 1200.0)  # back after the marker shifted
    for index in range(20):
        kernel.schedule_at(
            25.0 + index * 40.0,
            lambda index=index: spawn(
                kernel,
                simulator.submit_entry_process(
                    "ALPHA", login(index), anchor_id=simulator.producer_id
                ),
            ),
            label=f"entry-{index}",
        )
    kernel.run_until(1800.0)
    report = simulator.finalize()

    sync = report.anti_entropy["nodes"]
    print(f"virtual time:      {report.kernel['virtual_time_ms']:.0f} ms, "
          f"{report.anti_entropy['rounds']} digest rounds")
    print(f"messages lost:     {report.transport['lost']} "
          f"(loss rate {simulator.transport.loss_rate:.0%})")
    print(f"digest pulls:      {sync['digests_behind']} "
          f"(of {sync['digests_received']} digests received)")
    print(f"bootstraps:        {sync['bootstraps']} "
          f"({sync['bootstrap_bytes']} bytes, "
          f"{sync['bootstrap_retransmits']} chunk retransmits)")
    assert sync["bootstraps"] >= 1
    assert simulator.replicas_identical()
    print("converged:         every replica ends on the same head hash")


def main() -> None:
    manual_bootstrap()
    autonomous_bootstrap()


if __name__ == "__main__":
    main()
