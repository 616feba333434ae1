"""Scaling shape of block dissemination — gossip vs. broadcast at size.

The paper's deployment (Section V) was three anchor nodes; the interesting
scaling question is what happens to block dissemination as the quorum grows.
This benchmark builds kernel-backed deployments of increasing anchor counts
and, for each size, seals a handful of blocks and measures — in *virtual*
milliseconds, so the numbers are deterministic and machine-independent —

* how long one sealed block takes to reach every replica,
* how many announcement messages the producer itself sends (its egress),
* total delivered messages and bytes on the wire,

once with full broadcast (the producer posts to every peer directly) and
once with gossip over a random-regular overlay (each node floods its ≤
``DEGREE`` neighbours).  Expected shape: the producer's egress per block
grows linearly with the quorum under broadcast but stays flat under gossip;
in exchange, gossip pays the overlay's hop count in dissemination time,
while a one-way broadcast reaches every peer in one hop at any size.  The
measured trajectory is ``BENCH_net.json`` (see :mod:`sweep`).
"""

from __future__ import annotations

from repro.core import ChainConfig
from repro.network import (
    EventKernel,
    GossipOverlay,
    GossipTopology,
    LatencyModel,
    MessageKind,
    NetworkSimulator,
)
from repro.network.message import reset_message_counter

import sweep

FULL = (4, 8, 16, 32)
SMOKE = (4, 8)

BLOCKS_PER_RUN = 3
#: Overlay degree: every node floods all its neighbours (fanout == degree),
#: so dissemination is a deterministic flood over a sparse graph.
DEGREE = 4
SEED = 7
#: Fixed per-hop latency keeps the virtual-time numbers interpretable as
#: "hops x 10 ms".
HOP_MS = 10.0


def build_deployment(anchors: int, *, gossip: bool) -> NetworkSimulator:
    kernel = EventKernel(seed=SEED)
    overlay = None
    if gossip:
        ids = [f"anchor-{index}" for index in range(anchors)]
        topology = GossipTopology.random_regular(ids, degree=DEGREE, seed=SEED)
        overlay = GossipOverlay(topology, fanout=DEGREE * 2, seed=SEED)
    simulator = NetworkSimulator(
        anchor_count=anchors,
        config=ChainConfig(sequence_length=3),
        latency=LatencyModel(minimum_ms=HOP_MS, maximum_ms=HOP_MS, seed=SEED),
        kernel=kernel,
        gossip=overlay,
    )
    simulator.add_client("ALPHA")
    return simulator


def measure_mode(anchors: int, *, gossip: bool) -> dict[str, float]:
    reset_message_counter()
    simulator = build_deployment(anchors, gossip=gossip)
    kernel = simulator.kernel
    per_block_ms: list[float] = []
    for index in range(BLOCKS_PER_RUN):
        start = kernel.now
        simulator.submit_entry(
            "ALPHA",
            {"D": f"event {index}", "K": "ALPHA", "S": "sig_ALPHA"},
            anchor_id=simulator.producer_id,
        )
        kernel.run()  # drain every hop of this block's dissemination
        per_block_ms.append(kernel.now - start)
        assert simulator.replicas_identical(), (
            f"dissemination did not converge at {anchors} anchors "
            f"({'gossip' if gossip else 'broadcast'})"
        )
    producer_announcements = sum(
        1
        for message in simulator.transport.message_log
        if message.sender == simulator.producer_id
        and message.kind is MessageKind.BLOCK_ANNOUNCE
    )
    stats = simulator.transport.statistics
    return {
        "dissemination_ms_per_block": round(sum(per_block_ms) / len(per_block_ms), 6),
        "producer_announcements_per_block": producer_announcements / BLOCKS_PER_RUN,
        "delivered_messages": float(stats.delivered),
        "bytes_transferred": float(stats.bytes_transferred),
    }


def measure(anchors: int) -> dict[str, dict[str, float]]:
    return {
        "gossip": measure_mode(anchors, gossip=True),
        "broadcast": measure_mode(anchors, gossip=False),
    }


SWEEP = sweep.Sweep(
    "bench_net_scaling", "BENCH_net.json", "virtual",
    config={
        "blocks_per_run": BLOCKS_PER_RUN,
        "overlay_degree": DEGREE,
        "hop_ms": HOP_MS,
        "seed": SEED,
    },
    axes=(sweep.Axis("sizes", "trajectory", FULL, SMOKE, measure),),
)


def test_net_scaling_gossip_vs_broadcast():
    run = sweep.run(SWEEP)
    trajectory = run.rows["trajectory"]
    sizes = list(trajectory)

    for size in sizes:
        # Broadcast egress is structural: the producer contacts every peer.
        assert trajectory[size]["broadcast"]["producer_announcements_per_block"] == size - 1
        # Gossip bounds the producer's egress by the overlay degree, no
        # matter how large the quorum grows.
        assert trajectory[size]["gossip"]["producer_announcements_per_block"] <= 2 * DEGREE

    if not run.full:
        return  # the scaling shape needs the whole size spread
    smallest, largest = sizes[0], sizes[-1]

    # Dissemination time: the one-way broadcast is one hop at every size;
    # gossip trades hops for the producer's bounded egress.
    broadcast_ms = {trajectory[size]["broadcast"]["dissemination_ms_per_block"] for size in sizes}
    assert len(broadcast_ms) == 1, f"broadcast dissemination varies with size: {broadcast_ms}"
    for size in sizes:
        assert (
            trajectory[size]["gossip"]["dissemination_ms_per_block"]
            >= trajectory[size]["broadcast"]["dissemination_ms_per_block"]
        )
    assert (
        trajectory[largest]["gossip"]["dissemination_ms_per_block"]
        > trajectory[smallest]["gossip"]["dissemination_ms_per_block"]
    ), "gossip dissemination should grow with the overlay's diameter"
