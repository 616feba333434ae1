"""Cost shape of replica synchronisation — bootstrap vs. replay, rounds vs. fan-out.

Two questions decide whether the sync subsystem scales:

1. **Bootstrap cost vs. chain age.**  A replica that rejoins behind a
   genesis-marker shift adopts a wire snapshot.  Because retention bounds
   the living chain (and the wire format carries only a bounded audit
   tail), the bytes on the wire must stay *flat* no matter how old the
   chain is — while the alternative, replaying every block ever created
   from genesis, grows *linearly* with age.  This is the paper's
   data-reduction claim applied to replica recovery: the summarizing chain
   keeps bootstrap cost proportional to the living state, not to history.
2. **Anti-entropy convergence vs. fan-out.**  Stale replicas converge when
   digest beacons reach them; per round, each node posts to ``fanout``
   overlay neighbours.  More fan-out means more beacons per round, so the
   rounds-to-convergence must not grow as fan-out rises (and should fall
   across the sweep's spread).

Both measurements are deterministic (virtual time, seeded randomness); the
trajectory is ``BENCH_sync.json`` (see :mod:`sweep`).
"""

from __future__ import annotations

from repro.core import Blockchain, ChainConfig
from repro.network import (
    AnchorNode,
    CatchUpStatus,
    EventKernel,
    GossipOverlay,
    GossipTopology,
    InMemoryTransport,
    LatencyModel,
    NetworkSimulator,
)
from repro.network.message import reset_message_counter
from repro.workloads import login_record

import sweep

FULL_AGES = (40, 80, 160, 320)
SMOKE_AGES = (40, 80)
FULL_FANOUTS = (1, 2, 4)
SMOKE_FANOUTS = (1, 2)

SEED = 7
ANCHORS = 9
OVERLAY_DEGREE = 4
STRAGGLERS = 3
ROUND_MS = 50.0
MAX_ROUNDS = 80


# --------------------------------------------------------------------- #
# Part 1: bootstrap bytes vs. chain age
# --------------------------------------------------------------------- #


#: Entries live this many blocks before summarisation drops them.  The
#: paper's reduction claim needs temporary data: permanent entries are
#: carried forward into every summary block forever, so only an expiring
#: workload bounds the *living state* (and with it the snapshot) while the
#: chain keeps aging.
ENTRY_TTL_BLOCKS = 12


def age_chain(config: ChainConfig, events: int) -> Blockchain:
    chain = Blockchain(config)
    for index in range(events):
        chain.add_entry_block(
            login_record("ALPHA", detail=f"#{index}"),
            "ALPHA",
            expires_at_block=chain.head.block_number + ENTRY_TTL_BLOCKS,
        )
    return chain


def measure_bootstrap(age: int) -> dict[str, float]:
    """Wire bytes to converge a fresh replica on a chain of ``age`` events."""
    reset_message_counter()
    # The producer aged its summarizing chain away from the network; the
    # joiner holds nothing but a genesis block.
    producer_chain = age_chain(ChainConfig.paper_evaluation(), age)
    transport = InMemoryTransport()
    producer = AnchorNode("producer", producer_chain, transport, is_producer=True)
    joiner = AnchorNode(
        "joiner",
        Blockchain(ChainConfig.paper_evaluation()),
        transport,
        producer_id="producer",
    )
    producer.connect(["producer", "joiner"])
    joiner.connect(["producer", "joiner"])
    result = joiner.synchronize("producer")
    assert result.status is CatchUpStatus.BOOTSTRAPPED, result
    assert joiner.chain.head.block_hash == producer_chain.head.block_hash
    snapshot_wire_bytes = transport.statistics.bytes_transferred

    # The counterfactual: a chain that never summarised serves the same
    # workload's history; replaying it from genesis moves every block ever
    # created over the wire.  byte_size() is exactly that payload.
    replay_bytes = age_chain(ChainConfig(sequence_length=3), age).byte_size()
    return {
        "living_blocks": float(producer_chain.length),
        "total_blocks_created": float(producer_chain.total_blocks_created),
        "snapshot_wire_bytes": float(snapshot_wire_bytes),
        "replay_bytes": float(replay_bytes),
    }


# --------------------------------------------------------------------- #
# Part 2: anti-entropy rounds vs. fan-out
# --------------------------------------------------------------------- #


def measure_convergence_rounds(fanout: int) -> dict[str, float]:
    """Digest rounds until ``STRAGGLERS`` rejoined replicas converge."""
    reset_message_counter()
    kernel = EventKernel(seed=SEED)
    ids = [f"anchor-{index}" for index in range(ANCHORS)]
    simulator = NetworkSimulator(
        anchor_count=ANCHORS,
        config=ChainConfig(sequence_length=3),
        latency=LatencyModel(minimum_ms=5.0, maximum_ms=5.0, seed=SEED),
        kernel=kernel,
        gossip=GossipOverlay(
            GossipTopology.random_regular(ids, degree=OVERLAY_DEGREE, seed=SEED),
            fanout=fanout,
            seed=SEED,
        ),
    )
    simulator.add_client("ALPHA")
    stragglers = ids[-STRAGGLERS:]
    for node_id in stragglers:
        simulator.take_offline(node_id)
    for index in range(10):
        simulator.submit_entry("ALPHA", login_record("ALPHA", detail=f"#{index}"), anchor_id=simulator.producer_id)
    kernel.run()  # drain the live gossip among the online replicas
    for node_id in stragglers:
        simulator.bring_online(node_id)
    # Recovery is left entirely to the digest rounds.
    service = simulator.enable_anti_entropy(interval_ms=ROUND_MS)
    while service.converged_at_round is None and service.rounds < MAX_ROUNDS:
        kernel.run_until(kernel.now + ROUND_MS)
    service.stop()
    kernel.run()
    assert service.converged_at_round is not None, (
        f"anti-entropy did not converge within {MAX_ROUNDS} rounds at fanout {fanout}"
    )
    # converged_at_round is the first round that *started* converged, so the
    # pulls happened during the rounds before it.
    return {
        "rounds_to_convergence": float(service.converged_at_round - 1),
        "digests_posted": float(service.digests_posted),
        "catch_ups": float(service.statistics()["nodes"]["catch_ups"]),
    }


# --------------------------------------------------------------------- #
# The benchmark
# --------------------------------------------------------------------- #


SWEEP = sweep.Sweep(
    "bench_sync", "BENCH_sync.json", "virtual",
    config={
        "seed": SEED,
        "anchors": ANCHORS,
        "overlay_degree": OVERLAY_DEGREE,
        "stragglers": STRAGGLERS,
        "round_ms": ROUND_MS,
    },
    axes=(
        sweep.Axis("ages", "bootstrap", FULL_AGES, SMOKE_AGES, measure_bootstrap),
        sweep.Axis("fanouts", "convergence", FULL_FANOUTS, SMOKE_FANOUTS, measure_convergence_rounds),
    ),
)


def test_sync_scaling_bootstrap_flat_replay_linear():
    run = sweep.run(SWEEP)
    bootstrap, convergence = run.rows["bootstrap"], run.rows["convergence"]

    # More beacons per round must never slow convergence down.
    rounds = [row["rounds_to_convergence"] for row in convergence.values()]
    assert rounds[-1] <= rounds[0]

    if not run.full:
        return  # flat vs. linear needs the whole age spread
    smallest, largest = FULL_AGES[0], FULL_AGES[-1]
    # Retention bounds the living chain, so the snapshot on the wire must
    # stay flat across the age spread ...
    snapshot_growth = (
        bootstrap[largest]["snapshot_wire_bytes"] / bootstrap[smallest]["snapshot_wire_bytes"]
    )
    assert snapshot_growth < 3.0, (
        f"snapshot bootstrap grew {snapshot_growth:.2f}x across a "
        f"{largest // smallest}x age spread — not flat"
    )
    # ... while full-history replay tracks the age almost proportionally.
    replay_growth = bootstrap[largest]["replay_bytes"] / bootstrap[smallest]["replay_bytes"]
    spread = largest / smallest
    assert replay_growth > spread / 2, (
        f"replay bytes grew only {replay_growth:.2f}x across a "
        f"{spread:.0f}x age spread — expected ~linear"
    )
    assert replay_growth > snapshot_growth
