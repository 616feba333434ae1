"""Honest convergence time as the byzantine fraction of the quorum grows.

The paper argues (Section IV-B) that a diverging replica *"would result in a
fork in the blockchain and thus split the network"* — the summary-hash
comparison exists to detect exactly that.  This benchmark quantifies the
repair side of the argument: on an eight-anchor kernel deployment it injects
0 to 3 :class:`~repro.adversary.EquivocatingProducer` actors (adversary
fractions 0 to 0.375, staggered equivocation rounds mid-run) and measures —
in *virtual* milliseconds, so the numbers are deterministic and
machine-independent —

* how long the honest quorum needs, from the first attack instant, until a
  periodic detect-and-repair probe finds every replica byte-identical again,
* how many replica repairs (incremental catch-ups and wholesale snapshot
  adoptions) the probes perform along the way,
* how many conflicting blocks the attackers forged and placed.

Expected shape: the zero-adversary baseline converges on residual honest
gossip alone with zero forged blocks, and convergence time grows
monotonically with the adversary fraction (each extra attacker adds a
staggered equivocation round that must be detected and repaired).  The
measured trajectory is ``BENCH_adversary.json`` (see :mod:`sweep`).
"""

from __future__ import annotations

from repro.adversary import EquivocatingProducer
from repro.core import ChainConfig
from repro.network import EventKernel, LatencyModel, NetworkSimulator, spawn
from repro.network.message import reset_message_counter

import sweep

FULL = (0.0, 0.125, 0.25, 0.375)
SMOKE = (0.0, 0.125, 0.25)

ANCHORS = 8
ENTRIES = 6
ENTRY_GAP_MS = 40.0
#: First equivocation round; each further attacker staggers by ATTACK_STAGGER_MS.
ATTACK_AT_MS = 260.0
ATTACK_STAGGER_MS = 30.0
#: The detect-and-repair probe cadence: every probe runs one summary-hash
#: style divergence check and, on divergence, one repair round.
PROBE_INTERVAL_MS = 25.0
#: Probes keep watching until this horizon so a late equivocation cannot
#: re-fork the quorum after an early "converged" reading.
HORIZON_MS = ATTACK_AT_MS + 3 * ATTACK_STAGGER_MS + 200.0
SEED = 11
#: Fixed per-hop latency keeps the virtual-time numbers interpretable as
#: "hops x 10 ms".
HOP_MS = 10.0


def measure(fraction: float) -> dict[str, float]:
    reset_message_counter()
    kernel = EventKernel(seed=SEED)
    simulator = NetworkSimulator(
        anchor_count=ANCHORS,
        config=ChainConfig(sequence_length=3),
        latency=LatencyModel(minimum_ms=HOP_MS, maximum_ms=HOP_MS, seed=SEED),
        kernel=kernel,
    )
    simulator.add_client("ALPHA")

    attackers = [
        simulator.inject_adversary(EquivocatingProducer(f"byz-{index}", simulator.transport))
        for index in range(round(fraction * ANCHORS))
    ]

    def submit(index: int) -> None:
        spawn(
            kernel,
            simulator.submit_entry_process(
                "ALPHA",
                {"D": f"honest event {index}", "K": "ALPHA", "S": "sig_ALPHA"},
                anchor_id=simulator.producer_id,
            ),
        )

    for index in range(ENTRIES):
        kernel.schedule_at(30.0 + index * ENTRY_GAP_MS, lambda index=index: submit(index), label=f"entry-{index}")

    def attack(actor: EquivocatingProducer) -> None:
        victims = [peer for peer in simulator.anchor_ids if peer != simulator.producer_id]
        spawn(kernel, actor.equivocate_process(victims, head=simulator.producer.chain.head, variants=2))

    for index, actor in enumerate(attackers):
        kernel.schedule_at(
            ATTACK_AT_MS + index * ATTACK_STAGGER_MS,
            lambda actor=actor: attack(actor),
            label=f"equivocation-{index}",
        )

    state: dict[str, float | None] = {"converged_at": None, "repaired": 0.0}

    def probe() -> None:
        assert kernel.now <= HORIZON_MS + 1000.0, "repair probes failed to converge the quorum"
        if simulator.replicas_identical():
            if state["converged_at"] is None:
                state["converged_at"] = kernel.now
            if kernel.now >= HORIZON_MS:
                return
        else:
            state["converged_at"] = None  # a later attack re-forked the quorum

            def repaired(count: int) -> None:
                state["repaired"] += count
                kernel.schedule(PROBE_INTERVAL_MS, probe, label="repair-probe")

            spawn(kernel, simulator.repair_divergent_replicas_process(), repaired)
            return
        kernel.schedule(PROBE_INTERVAL_MS, probe, label="repair-probe")

    kernel.schedule_at(ATTACK_AT_MS, probe, label="repair-probe")
    kernel.run()

    assert simulator.replicas_identical(), f"quorum never converged at fraction {fraction}"
    converged_at = state["converged_at"]
    assert converged_at is not None
    return {
        "adversaries": float(len(attackers)),
        "convergence_ms": round(converged_at - ATTACK_AT_MS, 6),
        "replicas_repaired": float(state["repaired"]),
        "blocks_forged": float(sum(actor.stats.get("blocks_forged", 0) for actor in attackers)),
        "victims_accepted": float(sum(actor.stats.get("victims_accepted", 0) for actor in attackers)),
    }


SWEEP = sweep.Sweep(
    "bench_adversary", "BENCH_adversary.json", "virtual",
    config={
        "anchors": ANCHORS,
        "attack_at_ms": ATTACK_AT_MS,
        "attack_stagger_ms": ATTACK_STAGGER_MS,
        "hop_ms": HOP_MS,
        "probe_interval_ms": PROBE_INTERVAL_MS,
        "seed": SEED,
    },
    axes=(sweep.Axis("fractions", "trajectory", FULL, SMOKE, measure),),
)


def test_convergence_vs_adversary_fraction():
    trajectory = sweep.run(SWEEP).rows["trajectory"]

    # The benign baseline needs no forced repairs beyond residual catch-up
    # and forges nothing.
    assert trajectory[0.0]["blocks_forged"] == 0
    assert trajectory[0.0]["victims_accepted"] == 0

    # Every attacker forged its two conflicting variants and placed at least
    # one of them on a victim replica.
    for row in trajectory.values():
        assert row["blocks_forged"] == 2 * row["adversaries"]
        if row["adversaries"]:
            assert row["victims_accepted"] >= row["adversaries"]

    # Convergence time grows monotonically with the adversary fraction:
    # each extra attacker adds a staggered round that must be detected and
    # repaired before the quorum is byte-identical again.
    ordered = [row["convergence_ms"] for row in trajectory.values()]
    assert ordered == sorted(ordered), f"convergence time not monotone: {ordered}"
    assert ordered[-1] > ordered[0], "adversaries did not cost any convergence time"
