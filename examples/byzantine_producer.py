#!/usr/bin/env python3
"""Byzantine producer: equivocation, fork detection, and quorum repair.

The paper warns that a diverging replica "would result in a fork in the
blockchain and thus split the network" (Section IV-B) — the summary-hash
comparison exists to detect exactly that.  This example manufactures the
feared fork on purpose and walks the defence end to end:

1. an :class:`~repro.adversary.EquivocatingProducer` crafts two conflicting
   blocks on the honest head and feeds a different variant to each replica,
   splitting the quorum;
2. the producer's summary-hash round names the forked peers, and
   ``repair_divergent_replicas`` converges them by snapshot adoption;
3. the 51%-attack model from :mod:`repro.analysis.attack` puts numbers on
   the same situation: at this chain length, summarised history *without*
   block redundancy is rewritable by a 35% attacker, while the paper's
   middle-merkle-root redundancy keeps it protected.

Run with::

    python examples/byzantine_producer.py
"""

from repro.adversary import EquivocatingProducer
from repro.analysis.attack import analytic_success_probability, confirmation_depth
from repro.core import ChainConfig
from repro.core.config import RedundancyPolicy
from repro.network import NetworkSimulator


def record(index: int) -> dict[str, str]:
    return {"D": f"Honest record #{index}", "K": "ALPHA", "S": "sig_ALPHA"}


def fork_and_repair(simulator: NetworkSimulator) -> None:
    print("Act 1 — the equivocator splits the quorum")
    print("------------------------------------------")
    for index in range(6):
        simulator.submit_entry("ALPHA", record(index))
    simulator.kernel.run()  # announcements are one-way: let them land
    assert simulator.replicas_identical()
    print(f"honest traffic:    head block {simulator.producer.chain.head.block_number}, "
          "all replicas identical")

    byzantine = simulator.inject_adversary(
        EquivocatingProducer("byzantine-0", simulator.transport)
    )
    victims = [peer for peer in simulator.anchor_ids if peer != simulator.producer_id]
    forged = byzantine.equivocate(victims, head=simulator.producer.chain.head, variants=2)
    assert forged[0].block_hash != forged[1].block_hash
    assert forged[0].block_number == forged[1].block_number
    print(f"equivocation:      {len(forged)} conflicting blocks at height "
          f"{forged[0].block_number}, fed to {len(victims)} victims")
    assert not simulator.replicas_identical()
    print(f"the fork is real:  victims accepted "
          f"{byzantine.stats['victims_accepted']} forged variants\n")

    print("Act 2 — detection and repair")
    print("-----------------------------")
    # The next honest block no longer links on the forked replicas — that
    # is the moment the summary-hash comparison can see the split.
    simulator.submit_entry("ALPHA", record(6))
    simulator.kernel.run()
    sync = simulator.sync_check()
    assert sync.diverged_peers, "the summary-hash round must name the forked peers"
    print(f"summary check:     diverged peers {sync.diverged_peers}")
    repaired = simulator.repair_divergent_replicas()
    assert repaired == len(sync.diverged_peers)
    assert simulator.replicas_identical()
    print(f"repair:            {repaired} replicas re-adopted the honest snapshot")
    report = simulator.finalize()
    print(f"report:            forks_repaired={report.adversary['defense']['forks_repaired']}, "
          f"actor counters {report.adversary['actors']['byzantine-0']}\n")


def attack_model(simulator: NetworkSimulator) -> None:
    print("Act 3 — what the 51%-attack model says about this chain")
    print("--------------------------------------------------------")
    chain_length = simulator.producer.chain.head.block_number
    share = 0.35
    for policy in (RedundancyPolicy.NONE, RedundancyPolicy.MIDDLE_MERKLE_ROOT):
        profile = confirmation_depth(chain_length, policy)
        probability = analytic_success_probability(share, profile.blocks_to_rewrite)
        verdict = "rewritable" if probability >= 0.5 else "protected"
        print(f"{policy.value:>22}: rewrite {profile.blocks_to_rewrite} block(s), "
              f"success probability {probability:.3f} -> {verdict}")
        if policy is RedundancyPolicy.NONE:
            assert probability >= 0.5
        else:
            assert probability < 0.5
    print("\nthe paper's middle-merkle-root redundancy is what keeps summarised")
    print("history safe from the attacker the equivocator just impersonated")


def main() -> None:
    simulator = NetworkSimulator(anchor_count=4, config=ChainConfig(sequence_length=3))
    simulator.add_client("ALPHA")
    fork_and_repair(simulator)
    attack_model(simulator)


if __name__ == "__main__":
    main()
