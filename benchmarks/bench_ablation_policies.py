"""Ablations of the design choices the paper leaves open.

Three sweeps:

* **Shrink strategy** (Eq. 1 applied once, repeatedly, or to all old
  sequences) — affects how tightly the living chain is bounded and how long a
  marked entry lingers before physical deletion.
* **Retention unit** (blocks vs. sequences vs. covered time span,
  Section IV-D3) — all three must bound the chain, only the bound differs.
* **Consensus engine** (null vs. proof-of-authority vs. light proof-of-work)
  — the summarisation/deletion layer is consensus-agnostic (Section V-B3), so
  the scenario's outcome must be identical and only the block-production cost
  may change.
"""

import pytest

from repro.consensus import ProofOfAuthority, ProofOfWork, ValidatorSet
from repro.core import (
    Blockchain,
    ChainConfig,
    EntryReference,
    LengthUnit,
    RetentionPolicy,
    ShrinkStrategy,
)
from repro.crypto.keys import KeyPair
from repro.workloads import LoginAuditWorkload, replay

from conftest import login


# --------------------------------------------------------------------------- #
# Shrink strategies
# --------------------------------------------------------------------------- #

STRATEGIES = [ShrinkStrategy.SINGLE_SEQUENCE, ShrinkStrategy.TO_LIMIT, ShrinkStrategy.ALL_OLD]


def build_strategy_config(strategy: ShrinkStrategy) -> ChainConfig:
    return ChainConfig(
        sequence_length=3,
        retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
        shrink_strategy=strategy,
    )


@pytest.mark.parametrize("strategy", STRATEGIES, ids=[s.value for s in STRATEGIES])
def test_shrink_strategy_ablation(benchmark, strategy):
    def run():
        chain = Blockchain(build_strategy_config(strategy))
        replay(LoginAuditWorkload(num_events=120, num_users=4, seed=2), chain)
        return chain

    chain = benchmark.pedantic(run, rounds=3, iterations=1)
    # Every strategy must keep the chain bounded and valid; ALL_OLD keeps the
    # smallest living chain, SINGLE_SEQUENCE the largest.
    assert chain.length <= 12
    chain.validate()
    print()
    print(
        f"strategy={strategy.value}: living blocks={chain.length}, "
        f"deleted blocks={chain.deleted_block_count}, byte size={chain.byte_size()}"
    )


def test_shrink_strategy_ordering(benchmark):
    def sweep():
        results = {}
        for strategy in STRATEGIES:
            chain = Blockchain(build_strategy_config(strategy))
            replay(LoginAuditWorkload(num_events=120, num_users=4, seed=2), chain)
            results[strategy] = chain.length
        return results

    lengths = benchmark.pedantic(sweep, rounds=1, iterations=1)
    assert lengths[ShrinkStrategy.ALL_OLD] <= lengths[ShrinkStrategy.TO_LIMIT]
    assert lengths[ShrinkStrategy.TO_LIMIT] <= lengths[ShrinkStrategy.SINGLE_SEQUENCE] + 3
    print()
    for strategy, length in lengths.items():
        print(f"{strategy.value}: steady-state living blocks = {length}")


# --------------------------------------------------------------------------- #
# Retention units
# --------------------------------------------------------------------------- #

RETENTIONS = {
    "blocks": RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=9),
    "sequences": RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
    "time": RetentionPolicy(unit=LengthUnit.TIME, max_length=12),
}


@pytest.mark.parametrize("unit", sorted(RETENTIONS), ids=sorted(RETENTIONS))
def test_retention_unit_ablation(benchmark, unit):
    def run():
        config = ChainConfig(
            sequence_length=3,
            retention=RETENTIONS[unit],
            shrink_strategy=ShrinkStrategy.TO_LIMIT,
        )
        chain = Blockchain(config)
        replay(LoginAuditWorkload(num_events=120, num_users=4, seed=2), chain)
        return chain

    chain = benchmark.pedantic(run, rounds=3, iterations=1)
    assert chain.deleted_block_count > 0, "every retention unit must trigger shrinking"
    assert chain.length < chain.total_blocks_created
    chain.validate()
    print()
    print(
        f"retention unit={unit}: living blocks={chain.length}, "
        f"created={chain.total_blocks_created}, deleted={chain.deleted_block_count}"
    )


# --------------------------------------------------------------------------- #
# Consensus engines (Section V-B3: the layer is consensus-agnostic)
# --------------------------------------------------------------------------- #

def scenario_with_finalizer(finalizer):
    chain = Blockchain(ChainConfig.paper_evaluation(), block_finalizer=finalizer)
    for user in ("ALPHA", "BRAVO", "CHARLIE"):
        chain.add_entry_block(login(user), user)
    chain.request_deletion(EntryReference(3, 1), "BRAVO")
    chain.seal_block()
    chain.add_entry_block(login("ALPHA"), "ALPHA")
    return chain


ENGINES = ["null", "poa", "pow"]


def make_finalizer(name):
    if name == "null":
        return None
    if name == "poa":
        keys = {"anchor-0": KeyPair.from_seed("anchor-0")}
        engine = ProofOfAuthority(ValidatorSet.from_key_pairs(keys), "anchor-0", keys["anchor-0"])
        return engine.prepare_block
    engine = ProofOfWork(difficulty_bits=8)
    return engine.prepare_block


@pytest.mark.parametrize("engine_name", ENGINES)
def test_consensus_agnostic_deletion(benchmark, engine_name):
    chain = benchmark.pedantic(
        scenario_with_finalizer, args=(make_finalizer(engine_name),), rounds=3, iterations=1
    )
    # The deletion outcome is identical regardless of the consensus engine.
    assert chain.genesis_marker == 6
    assert chain.find_entry(EntryReference(3, 1)) is None
    assert chain.find_entry(EntryReference(1, 1)) is not None
    print()
    print(f"engine={engine_name}: marker={chain.genesis_marker}, living blocks={chain.length}")
