"""The paper's own claims, one axis each, as checked rows.

What each section claims, where the paper makes the claim and whether its row
is a measurement or a model is the table in ``docs/CLAIMS.md``
(``REPRO-DOC404`` holds the two together).  Every value is a count of blocks,
bytes, entries, messages or effort units, or a probability from a seeded
model: exact per seed, hence the ``"logical"`` clock, which a smoke run
compares value by value.  The trajectory is ``BENCH_paper.json`` (see
:mod:`sweep`).
"""

from __future__ import annotations

from repro.analysis import (
    attack_resistance_table,
    final_reduction_factor,
    growth_curve,
    measure_deletion_latency,
    peak_living_blocks,
    run_comparison,
    summary_size_profile,
)
from repro.baselines import HardForkChain, ImmutableChain, RecordRef, RedactableChain
from repro.consensus import ProofOfAuthority, ProofOfWork, ValidatorSet
from repro.core import (
    Blockchain,
    ChainConfig,
    EntryReference,
    LengthUnit,
    RetentionPolicy,
    ShrinkStrategy,
    SummaryMode,
)
from repro.core.schema import default_log_schema
from repro.crypto.hashing import GENESIS_PREVIOUS_HASH
from repro.crypto.keys import KeyPair
from repro.network import NetworkSimulator
from repro.network.message import reset_message_counter
from repro.workloads import (
    LoginAuditWorkload,
    PaperScenarioWorkload,
    SupplyChainWorkload,
    login_record,
    replay,
)

import sweep

USERS = ("ALPHA", "BRAVO", "CHARLIE")
#: (max 2 sequences + the current one) * sequence length 3 of the paper's
#: evaluation configuration; twice that bounds a delayed deletion.
PAPER_WINDOW_BLOCKS = 9
GROWTH_SEED = 1
ABLATION_SEED = 2
ATTACKER_SHARES = (0.2, 0.35, 0.45)
ATTACK_TRIALS = 500
ATTACK_SEED = 11
ERASURE_PROBABILITY = 0.35
COMPARISON_SEED = 5
SUPPLY_CHAIN_PRODUCTS = 30
SUPPLY_CHAIN_SEED = 7
#: Much shorter than the run, and never.
SHELF_LIVES = (20, 100_000)


def two_sequences(sequence_length: int, strategy: ShrinkStrategy, **settings) -> ChainConfig:
    return ChainConfig(
        sequence_length=sequence_length,
        retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
        shrink_strategy=strategy,
        **settings,
    )


# C1 — bounded versus unbounded growth


def measure_growth(num_events: int) -> dict:
    chain = Blockchain(ChainConfig.paper_evaluation())
    workload = LoginAuditWorkload(num_events=num_events, num_users=5, seed=GROWTH_SEED)
    result = replay(workload, chain, sample_every=20)
    baseline = ImmutableChain()
    for event in workload:
        baseline.append_record(event.data, event.author)

    curve = growth_curve(result.length_series, result.size_series)
    peak = peak_living_blocks(curve)
    late_peak = max(point.living_blocks for point in curve[len(curve) // 2 :])
    # The living chain is bounded by the retention policy however many events
    # were replayed, and its second half does not grow: a steady state, where
    # the baseline keeps every record.
    assert chain.length <= PAPER_WINDOW_BLOCKS
    assert late_peak <= peak <= PAPER_WINDOW_BLOCKS
    assert chain.total_blocks_created > chain.length
    assert baseline.record_count() == num_events
    return {
        "living_blocks": chain.length,
        "living_bytes": chain.byte_size(),
        "peak_living_blocks": peak,
        "blocks_created": chain.total_blocks_created,
        "baseline_blocks": baseline.record_count(),
        "baseline_bytes": baseline.storage_bytes(),
        "reduction_factor": round(final_reduction_factor(chain.byte_size(), baseline.storage_bytes()), 6),
    }


# C2 — delayed deletion, in blocks


def measure_deletion_delay(history: int) -> dict:
    """Mark the newest of ``history`` entries, then count blocks until it is gone."""
    chain = Blockchain(two_sequences(3, ShrinkStrategy.ALL_OLD))
    for index in range(history):
        block = chain.add_entry_block(login_record("ALPHA", detail=f"#{index}"), "ALPHA")
    target = EntryReference(block.block_number, 1)
    assert chain.request_deletion(target, "ALPHA").is_approved
    chain.seal_block()
    entries_until_gone = 0
    while chain.find_entry(target) is not None:
        chain.add_entry_block(login_record("BRAVO"), "BRAVO")
        entries_until_gone += 1
    (latency,) = measure_deletion_latency(chain)
    # Within two full retention windows, whatever came before the request.
    assert entries_until_gone <= 2 * PAPER_WINDOW_BLOCKS
    assert latency.blocks_waited <= 2 * PAPER_WINDOW_BLOCKS
    return {
        "entries_until_gone": entries_until_gone,
        "requested_at_block": latency.requested_at_block,
        "executed_at_block": latency.executed_at_block,
        "blocks_waited": latency.blocks_waited,
    }


# C3 — summary-block size, full copies versus hash references (Section V-B2)


def largest_merging_summary(summary_mode: SummaryMode, retained_fraction: float) -> dict:
    chain = Blockchain(two_sequences(4, ShrinkStrategy.ALL_OLD, summary_mode=summary_mode))
    for index in range(24):
        block = chain.add_entry_block(
            login_record("ALPHA", detail=f"payload-{index:04d} " + "x" * 120), "ALPHA"
        )
        # Delete a fraction of the fresh entries so less is carried forward.
        if retained_fraction < 1.0 and index % max(1, int(1 / (1 - retained_fraction))) == 0:
            chain.request_deletion(EntryReference(block.block_number, 1), "ALPHA")
            chain.seal_block()
    merging = [sample for sample in summary_size_profile(chain) if sample.merged_sequences]
    assert merging, "at least one summary block must have merged sequences"
    return {
        "largest_bytes": max(sample.byte_size for sample in merging),
        "carried_entries": max(sample.carried_entries for sample in merging),
    }


def measure_summary_size(retained_fraction: float) -> dict:
    full_copy = largest_merging_summary(SummaryMode.FULL_COPY, retained_fraction)
    reference = largest_merging_summary(SummaryMode.MERKLE_REFERENCE, retained_fraction)
    assert reference["carried_entries"] == 0
    return {
        "full_copy": full_copy,
        "merkle_reference": reference,
        "full_copy_over_reference": round(full_copy["largest_bytes"] / reference["largest_bytes"], 6),
    }


# C4 / Fig. 9 — the 51 % attack against middle-sequence redundancy


def measure_attack_resistance(chain_length: int) -> dict:
    table = attack_resistance_table(
        [chain_length], ATTACKER_SHARES, trials=ATTACK_TRIALS, seed=ATTACK_SEED
    )
    unprotected = {row["attacker_share"]: row for row in table if not row["redundancy"]}
    protected = {row["attacker_share"]: row for row in table if row["redundancy"]}
    depth = max(1, chain_length // 2)
    success = {}
    for share in ATTACKER_SHARES:
        assert unprotected[share]["blocks_to_rewrite"] == 1
        assert protected[share]["blocks_to_rewrite"] == depth
        # Redundancy never helps the attacker, and the Monte-Carlo estimate
        # tracks the analytic catch-up probability.
        simulated = protected[share]["simulated_success"]
        analytic = protected[share]["analytic_success"]
        assert simulated <= unprotected[share]["simulated_success"]
        assert abs(simulated - analytic) < 0.12
        success[str(share)] = {
            "unprotected": round(unprotected[share]["simulated_success"], 6),
            "protected": round(simulated, 6),
            "protected_analytic": round(analytic, 6),
        }
    return {"blocks_to_rewrite": {"unprotected": 1, "protected": depth}, "success": success}


# C5 — the Section III alternatives


def measure_baselines(num_records: int) -> dict:
    rows = {
        row.system: row
        for row in run_comparison(
            num_records=num_records, erasure_probability=ERASURE_PROBABILITY, seed=COMPARISON_SEED
        )
    }
    selective, immutable = rows["selective-deletion"], rows["immutable-full-chain"]
    # Who erases: not the immutable chain, pruning never globally, the rest do.
    assert immutable.erasures_effective == rows["local-pruning"].erasures_effective == 0
    for name in ("selective-deletion", "hard-fork", "chameleon-redaction", "off-chain-storage"):
        assert rows[name].erasures_effective == rows[name].erasures_requested
    # At what effort: a hard fork re-hashes the chain behind each erasure, the
    # chameleon committee pays per redaction, selective deletion one entry.
    assert rows["hard-fork"].erasure_effort > selective.erasure_effort
    assert rows["chameleon-redaction"].erasure_effort > selective.erasure_effort
    # On whose trust: only the chameleon baseline needs a trapdoor holder.
    assert rows["chameleon-redaction"].capabilities["requires_trapdoor_holder"]
    assert not selective.capabilities["requires_trapdoor_holder"]
    # And what is forgotten: the selective chain no longer serves the erased
    # records, the immutable baseline still serves all of them.
    assert selective.records_still_readable < selective.records_written
    assert immutable.records_still_readable == immutable.records_written

    fork, redactable = HardForkChain(), RedactableChain()
    references = []
    for index in range(num_records):
        record = {"D": f"r{index}", "K": "A", "S": "s"}
        fork.append_record(record, "A")
        references.append(redactable.append_record(record, "A"))
    for reference in references:
        redactable.request_erasure(reference, "A")
    # Redacting everything leaves every block in place, and verifiable.
    assert redactable.record_count() == 0 and redactable.block_count == num_records
    assert redactable.verify()
    return {
        "systems": {
            name: {
                "records": row.records_written,
                "erasures": row.erasures_requested,
                "effective": row.erasures_effective,
                "readable": row.records_still_readable,
                "storage_bytes": row.storage_bytes,
                "effort": round(row.erasure_effort, 6),
            }
            for name, row in rows.items()
        },
        "hard_fork_effort_to_erase_the_oldest": fork.request_erasure(RecordRef(index=0), "A").effort_units,
        "chameleon_blocks_after_redacting_all": redactable.block_count,
        "chameleon_effort_to_redact_all": redactable.total_effort,
    }


# C6 — anchors compute identical summaries; a diverging one is a detected fork


def measure_node_sync(anchor_count: int) -> dict:
    reset_message_counter()
    simulator = NetworkSimulator(anchor_count=anchor_count, client_ids=list(USERS))
    logins = [(user, f"Login {user}") for user in USERS] * 4
    report = simulator.run_login_scenario(logins, sync_every=1)
    assert report.divergences_detected == 0
    assert simulator.replicas_identical()
    assert report.blocks_produced == len(logins)
    row = {
        "blocks_produced": report.blocks_produced,
        "sync_checks": report.sync_checks,
        "messages_delivered": report.transport["delivered"],
        "bytes_transferred": report.transport["bytes_transferred"],
    }

    corrupted = f"anchor-{anchor_count - 1}"
    simulator.corrupt_replica(corrupted)
    for _ in range(2):
        simulator.submit_entry("ALPHA", login_record("ALPHA"))
    check = simulator.sync_check()
    # The very next check flags the corrupted node and nobody else.
    assert check.diverged_peers == [corrupted]
    assert all(check.peer_results[f"anchor-{index}"] for index in range(1, anchor_count - 1))
    assert simulator.report.divergences_detected >= 1
    return {**row, "diverged_peers_after_corrupting_one": len(check.diverged_peers)}


# C7 — temporary entries expire on their own (Section IV-D4)


def measure_temporary_entries(shelf_life: int) -> dict:
    config = ChainConfig(
        sequence_length=4,
        retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=3),
        shrink_strategy=ShrinkStrategy.TO_LIMIT,
    )
    chain = Blockchain(config)
    workload = SupplyChainWorkload(
        num_products=SUPPLY_CHAIN_PRODUCTS, shelf_life_ticks=shelf_life, seed=SUPPLY_CHAIN_SEED
    )
    written = replay(workload, chain).entries
    living = sum(
        1 for _, entry in chain.iter_entries() if entry.data.get("product") and not entry.is_deletion_request
    )
    # No deletion request is ever submitted: whatever went, expired.
    assert chain.registry.approved_count == 0

    # Side by side: entries bounded by block number alpha next to durable ones.
    mixed = Blockchain(config)
    temporary, durable = [], []
    for index in range(30):
        for label, numbers, bound in (("ephemeral", temporary, shelf_life), ("durable", durable, None)):
            block = mixed.add_entry_block(
                {"D": f"{label} {index}", "K": "SENSOR", "S": "sig_SENSOR"}, "SENSOR", expires_at_block=bound
            )
            numbers.append(block.block_number)
    gone = [
        sum(1 for number in numbers if mixed.find_entry(EntryReference(number, 1)) is None)
        for numbers in (temporary, durable)
    ]
    assert gone[1] == 0
    if shelf_life == SHELF_LIVES[0]:
        # The chain forgot a large share of both by itself ...
        assert chain.deleted_entry_count > written * 0.3
        assert gone[0] > 15
    else:
        # ... and nothing expires that was not asked to.
        assert living >= written * 0.9
        assert gone[0] == 0
    return {
        "stage_entries_written": written,
        "stage_entries_living": living,
        "dropped_at_summarisation": chain.deleted_entry_count,
        "temporary_of_30_forgotten": gone[0],
        "durable_of_30_lost": gone[1],
    }


# Ablations — the design choices the paper leaves open


def replay_ablation_logins(config: ChainConfig) -> Blockchain:
    chain = Blockchain(config)
    replay(LoginAuditWorkload(num_events=120, num_users=4, seed=ABLATION_SEED), chain)
    chain.validate()
    return chain


def measure_shrink_strategy(strategy: str) -> dict:
    chain = replay_ablation_logins(two_sequences(3, ShrinkStrategy(strategy)))
    assert chain.length <= 12
    return {
        "living_blocks": chain.length,
        "deleted_blocks": chain.deleted_block_count,
        "living_bytes": chain.byte_size(),
    }


RETENTIONS = {
    "blocks": RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=9),
    "sequences": RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
    "time": RetentionPolicy(unit=LengthUnit.TIME, max_length=12),
}


def measure_retention_unit(unit: str) -> dict:
    chain = replay_ablation_logins(
        ChainConfig(sequence_length=3, retention=RETENTIONS[unit], shrink_strategy=ShrinkStrategy.TO_LIMIT)
    )
    assert chain.deleted_block_count > 0, "every retention unit must trigger shrinking"
    assert chain.length < chain.total_blocks_created
    return {
        "living_blocks": chain.length,
        "blocks_created": chain.total_blocks_created,
        "deleted_blocks": chain.deleted_block_count,
    }


def paper_scenario(figure: int, **settings) -> Blockchain:
    """The evaluation's trace up to Fig. 6 or Fig. 7."""
    chain = Blockchain(ChainConfig.paper_evaluation(), **settings)
    for user in USERS:  # blocks 1, 3 and 4
        chain.add_entry_block(login_record(user), user)
    if figure == 7:
        chain.request_deletion(EntryReference(3, 1), "BRAVO")
        chain.seal_block()  # block 6
        chain.add_entry_block(login_record("ALPHA", detail="(cycle 1)"), "ALPHA")  # 7, then summary 8
    return chain


def measure_consensus_engine(engine: str) -> dict:
    finalizer = None
    if engine == "poa":
        key = KeyPair.from_seed("anchor-0")
        validators = ValidatorSet.from_key_pairs({"anchor-0": key})
        finalizer = ProofOfAuthority(validators, "anchor-0", key).prepare_block
    elif engine == "pow":
        finalizer = ProofOfWork(difficulty_bits=8).prepare_block
    chain = paper_scenario(7, block_finalizer=finalizer)
    # Section V-B3: the deletion outcome does not depend on the engine.
    assert chain.genesis_marker == 6
    assert chain.find_entry(EntryReference(3, 1)) is None
    assert chain.find_entry(EntryReference(1, 1)) is not None
    return {"genesis_marker": chain.genesis_marker, "living_blocks": chain.length}


# Figs. 6-8 — the evaluation's three console dumps


def measure_figure(figure: int) -> dict:
    if figure == 8:
        chain = Blockchain(ChainConfig.paper_evaluation(), schema=default_log_schema())
        replay(PaperScenarioWorkload(extra_cycles=2), chain)
    else:
        chain = paper_scenario(figure, schema=default_log_schema())
    chain.validate(verify_signatures=True)
    if figure == 6:
        assert chain.blocks[0].block_number == 0
        assert chain.blocks[0].previous_hash == GENESIS_PREVIOUS_HASH
        assert [chain.block_by_number(number).entries[0].author for number in (1, 3, 4)] == list(USERS)
        for number in (2, 5):
            assert chain.block_by_number(number).is_summary
            assert chain.block_by_number(number).entry_count == 0
        assert chain.genesis_marker == chain.deleted_block_count == 0
    else:
        assert chain.find_entry(EntryReference(3, 1)) is None
        assert chain.find_entry(EntryReference(1, 1)) is not None
        assert chain.find_entry(EntryReference(4, 1)) is not None
    if figure == 7:
        assert chain.registry.approved_count == 1
        assert chain.genesis_marker == chain.deleted_block_count == 6
        summary = chain.block_by_number(8)
        assert summary.is_summary and summary.merged_sequences == [0, 1]
        assert summary.find_copy_of(3, 1) is None
        assert summary.find_copy_of(1, 1) is not None and summary.find_copy_of(4, 1) is not None
    if figure == 8:
        assert chain.genesis_marker >= 12
        assert chain.registry.executed_count == 1
        # Deletion entries are never copied into summaries.
        assert all(not entry.is_deletion_request for _, entry in chain.iter_entries())
    return {
        "genesis_marker": chain.genesis_marker,
        "living_blocks": chain.length,
        "deleted_blocks": chain.deleted_block_count,
        "deletions_approved": chain.registry.approved_count,
        "deletions_executed": chain.registry.executed_count,
    }


SWEEP = sweep.Sweep(
    "bench_paper", "BENCH_paper.json", "logical",
    config={
        "growth_seed": GROWTH_SEED,
        "ablation_seed": ABLATION_SEED,
        "attacker_shares": list(ATTACKER_SHARES),
        "attack_trials": ATTACK_TRIALS,
        "attack_seed": ATTACK_SEED,
        "erasure_probability": ERASURE_PROBABILITY,
        "comparison_seed": COMPARISON_SEED,
        "supply_chain_products": SUPPLY_CHAIN_PRODUCTS,
        "supply_chain_seed": SUPPLY_CHAIN_SEED,
    },
    axes=(
        sweep.Axis("growth_events", "growth", (100, 400), (100,), measure_growth),
        sweep.Axis("deletion_histories", "deletion_latency", (1, 30, 120, 480), (1, 30), measure_deletion_delay),
        sweep.Axis("retained_fractions", "summary_size", (1.0, 0.5, 0.1), (1.0, 0.5), measure_summary_size),
        sweep.Axis("chain_lengths", "attack_resistance", (10, 50, 200), (10, 50), measure_attack_resistance),
        sweep.Axis("record_counts", "baselines", (50, 80, 200), (50,), measure_baselines),
        sweep.Axis("anchor_counts", "node_sync", (3, 7), (3,), measure_node_sync),
        sweep.Axis("shelf_lives", "temporary_entries", SHELF_LIVES, SHELF_LIVES[:1], measure_temporary_entries),
        sweep.Axis(
            "shrink_strategies", "ablation_shrink_strategy",
            ("single_sequence", "to_limit", "all_old"), ("single_sequence",), measure_shrink_strategy,
        ),
        sweep.Axis(
            "retention_units", "ablation_retention_unit",
            ("blocks", "sequences", "time"), ("blocks",), measure_retention_unit,
        ),
        sweep.Axis(
            "consensus_engines", "ablation_consensus", ("null", "poa", "pow"), ("null", "poa"),
            measure_consensus_engine,
        ),
        sweep.Axis("figure_numbers", "figures", (6, 7, 8), (6, 7), measure_figure),
    ),
)


def test_paper_claims():
    run = sweep.run(SWEEP)
    rows = run.rows

    # The paper's mitigation: with everything retained, hash references keep
    # the summary block smaller than full copies do.
    assert rows["summary_size"][1.0]["full_copy_over_reference"] > 1

    if not run.full:
        return  # what follows compares the ends of an axis
    # Retaining less data produces smaller full-copy summaries.
    summaries = rows["summary_size"]
    assert summaries[0.1]["full_copy"]["largest_bytes"] < summaries[1.0]["full_copy"]["largest_bytes"]
    # Fig. 9: with the redundancy in place a longer chain is harder to attack.
    for share in map(str, ATTACKER_SHARES):
        longest, shortest = (rows["attack_resistance"][length]["success"][share] for length in (200, 10))
        assert longest["protected"] <= shortest["protected"] + 0.05
    # A hard fork's effort is roughly linear in the chain behind the erasure.
    effort = {count: row["hard_fork_effort_to_erase_the_oldest"] for count, row in rows["baselines"].items()}
    assert effort[200] > effort[50] * 3
    # ALL_OLD keeps the smallest living chain, SINGLE_SEQUENCE the largest.
    living = {name: row["living_blocks"] for name, row in rows["ablation_shrink_strategy"].items()}
    assert living["all_old"] <= living["to_limit"] <= living["single_sequence"] + 3
