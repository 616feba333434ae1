"""Shape of the workload scenarios across arrival rates.

The paper's evaluation drives application workloads against the chain and
argues two properties survive any traffic pattern: the living chain stays
*bounded* (claim C1) while deletion latency is bounded *in blocks* — which
means the latency expressed in wall-clock (here: virtual) time scales with
how fast blocks are produced, i.e. with the workload's arrival rate.

This benchmark sweeps the ``gdpr-erasure`` scenario's ``mean_gap_ms`` — the
arrival-rate knob of the traffic engine
(:class:`repro.workloads.fleet.FleetDriver`) — and records, per rate,

* the virtual-millisecond deletion latency histogram (request → physical
  cut-off at a marker shift),
* the final chain statistics (living blocks vs. total blocks created).

Expected shape: mean deletion latency grows with the arrival gap (roughly
linearly — the block-count bound is constant, each block just takes longer
to arrive), while the living chain size stays flat across the whole sweep.
The measured trajectory is ``BENCH_workloads.json`` (see :mod:`sweep`).
"""

from __future__ import annotations

from repro.network.scenarios import run_scenario

import sweep

FULL = (16.0, 32.0, 64.0, 128.0)
SMOKE = (16.0, 32.0)

SEED = 7
#: More records than the scenario default so the latency mean is stable.
RECORDS = 90


def measure(mean_gap_ms: float) -> dict[str, float]:
    result = run_scenario(
        "gdpr-erasure", seed=SEED, records=RECORDS, mean_gap_ms=mean_gap_ms
    )
    assert result["replicas_identical"] is True, (
        f"gdpr-erasure did not converge at mean_gap_ms={mean_gap_ms}"
    )
    workload = result["report"]["workloads"]["gdpr-erasure"]
    chain = result["report"]["final_chain_statistics"]
    latency = workload["deletion_latency_ms"]
    return {
        "mean_gap_ms": mean_gap_ms,
        "deletions_requested": float(workload["deletions_requested"]),
        "deletions_executed": float(workload["deletions_executed"]),
        "deletion_latency_mean_ms": latency["mean"],
        "deletion_latency_max_ms": latency["max"],
        "living_blocks": float(chain["living_blocks"]),
        "total_blocks_created": float(chain["total_blocks_created"]),
        "byte_size": float(chain["byte_size"]),
        "virtual_time_ms": result["report"]["kernel"]["virtual_time_ms"],
    }


SWEEP = sweep.Sweep(
    "bench_workload_scenarios", "BENCH_workloads.json", "virtual",
    config={"scenario": "gdpr-erasure", "records": RECORDS, "seed": SEED},
    axes=(sweep.Axis("gaps_ms", "trajectory", FULL, SMOKE, measure),),
)


def test_workload_scenarios_latency_and_size_shape():
    run = sweep.run(SWEEP)
    trajectory = run.rows["trajectory"]
    gaps = list(trajectory)

    for gap in gaps:
        row = trajectory[gap]
        # Every approved erasure must eventually execute — the idle
        # heartbeat guarantees progress at any arrival rate.
        assert row["deletions_executed"] > 0
        # Selective deletion keeps the living chain a small fraction of
        # everything ever created, independent of the arrival rate.
        assert row["living_blocks"] < row["total_blocks_created"] / 10

    if not run.full:
        return  # the rate shape needs the whole gap spread

    # Chain size is rate-independent: the living block count moves within a
    # narrow absolute band (a few blocks of a summarisation cycle — where
    # inside the cycle a run ends shifts the count, the rate does not).
    living = [trajectory[gap]["living_blocks"] for gap in gaps]
    assert max(living) - min(living) <= 2 * 3, f"living chain size not flat: {living}"

    # Deletion latency in *virtual time* scales with the arrival gap: the
    # block-count bound is constant, each block just takes longer to arrive.
    # Below the service rate (arrival gap shorter than the request round
    # trip) the driver runs backlog-bound and latency plateaus at the
    # service time — so the curve is non-decreasing, not strictly so.
    means = [trajectory[gap]["deletion_latency_mean_ms"] for gap in gaps]
    assert all(earlier <= later for earlier, later in zip(means, means[1:])), (
        f"deletion latency not non-decreasing across rates: {means}"
    )
    growth = means[-1] / means[0]
    spread = FULL[-1] / FULL[0]
    assert growth > spread / 4, (
        f"latency grew only {growth:.2f}x across a {spread:.0f}x gap spread"
    )
