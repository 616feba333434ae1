"""Throughput/latency knee of one deployment under an open-loop fleet.

The fleet engine's open loop exists to answer the question its closed loop
is structurally unable to ask: *what happens when offered load exceeds the
service rate?*  This benchmark sweeps the ``fleet-saturation`` scenario's
fleet size N from 10 to 10 000 clients at a fixed per-client arrival rate,
so the offered load grows linearly in N while the deployment's service rate
(one request round trip at a time) stays fixed — and records, per N,

* fleet request-latency percentiles (p50/p95/p99/max, virtual ms),
* throughput vs offered load, shed count, in-flight/backlog peaks.

Expected shape: below the knee, latency is a flat transport round trip and
throughput tracks offered load; past it, throughput plateaus at the service
rate while p50 latency inflates by orders of magnitude (queue policy — the
backlog charges every waiting millisecond to the request).  The knee
detector pins where the transition happens: the first N whose p50 exceeds
``KNEE_P50_INFLATION`` times the baseline (smallest-N) p50.

The measured trajectory is ``BENCH_fleet.json`` (see :mod:`sweep`).
"""

from __future__ import annotations

from typing import Any, Optional

from repro.network.scenarios import run_scenario
from repro.workloads import has_samples

import sweep

FULL = (10, 30, 100, 300, 1000, 3000, 10000)
#: Up to the knee row: the regime change is what a refactor would move.
SMOKE = (10, 30, 100, 300)

SEED = 7
EVENTS_PER_CLIENT = 3
#: Per-client arrival gap: offered load is ``N / MEAN_GAP_MS`` requests per
#: virtual ms.  6 s per client puts the crossing with the deployment's
#: service rate (~45-50 req/s, one ~20 virtual-ms round trip at a time)
#: around N ≈ 300 — mid-sweep, so both regimes are well sampled.
MEAN_GAP_MS = 6000.0
IN_FLIGHT_BUDGET = 8
#: Queue (don't shed): saturation must show up as latency, the quantity the
#: percentiles report — shed loss is exercised by the scenario's own tests.
POLICY = "queue"
#: The knee criterion: p50 this many times the unloaded baseline p50 means
#: requests spend their life in the backlog, not in the transport.
KNEE_P50_INFLATION = 10.0
#: What every point of the sweep runs, and the committed file's ``config``.
PARAMETERS = {
    "seed": SEED,
    "events_per_client": EVENTS_PER_CLIENT,
    "mean_gap_ms": MEAN_GAP_MS,
    "in_flight_budget": IN_FLIGHT_BUDGET,
    "overload_policy": POLICY,
}


def measure(n_clients: int) -> dict[str, float]:
    result = run_scenario("fleet-saturation", n_clients=n_clients, settle_ms=200.0, **PARAMETERS)
    assert result["replicas_identical"] is True, (
        f"fleet-saturation did not converge at n_clients={n_clients}"
    )
    fleet = result["report"]["workloads"]["login-audit"]
    latency = fleet["request_latency_ms"]
    # The empty-window shape check: a fleet that executed requests must
    # report samples, and one that executed none must not fake percentiles.
    assert has_samples(latency) == (fleet["executed"] > 0)
    return {
        "n_clients": float(n_clients),
        "events_total": float(fleet["events_total"]),
        "executed": float(fleet["executed"]),
        "shed": float(fleet["shed"]),
        "offered_load_per_s": result["offered_load_per_s"],
        "throughput_per_s": fleet["throughput_per_s"],
        "request_count": float(latency["count"]),
        "request_p50_ms": latency["p50"],
        "request_p95_ms": latency["p95"],
        "request_p99_ms": latency["p99"],
        "request_max_ms": latency["max"],
        "request_mean_ms": latency["mean"],
        "in_flight_peak": float(fleet["in_flight_peak"]),
        "backlog_peak": float(fleet["backlog_peak"]),
        "virtual_time_ms": result["report"]["kernel"]["virtual_time_ms"],
    }


def detect_knee(rows: list[dict[str, float]]) -> dict[str, Any]:
    """Locate the saturation knee on the p50-inflation criterion.

    The baseline is the smallest fleet's p50 (a bare transport round trip);
    the knee is the first N whose p50 exceeds ``KNEE_P50_INFLATION`` times
    that baseline.  Returns the knee row's N, the last below-knee N, and the
    inflation factors — or ``detected: False`` when the sweep never
    saturates.

    Empty windows gate on the sample count first: a row whose fleet
    completed zero requests reports percentiles of 0.0
    (:func:`repro.workloads.stats.latency_summary`'s empty shape), which
    must read as "no measurement", never as an infinitely fast baseline or
    an always-unsaturated point.
    """
    baseline_p50 = rows[0]["request_p50_ms"]
    knee: dict[str, Any] = {
        "criterion": f"p50 > {KNEE_P50_INFLATION:g} * baseline p50",
        "baseline_p50_ms": baseline_p50,
        "detected": False,
        "knee_clients": None,
        "last_unsaturated_clients": None,
        "p50_inflation_at_knee": None,
    }
    if rows[0].get("request_count", 0.0) <= 0.0 or baseline_p50 <= 0.0:
        return knee
    previous: Optional[dict[str, float]] = None
    for row in rows:
        if row.get("request_count", 0.0) <= 0.0:
            continue  # empty window: no measurement, not zero latency
        inflation = row["request_p50_ms"] / baseline_p50
        if inflation > KNEE_P50_INFLATION:
            knee["detected"] = True
            knee["knee_clients"] = int(row["n_clients"])
            knee["last_unsaturated_clients"] = (
                int(previous["n_clients"]) if previous is not None else None
            )
            knee["p50_inflation_at_knee"] = round(inflation, 6)
            break
        previous = row
    return knee


SWEEP = sweep.Sweep(
    "bench_fleet_saturation", "BENCH_fleet.json", "virtual",
    config={"scenario": "fleet-saturation", **PARAMETERS},
    axes=(sweep.Axis("fleet_sizes", "trajectory", FULL, SMOKE, measure),),
    summarise=lambda rows: {"knee": detect_knee(list(rows["trajectory"].values()))},
)


def test_fleet_saturation_knee_shape():
    run = sweep.run(SWEEP)
    rows = list(run.rows["trajectory"].values())
    knee = run.summary["knee"]

    for row in rows:
        assert row["executed"] + row["shed"] == row["events_total"]
        assert row["request_p50_ms"] <= row["request_p95_ms"] <= row["request_p99_ms"]

    if not run.full:
        return  # the saturation shape needs the whole size spread

    # The knee lies strictly inside the sweep: the smallest fleet is
    # unsaturated, the largest is far past saturation.
    assert knee["detected"], "no saturation knee found across a 1000x size sweep"
    assert FULL[0] < knee["knee_clients"] <= FULL[-1]
    assert knee["last_unsaturated_clients"] is not None

    # Past the knee, throughput has plateaued at the service rate: growing
    # the fleet 10x more buys (at most) marginal extra throughput.
    knee_index = next(
        index for index, row in enumerate(rows) if int(row["n_clients"]) == knee["knee_clients"]
    )
    peak_throughput = max(row["throughput_per_s"] for row in rows)
    assert rows[knee_index]["throughput_per_s"] > peak_throughput / 2
    assert rows[-1]["throughput_per_s"] < peak_throughput * 1.05

    # ...while p50 latency keeps inflating with the backlog.
    saturated_p50 = [row["request_p50_ms"] for row in rows[knee_index:]]
    assert all(earlier <= later for earlier, later in zip(saturated_p50, saturated_p50[1:]))

    # Below the knee, latency never left the transport-round-trip regime.
    for row in rows[:knee_index]:
        assert row["request_p50_ms"] < KNEE_P50_INFLATION * knee["baseline_p50_ms"]
