"""Property suite for the fleet traffic engine.

Three parts, matching the things the fleet engine must get right:

* **The percentile estimator** (`repro.workloads.stats`) against independent
  oracles — a hand-rolled sorted-list computation and
  :func:`statistics.quantiles` with the ``inclusive`` method — plus the
  degenerate cases (ties, single sample, empty) and the bimodal regression
  showing why mean-only reporting had to go.
* **Open-loop scheduling** (`repro.workloads.fleet.FleetDriver`) under a
  synthetic service whose round trip costs virtual time: arrivals
  never reorder within a client, the shared in-flight budget is never
  exceeded, ``shed + executed == events_total`` under both overload
  policies, and budget 0 is one slot that only queues (the closed loop, flat
  stack at any length).
* **Bounded bookkeeping**: the deletion-owner map holds only pending
  deletions.

The synthetic client keeps these properties cheap to fuzz: every request is
a kernel process that waits one service time on the kernel clock, without
signatures or replication.
"""

import math
import statistics
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ChainConfig, EntryReference
from repro.network.kernel import EventKernel
from repro.network.scenarios import run_scenario
from repro.network.simulator import NetworkSimulator
from repro.network.transport import spawn
from repro.service.client import DeletionReceipt, SubmitReceipt
from repro.workloads import (
    FleetDriver,
    FleetPolicy,
    LoginAuditWorkload,
    WorkloadRunStats,
    derive_client_seed,
    has_samples,
    latency_summary,
    percentile,
)

# --------------------------------------------------------------------- #
# Percentile estimator vs oracles
# --------------------------------------------------------------------- #

#: Latency-like samples: non-negative, finite, within float precision the
#: 6-decimal report rounding can represent faithfully.
LATENCIES = st.floats(min_value=0.0, max_value=1e9, allow_nan=False, allow_infinity=False)


def sorted_list_oracle(values, level):
    """The estimator's definition, computed independently by hand."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    rank = (level / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[lower])
    weight = rank - lower
    return ordered[lower] * (1.0 - weight) + ordered[upper] * weight


class TestPercentileEstimator:
    @settings(max_examples=200, deadline=None)
    @given(
        samples=st.lists(LATENCIES, min_size=1, max_size=300),
        level=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_matches_the_sorted_list_oracle(self, samples, level):
        assert percentile(samples, level) == pytest.approx(
            sorted_list_oracle(samples, level), rel=1e-12, abs=1e-9
        )

    @settings(max_examples=100, deadline=None)
    @given(
        samples=st.lists(LATENCIES, min_size=2, max_size=300),
        level=st.sampled_from([50, 95, 99]),
    )
    def test_matches_the_stdlib_inclusive_quantiles(self, samples, level):
        """p50/p95/p99 agree with an oracle we did not write:
        ``statistics.quantiles(..., n=100, method="inclusive")``."""
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        assert percentile(samples, float(level)) == pytest.approx(
            cuts[level - 1], rel=1e-9, abs=1e-6
        )

    @settings(max_examples=100, deadline=None)
    @given(samples=st.lists(LATENCIES, min_size=1, max_size=100))
    def test_percentiles_are_bounded_and_monotone(self, samples):
        p50, p95, p99 = (percentile(samples, level) for level in (50.0, 95.0, 99.0))
        assert min(samples) <= p50 <= p95 <= p99 <= max(samples)
        assert percentile(samples, 0.0) == min(samples)
        assert percentile(samples, 100.0) == max(samples)

    @settings(max_examples=50, deadline=None)
    @given(value=LATENCIES, count=st.integers(min_value=1, max_value=50))
    def test_ties_collapse_to_the_tied_value(self, value, count):
        samples = [value] * count
        for level in (0.0, 50.0, 95.0, 99.0, 100.0):
            assert percentile(samples, level) == value

    @settings(max_examples=50, deadline=None)
    @given(value=LATENCIES)
    def test_a_single_sample_is_every_percentile_of_itself(self, value):
        for level in (0.0, 50.0, 99.0, 100.0):
            assert percentile([value], level) == value

    def test_empty_samples_report_zero(self):
        assert percentile([], 50.0) == 0.0
        summary = latency_summary([])
        assert summary == {
            "count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
            "p50": 0.0, "p95": 0.0, "p99": 0.0,
        }

    def test_empty_window_is_gated_by_has_samples_not_percentiles(self):
        """The empty-window shape: ``p50/p95/p99 = 0.0`` with ``count = 0``
        is indistinguishable from genuinely-zero latency by the percentile
        values alone — ``has_samples`` is the gate every percentile
        consumer must apply before comparing."""
        empty = latency_summary([])
        zeroish = latency_summary([0.0, 0.0])
        # The ambiguity that motivates the gate: identical percentiles...
        for key in ("p50", "p95", "p99", "mean", "min", "max"):
            assert empty[key] == zeroish[key] == 0.0
        # ...distinguished only by the sample count.
        assert not has_samples(empty)
        assert has_samples(zeroish)
        assert has_samples(latency_summary([3.5]))
        # Defensive shapes: non-mapping or countless inputs are "no data".
        assert not has_samples(None)
        assert not has_samples({})
        assert not has_samples({"p50": 12.0})

    def test_out_of_range_levels_are_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], -0.1)
        with pytest.raises(ValueError):
            percentile([1.0], 100.1)

    def test_the_order_of_samples_does_not_matter(self):
        samples = [5.0, 1.0, 9.0, 3.0, 7.0]
        assert latency_summary(samples) == latency_summary(sorted(samples, reverse=True))


def test_percentiles_expose_the_tail_the_mean_hides():
    """The regression that motivated folding percentiles into
    ``WorkloadRunStats``: a bimodal latency sample — 90 fast requests, 10
    pathological ones — has a mean that still looks like a slowish-but-fine
    service while p95/p99 sit squarely on the pathological mode.  The old
    count/mean/min/max block could not distinguish this from a uniformly
    mediocre service."""
    run = WorkloadRunStats(workload="bimodal-probe")
    run.deletion_latency_ms = [5.0] * 90 + [2000.0] * 10
    block = run.as_dict()["deletion_latency_ms"]
    assert block["count"] == 100
    assert block["mean"] == pytest.approx(204.5)  # an order of magnitude off both modes
    assert block["p50"] == 5.0                    # the typical request is fast...
    assert block["p95"] == 2000.0                 # ...and the tail is pathological
    assert block["p99"] == 2000.0
    assert block["max"] == 2000.0


# --------------------------------------------------------------------- #
# Open-loop scheduling properties
# --------------------------------------------------------------------- #


class StubServiceClient:
    """A ledger client whose every round trip costs ``service_ms``.

    Each request is a kernel process that resumes ``service_ms`` after it
    departs, the way a networked client's reply lands, so due arrivals
    genuinely fire *during* a request — the overlap the open-loop admission
    control must survive — without any chain, signature or replication cost.
    """

    def __init__(self, kernel: EventKernel, service_ms: float) -> None:
        self.kernel = kernel
        self.service_ms = service_ms
        #: Virtual time at which each request was issued.
        self.departures: list[float] = []

    def _round_trip(self, result):
        self.departures.append(self.kernel.now)
        yield [lambda land: self.kernel.schedule(self.service_ms, lambda: land(None))]
        return result

    def submit_process(self, data, author, *, expires_at_time=None, expires_at_block=None):
        return self._round_trip(SubmitReceipt(reference=None, block_number=None))

    def request_deletion_process(self, target, author, *, reason=""):
        return self._round_trip(DeletionReceipt(approved=False, reason="stub"))

    def tick_process(self, ticks=1):
        return self._round_trip(False)


def run_stub_fleet(
    *,
    seed: int,
    n_clients: int,
    budget: int,
    policy: FleetPolicy,
    service_ms: float,
    mean_gap_ms: float,
    events_per_client: int = 8,
):
    """Drive an entries-only fleet against the stub service."""
    kernel = EventKernel(seed=seed)
    workloads = [
        LoginAuditWorkload(
            num_events=events_per_client,
            num_users=3,
            deletion_rate=0.0,
            idle_rate=0.0,
            seed=derive_client_seed(seed, client_index),
        )
        for client_index in range(n_clients)
    ]
    clients = [StubServiceClient(kernel, service_ms) for _ in workloads]
    driver = FleetDriver(
        workloads,
        clients,
        mean_gap_ms=mean_gap_ms,
        kernel=kernel,
        in_flight_budget=budget,
        policy=policy,
    )
    executions: list[tuple[int, int]] = []
    driver.on_submitted = lambda client_index, position, event, receipt: executions.append(
        (client_index, position)
    )
    driver.schedule()
    kernel.run()
    return driver, executions


FLEET_CASES = st.fixed_dictionaries(
    {
        "seed": st.integers(min_value=0, max_value=10_000),
        "n_clients": st.integers(min_value=1, max_value=6),
        "budget": st.integers(min_value=1, max_value=5),
        "policy": st.sampled_from([FleetPolicy.QUEUE, FleetPolicy.SHED]),
        "service_ms": st.floats(min_value=0.5, max_value=40.0),
        "mean_gap_ms": st.floats(min_value=2.0, max_value=60.0),
    }
)


class TestOpenLoopScheduling:
    @settings(max_examples=40, deadline=None)
    @given(case=FLEET_CASES)
    def test_arrivals_never_reorder_within_a_client(self, case):
        _, executions = run_stub_fleet(**case)
        per_client: dict[int, int] = {}
        for client_index, position in executions:
            previous = per_client.get(client_index, -1)
            assert position > previous, (
                f"client {client_index} executed position {position} after {previous}"
            )
            per_client[client_index] = position

    @settings(max_examples=40, deadline=None)
    @given(case=FLEET_CASES)
    def test_the_shared_budget_is_never_exceeded(self, case):
        driver, _ = run_stub_fleet(**case)
        assert 1 <= driver.stats.in_flight_peak <= case["budget"]

    @settings(max_examples=40, deadline=None)
    @given(case=FLEET_CASES)
    def test_shed_plus_executed_accounts_for_every_arrival(self, case):
        driver, executions = run_stub_fleet(**case)
        stats = driver.stats
        assert stats.executed + stats.shed == stats.events_total
        assert stats.executed == len(executions)  # entries-only workload
        assert len(stats.request_latency_ms) == stats.executed
        assert all(latency >= 0.0 for latency in stats.request_latency_ms)
        if case["policy"] is FleetPolicy.QUEUE:
            assert stats.shed == 0  # queueing never drops work
        # Per-client bookkeeping folds up to the fleet totals.
        assert sum(c.executed for c in stats.clients) == stats.executed
        assert sum(c.shed for c in stats.clients) == stats.shed

    def test_overload_saturates_the_budget_and_builds_backlog(self):
        """Deterministic overload pin: offered load far above the service
        rate drives in-flight to exactly the budget and (under QUEUE)
        builds measurable backlog that charges waiting time to latency."""
        driver, _ = run_stub_fleet(
            seed=3,
            n_clients=6,
            budget=3,
            policy=FleetPolicy.QUEUE,
            service_ms=30.0,
            mean_gap_ms=5.0,
        )
        stats = driver.stats
        assert stats.in_flight_peak == 3
        assert stats.backlog_peak > 0
        assert stats.shed == 0 and stats.executed == stats.events_total
        # The run finished well past the nominal horizon: queueing delay.
        assert stats.completed_at_ms > stats.horizon_ms
        summary = latency_summary(stats.request_latency_ms)
        assert summary["p99"] > summary["p50"] > 0.0

    def test_shed_policy_drops_instead_of_queueing(self):
        driver, _ = run_stub_fleet(
            seed=3,
            n_clients=6,
            budget=2,
            policy=FleetPolicy.SHED,
            service_ms=30.0,
            mean_gap_ms=5.0,
        )
        stats = driver.stats
        assert stats.shed > 0
        assert stats.backlog_peak == 0
        assert stats.executed + stats.shed == stats.events_total

    def test_budget_zero_is_one_slot_that_queues_and_never_sheds(self):
        """The closed loop: request k+1 departs at max(its arrival, the
        completion of k) — under SHED too, which only applies to a budget."""
        driver, _ = run_stub_fleet(
            seed=3,
            n_clients=1,
            budget=0,
            policy=FleetPolicy.SHED,
            service_ms=20.0,
            mean_gap_ms=25.0,
            events_per_client=40,
        )
        stats = driver.stats
        assert stats.shed == 0 and stats.executed == stats.events_total == 40
        assert stats.in_flight_peak == 1 and stats.backlog_peak > 0
        departures = driver.client.departures
        assert len(departures) == 40
        free_at = 0.0
        waited = 0
        for arrival, departed in zip(driver.timeline, departures):
            assert departed == pytest.approx(max(arrival.at_ms, free_at), abs=1e-9)
            waited += free_at > arrival.at_ms
            free_at = departed + 20.0
        assert 0 < waited < 40  # both arms of the max occurred

    def test_a_long_closed_loop_overload_keeps_the_stack_flat(self):
        """3,000 arrivals 25x faster than the service: all of them fire
        inside earlier round trips, and none may nest an execution."""
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            driver, _ = run_stub_fleet(
                seed=5,
                n_clients=1,
                budget=0,
                policy=FleetPolicy.QUEUE,
                service_ms=5.0,
                mean_gap_ms=0.2,
                events_per_client=3000,
            )
        finally:
            sys.setrecursionlimit(limit)
        assert driver.stats.executed == 3000
        assert driver.stats.backlog_peak > 2000

    def test_invalid_construction_is_rejected(self):
        kernel = EventKernel(seed=1)
        workload = LoginAuditWorkload(num_events=2, num_users=2, seed=1)
        client = StubServiceClient(kernel, 1.0)
        with pytest.raises(ValueError):
            FleetDriver([], [], mean_gap_ms=10.0, kernel=kernel)
        with pytest.raises(ValueError):
            FleetDriver([workload], [client, client], mean_gap_ms=10.0, kernel=kernel)
        with pytest.raises(ValueError):
            FleetDriver([workload], [client], mean_gap_ms=10.0, kernel=kernel, in_flight_budget=-1)
        with pytest.raises(ValueError):
            FleetDriver([workload], [client], mean_gap_ms=10.0, kernel=kernel, policy="drop-everything")

    def test_scheduling_twice_is_rejected(self):
        kernel = EventKernel(seed=1)
        workload = LoginAuditWorkload(num_events=2, num_users=2, seed=1)
        driver = FleetDriver(
            [workload], [StubServiceClient(kernel, 1.0)], mean_gap_ms=10.0, kernel=kernel
        )
        driver.schedule()
        with pytest.raises(ValueError, match="already scheduled"):
            driver.schedule()


# --------------------------------------------------------------------- #
# Bounded deletion bookkeeping
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("settle_ms", [600.0, 30.0], ids=["settled", "cut-short"])
def test_deletion_owners_are_held_only_while_a_deletion_is_pending(monkeypatch, settle_ms):
    """Regression: ``_deletion_owner`` used to keep one key per request for
    the whole run.  After a ``gdpr-erasure`` fleet run it must hold exactly
    the still-pending deletions — none once everything executed, and the
    stragglers when the settle window is cut short."""
    drivers = []
    drive_fleet = NetworkSimulator.drive_fleet

    def spy(self, *args, **kwargs):
        drivers.append(drive_fleet(self, *args, **kwargs))
        return drivers[-1]

    monkeypatch.setattr(NetworkSimulator, "drive_fleet", spy)
    run_scenario("gdpr-erasure", seed=23, smoke=True, n_clients=3, settle_ms=settle_ms)
    (driver,) = drivers
    runs = [client.run for client in driver.stats.clients]
    assert sum(run.deletions_executed for run in runs) > 0
    pending = sum(run.deletions_pending for run in runs)
    assert (pending > 0) == (settle_ms < 600.0)
    assert len(driver._deletion_owner) == pending


def test_a_rejected_deletion_request_leaves_no_owner_behind():
    kernel = EventKernel(seed=2)
    simulator = NetworkSimulator(
        anchor_count=2, config=ChainConfig.paper_evaluation(), kernel=kernel
    )
    driver = simulator.drive_fleet(
        [LoginAuditWorkload(num_events=2, num_users=2, seed=2)], mean_gap_ms=10.0
    )
    receipts = []
    spawn(
        simulator.kernel,
        driver.request_deletion_process(EntryReference(999999, 1), "NOBODY"),
        receipts.append,
    )
    simulator.kernel.run()
    assert [receipt.approved for receipt in receipts] == [False]
    assert driver._deletion_owner == {}
