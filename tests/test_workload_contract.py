"""Workload conformance contract: one suite, every generator.

Every :class:`~repro.workloads.base.Workload` subclass must honour the same
contract, because scenarios, benchmarks and the comparison harness treat
workloads interchangeably:

* the same seed produces the identical event stream, run after run,
* :func:`~repro.workloads.base.arrival_schedule` assigns deterministic,
  non-decreasing virtual times,
* every :class:`~repro.workloads.base.EventKind` the generator emits is one
  both :func:`~repro.workloads.base.replay` and
  :class:`~repro.workloads.fleet.FleetDriver` handle.

The suite is parametrised over a factory per subclass and fails when a new
``Workload`` subclass appears without registering here — joining the
contract is part of adding a generator.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ChainConfig
from repro.network.kernel import EventKernel
from repro.network.simulator import NetworkSimulator
from repro.workloads import (
    CoinTransferWorkload,
    EventKind,
    GdprErasureWorkload,
    LoginAuditWorkload,
    PaperScenarioWorkload,
    SupplyChainWorkload,
    VehicleLifecycleWorkload,
    Workload,
    arrival_schedule,
    derive_client_seed,
    fleet_timeline,
)

#: Small-but-representative instance of every generator.  Each factory takes
#: a seed so the determinism tests can vary it (PaperScenarioWorkload pins
#: its own seed — the paper's trace is one fixed stream).
WORKLOAD_FACTORIES = {
    LoginAuditWorkload: lambda seed: LoginAuditWorkload(
        num_events=30, num_users=4, deletion_rate=0.2, idle_rate=0.1, seed=seed
    ),
    PaperScenarioWorkload: lambda seed: PaperScenarioWorkload(extra_cycles=2),
    GdprErasureWorkload: lambda seed: GdprErasureWorkload(
        num_records=25, num_subjects=6, erasure_probability=0.4, min_delay=2, max_delay=10, seed=seed
    ),
    SupplyChainWorkload: lambda seed: SupplyChainWorkload(
        num_products=6, shelf_life_ticks=50, seed=seed
    ),
    VehicleLifecycleWorkload: lambda seed: VehicleLifecycleWorkload(
        num_vehicles=5, events_per_vehicle=4, seed=seed
    ),
    CoinTransferWorkload: lambda seed: CoinTransferWorkload(
        num_transfers=25, num_wallets=5, seed=seed
    ),
}

FACTORIES = sorted(WORKLOAD_FACTORIES.items(), key=lambda item: item[0].__name__)
FACTORY_IDS = [cls.__name__ for cls, _ in FACTORIES]

#: The event kinds the replay loop and the scenario driver dispatch on.
HANDLED_KINDS = {EventKind.ENTRY, EventKind.DELETION, EventKind.IDLE}


def test_every_workload_subclass_is_under_contract():
    """A new generator must register a factory here to exist.

    Test-local probe subclasses (other suites define them) are exempt: the
    contract covers the generators the package ships.
    """
    subclasses = {cls for cls in Workload.__subclasses__() if cls.__module__.startswith("repro.")}
    missing = {cls.__name__ for cls in subclasses} - {cls.__name__ for cls in WORKLOAD_FACTORIES}
    assert not missing, f"Workload subclasses without a conformance factory: {sorted(missing)}"


@pytest.mark.parametrize("cls,factory", FACTORIES, ids=FACTORY_IDS)
class TestWorkloadContract:
    def test_same_seed_yields_identical_event_stream(self, cls, factory):
        first = list(factory(3))
        second = list(factory(3))
        assert first == second
        assert first, f"{cls.__name__} produced an empty stream"

    def test_repeated_iteration_of_one_instance_is_stable(self, cls, factory):
        workload = factory(3)
        assert list(workload) == list(workload)  # fresh_rng contract

    def test_arrival_schedule_is_deterministic_and_non_decreasing(self, cls, factory):
        first = arrival_schedule(factory(5), mean_gap_ms=20.0)
        second = arrival_schedule(factory(5), mean_gap_ms=20.0)
        assert first == second
        times = [at for at, _ in first]
        assert all(earlier <= later for earlier, later in zip(times, times[1:]))
        assert times[0] > 0.0  # the first gap precedes the first event

    def test_emitted_event_kinds_are_handled(self, cls, factory):
        kinds = {event.kind for event in factory(7)}
        assert kinds <= HANDLED_KINDS, f"{cls.__name__} emits unhandled kinds {kinds - HANDLED_KINDS}"
        for event in factory(7):
            if event.kind is EventKind.DELETION:
                assert event.target is not None, "DELETION events must carry a target"
            if event.kind is EventKind.IDLE:
                assert event.idle_ticks > 0, "IDLE events must advance time"


@pytest.mark.parametrize("cls,factory", FACTORIES, ids=FACTORY_IDS)
class TestFleetContract:
    """The fleet conformance contract every generator joins for free.

    The open-loop engine treats workloads interchangeably too: per
    ``(seed, n_clients)`` the interleaved fleet timeline must be identical
    run after run, every client's own schedule must stay monotone inside
    the interleave, and client 0 runs the workload of the fleet seed itself.
    (The closed loop's kernel-level behaviour is pinned against stored
    values by ``tests/test_scenario_digests.py``.)
    """

    def _fleet(self, factory, seed, n_clients):
        return [
            factory(derive_client_seed(seed, client_index))
            for client_index in range(n_clients)
        ]

    def test_fleet_timeline_is_identical_per_seed_and_size(self, cls, factory):
        first = fleet_timeline(self._fleet(factory, 11, 3), mean_gap_ms=20.0)
        second = fleet_timeline(self._fleet(factory, 11, 3), mean_gap_ms=20.0)
        assert first == second
        assert first, f"{cls.__name__} produced an empty fleet timeline"

    def test_per_client_schedules_stay_monotone_inside_the_interleave(self, cls, factory):
        timeline = fleet_timeline(self._fleet(factory, 11, 4), mean_gap_ms=20.0)
        # Globally sorted by arrival time...
        times = [arrival.at_ms for arrival in timeline]
        assert times == sorted(times)
        # ...and within every client, arrival order == timeline order.
        last_position: dict[int, int] = {}
        last_time: dict[int, float] = {}
        for arrival in timeline:
            if arrival.client_index in last_position:
                assert arrival.position == last_position[arrival.client_index] + 1
                assert arrival.at_ms >= last_time[arrival.client_index]
            else:
                assert arrival.position == 0
            last_position[arrival.client_index] = arrival.position
            last_time[arrival.client_index] = arrival.at_ms

    def test_client_zero_keeps_the_fleet_seed(self, cls, factory):
        """``derive_client_seed(seed, 0) == seed``: a one-client fleet runs
        the workload's own arrival schedule."""
        assert derive_client_seed(11, 0) == 11
        solo = fleet_timeline(self._fleet(factory, 11, 1), mean_gap_ms=20.0)
        single = arrival_schedule(factory(11), mean_gap_ms=20.0)
        assert [(arrival.at_ms, arrival.event) for arrival in solo] == [
            (round(at, 6), event) for at, event in single
        ]


class TestClientSeedIndependence:
    """Cross-fleet sub-stream independence of :func:`derive_client_seed`.

    Regression for the additive prime stride, under which client ``i`` of
    fleet seed ``s`` shared its sub-seed with client ``i+1`` of fleet seed
    ``s - 7919`` — exactly the collision a sharded deployment deriving
    per-shard fleet seeds from neighbouring base seeds would hit.
    """

    def test_client_zero_keeps_the_fleet_seed(self):
        for seed in (0, 7, 11, 7919, 10**9):
            assert derive_client_seed(seed, 0) == seed

    def test_old_stride_collision_is_gone(self):
        # Under the stride: derive(s, i+1) == derive(s - 7919, i) + 7919*...
        # i.e. derive(7919, 1) == derive(0, 2) == 2*7919.  Pin both gone.
        assert derive_client_seed(7919, 1) != derive_client_seed(0, 2)
        assert derive_client_seed(15838, 1) != derive_client_seed(7919, 2)

    def test_no_collisions_across_a_seed_index_grid(self):
        seeds = [0, 1, 7, 23, 7919, 2 * 7919, 123456]
        derived: dict[int, tuple[int, int]] = {}
        for seed in seeds:
            for client_index in range(1, 64):
                value = derive_client_seed(seed, client_index)
                assert value not in derived, (
                    f"derive_client_seed collision: ({seed}, {client_index}) "
                    f"and {derived[value]} both map to {value}"
                )
                derived[value] = (seed, client_index)

    def test_derivation_is_deterministic_and_rejects_negative_indices(self):
        assert derive_client_seed(42, 5) == derive_client_seed(42, 5)
        with pytest.raises(ValueError):
            derive_client_seed(42, -1)


def test_driver_survives_lost_tick_responses_on_a_lossy_transport():
    """Regression: a lost IDLE_TICK response must not abort the timeline.

    ``RemoteLedgerClient.tick`` raises ``LedgerError`` when the round trip
    fails (unlike submit/request_deletion, which return error receipts); on
    a lossy transport the driver must absorb that and keep executing the
    remaining events.
    """
    kernel = EventKernel(seed=5)
    simulator = NetworkSimulator(
        anchor_count=2,
        config=ChainConfig.paper_evaluation(),
        kernel=kernel,
        loss_rate=0.15,
        loss_seed=5,
    )
    workload = LoginAuditWorkload(num_events=40, num_users=3, idle_rate=0.3, seed=5)
    driver = simulator.drive_fleet([workload], mean_gap_ms=10.0, in_flight_budget=0)
    driver.schedule()
    kernel.run()  # must not raise
    stats = driver.stats.clients[0].run
    executed = stats.entries_submitted + stats.deletions_requested + stats.idle_events
    assert executed == stats.events_total  # every event ran despite the loss
    assert stats.idle_rejected > 0  # and the loss genuinely hit a tick


def test_two_drivers_of_the_same_workload_type_keep_separate_report_entries():
    """Regression: finalize() must not overwrite same-named workload stats."""
    kernel = EventKernel(seed=6)
    simulator = NetworkSimulator(
        anchor_count=2, config=ChainConfig.paper_evaluation(), kernel=kernel
    )
    first = simulator.drive_fleet(
        [LoginAuditWorkload(num_events=4, num_users=2, seed=1)],
        mean_gap_ms=10.0,
        in_flight_budget=0,
    )
    second = simulator.drive_fleet(
        [LoginAuditWorkload(num_events=7, num_users=2, seed=2)],
        mean_gap_ms=10.0,
        start_at_ms=200.0,
        in_flight_budget=0,
    )
    first.schedule()
    second.schedule()
    kernel.run()
    report = simulator.finalize()
    assert set(report.workloads) == {"login-audit", "login-audit#2"}
    assert report.workloads["login-audit"]["events_total"] == 4
    assert report.workloads["login-audit#2"]["events_total"] == 7


class _PayloadProbeWorkload(Workload):
    """Same seed, same event count — only the payload content varies.

    Used to prove the arrival timeline is a function of the *seed*, never of
    what the events carry.
    """

    name = "payload-probe"

    def __init__(self, *, seed: int, count: int, payload: str) -> None:
        super().__init__(seed=seed)
        self.count = count
        self.payload = payload

    def events(self):
        from repro.workloads.base import WorkloadEvent

        for index in range(self.count):
            yield WorkloadEvent(
                kind=EventKind.ENTRY,
                author="PROBE",
                data={"D": f"{self.payload} #{index}", "K": "PROBE", "S": "sig"},
            )


class TestArrivalScheduleProperties:
    """Property-based pins for ``arrival_schedule`` (hypothesis)."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mean_gap_ms=st.floats(min_value=0.5, max_value=500.0),
        jitter=st.floats(min_value=0.0, max_value=0.95),
        idle_rate=st.floats(min_value=0.0, max_value=0.5),
    )
    def test_times_are_monotone_for_any_parameters(self, seed, mean_gap_ms, jitter, idle_rate):
        workload = LoginAuditWorkload(
            num_events=20, num_users=3, idle_rate=idle_rate, seed=seed
        )
        timeline = arrival_schedule(workload, mean_gap_ms=mean_gap_ms, jitter=jitter)
        times = [at for at, _ in timeline]
        assert len(times) == 20
        assert all(earlier <= later for earlier, later in zip(times, times[1:]))
        assert times[0] >= 0.0

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        mean_gap_ms=st.floats(min_value=1.0, max_value=100.0),
        factor=st.floats(min_value=1.5, max_value=10.0),
    )
    def test_times_scale_linearly_with_the_arrival_rate(self, seed, mean_gap_ms, factor):
        """Doubling the mean gap doubles every arrival time (idle-free).

        The jittered gap is ``mean * uniform(1 - j, 1 + j)`` from the same
        seeded draw, so the whole timeline scales by exactly the rate factor
        (up to the 6-decimal rounding the schedule applies per event).
        """
        workload = LoginAuditWorkload(num_events=25, num_users=3, idle_rate=0.0, seed=seed)
        base = [at for at, _ in arrival_schedule(workload, mean_gap_ms=mean_gap_ms)]
        scaled = [
            at for at, _ in arrival_schedule(workload, mean_gap_ms=mean_gap_ms * factor)
        ]
        for position, (small, large) in enumerate(zip(base, scaled)):
            assert large == pytest.approx(small * factor, rel=1e-9, abs=1e-4), (
                f"event {position}: {small} * {factor} != {large}"
            )

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        first_payload=st.text(min_size=0, max_size=30),
        second_payload=st.text(min_size=0, max_size=30),
    )
    def test_times_depend_on_the_seed_not_the_payloads(
        self, seed, first_payload, second_payload
    ):
        first = _PayloadProbeWorkload(seed=seed, count=15, payload=first_payload)
        second = _PayloadProbeWorkload(seed=seed, count=15, payload=second_payload)
        first_times = [at for at, _ in arrival_schedule(first, mean_gap_ms=20.0)]
        second_times = [at for at, _ in arrival_schedule(second, mean_gap_ms=20.0)]
        assert first_times == second_times

    def test_idle_events_stretch_the_timeline_by_their_ticks(self):
        workload = LoginAuditWorkload(
            num_events=40, num_users=3, idle_rate=0.4, idle_ticks=25, seed=3
        )
        timeline = arrival_schedule(workload, mean_gap_ms=5.0, ms_per_tick=2.0)
        previous = 0.0
        saw_idle = False
        for at, event in timeline:
            if event.kind is EventKind.IDLE:
                saw_idle = True
                assert at - previous >= event.idle_ticks * 2.0
            previous = at
        assert saw_idle
