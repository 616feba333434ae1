"""Scenario-engine tests: determinism pin, scheduled faults, gossip, failover."""

import dataclasses
import functools
import inspect
import json
import typing

import pytest

from repro.core import Blockchain, ChainConfig
from repro.network import (
    AnchorNode,
    EventKernel,
    GossipOverlay,
    GossipTopology,
    InMemoryTransport,
    LatencyModel,
    Message,
    MessageKind,
    NetworkSimulator,
    ScenarioError,
    run_scenario,
    scenario_names,
)
from repro.network import scenarios


class TestDeterminismPin:
    """The determinism matrix: every scenario, several seeds, two runs each."""

    @pytest.mark.parametrize("seed", [13, 29])
    @pytest.mark.parametrize("name", scenario_names())
    def test_same_scenario_and_seed_yield_byte_identical_reports(self, name, seed):
        first = run_scenario(name, seed=seed, smoke=True)
        second = run_scenario(name, seed=seed, smoke=True)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    @pytest.mark.parametrize("seed", [13, 29])
    @pytest.mark.parametrize(
        "name,overrides",
        [
            ("gdpr-erasure", {"n_clients": 3}),
            ("fleet-saturation", {"n_clients": 12}),
        ],
        ids=["gdpr-erasure-fleet", "fleet-saturation-wide"],
    )
    def test_fleet_runs_are_byte_identical_per_seed(self, name, seed, overrides):
        """The open-loop engine joins the determinism pin: a workload
        scenario with ``n_clients > 1`` and a widened ``fleet-saturation``
        replay byte-identically (the default-size runs are already covered
        by the matrix above)."""
        first = run_scenario(name, seed=seed, smoke=True, **overrides)
        second = run_scenario(name, seed=seed, smoke=True, **overrides)
        assert json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)

    def test_different_seeds_differ_somewhere(self):
        # Not a guarantee for every scenario, but the latency-driven ones
        # must move: delivery times shape the transport statistics.
        first = run_scenario("coin-economy", seed=1, smoke=True)
        second = run_scenario("coin-economy", seed=2, smoke=True)
        assert json.dumps(first, sort_keys=True) != json.dumps(second, sort_keys=True)

    def test_unknown_scenario_and_parameters_rejected(self):
        with pytest.raises(ScenarioError):
            run_scenario("no-such-scenario")
        with pytest.raises(ScenarioError):
            run_scenario("clock-skew", smoke=True, no_such_param=1)

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("gdpr-erasure", {"records": "ten"}),
            ("gdpr-erasure", {"records": True}),
            ("fleet-saturation", {"overload_policy": 3}),
        ],
        ids=["str-for-int", "bool-for-int", "int-for-str"],
    )
    def test_an_override_of_the_wrong_type_is_named_before_running(self, name, overrides):
        (key, value), = overrides.items()
        with pytest.raises(ScenarioError) as excinfo:
            scenarios.validate_overrides(name, overrides)
        message = str(excinfo.value)
        assert repr(key) in message and repr(value) in message
        assert type(scenarios.SCENARIOS[name].defaults[key]).__name__ in message

    @pytest.mark.parametrize(
        "name, overrides",
        [
            ("gdpr-erasure", {"records": 10.0}),
            ("gdpr-erasure", {"mean_gap_ms": 10}),
            ("fleet-saturation", {"overload_policy": "shed", "n_clients": 2}),
        ],
        ids=["float-for-int", "int-for-float", "str-and-int"],
    )
    def test_numeric_and_matching_overrides_pass(self, name, overrides):
        scenarios.validate_overrides(name, overrides)

    def test_validate_overrides_lists_the_scenarios_for_an_unknown_name(self):
        with pytest.raises(ScenarioError) as excinfo:
            scenarios.validate_overrides("no-such-scenario", {})
        assert "gdpr-erasure" in str(excinfo.value)

    def test_unknown_parameter_error_names_key_and_lists_valid_params(self):
        """A typo'd parameter must be called out, with the fix suggested."""
        with pytest.raises(ScenarioError) as excinfo:
            run_scenario("gdpr-erasure", recrods=10)
        message = str(excinfo.value)
        assert "'recrods'" in message  # the offending key, named
        assert "'records'" in message  # the valid parameters, listed
        assert "'mean_gap_ms'" in message

    def test_smoke_keys_outside_defaults_are_rejected_at_registration(self):
        """A typo'd smoke key must fail loudly, not become a silent param."""
        from repro.network.scenarios import SCENARIOS, scenario

        with pytest.raises(ScenarioError) as excinfo:
            scenario(
                "typo-smoke-check",
                "registration-time validation probe",
                defaults={"events": 10},
                smoke={"evnets": 2},
            )(lambda seed, params: {})
        assert "'evnets'" in str(excinfo.value)
        assert "typo-smoke-check" not in SCENARIOS

    def test_numeric_overrides_reach_the_body_cast_and_are_echoed_as_passed(self):
        """``run_scenario`` casts each numeric parameter to its default's
        type once; the ``"parameters"`` echo keeps the caller's values."""
        from repro.network.scenarios import SCENARIOS, scenario

        seen = {}
        scenario(
            "cast-probe",
            "registration-time cast probe",
            defaults={"events": 10, "settle_ms": 300.0, "lossy": False, "policy": "queue"},
        )(lambda seed, params: seen.update(params) or {})
        try:
            result = run_scenario("cast-probe", events=4.0, settle_ms=30000)
        finally:
            del SCENARIOS["cast-probe"]
        assert seen == {"events": 4, "settle_ms": 30000.0, "lossy": False, "policy": "queue"}
        assert (type(seen["events"]), type(seen["settle_ms"])) == (int, float)
        assert type(seen["lossy"]) is bool
        echoed = result["parameters"]
        assert (echoed["events"], echoed["settle_ms"]) == (4.0, 30000)
        assert (type(echoed["events"]), type(echoed["settle_ms"])) == (float, int)


class TestCatalogueDocsSync:
    """docs/ARCHITECTURE.md's scenario table mirrors the live catalogue."""

    @pytest.fixture(scope="class")
    def documented_rows(self):
        from pathlib import Path

        handbook = Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"
        rows = {}
        in_catalogue = False
        for line in handbook.read_text(encoding="utf-8").splitlines():
            # Only the table under "### Scenario catalogue" is the pinned
            # one — other tables in the handbook are out of scope.
            if line.startswith("#"):
                in_catalogue = line.strip() == "### Scenario catalogue"
                continue
            if not in_catalogue:
                continue
            cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
            if len(cells) == 3 and cells[0].startswith("`") and cells[0].endswith("`"):
                name = cells[0].strip("`")
                params = {part.strip().strip("`") for part in cells[1].split(",") if part.strip()}
                rows[name] = (params, cells[2])
        assert rows, "the '### Scenario catalogue' table was not found in docs/ARCHITECTURE.md"
        return rows

    def test_every_scenario_is_documented_with_exact_params_and_description(
        self, documented_rows
    ):
        from repro.network.scenarios import scenario_catalogue

        for entry in scenario_catalogue():
            assert entry.name in documented_rows, (
                f"scenario {entry.name!r} missing from the docs/ARCHITECTURE.md catalogue table"
            )
            params, description = documented_rows[entry.name]
            assert params == set(entry.defaults), (
                f"documented parameters of {entry.name!r} drifted: "
                f"docs {sorted(params)} vs registered {sorted(entry.defaults)}"
            )
            assert description == entry.description, (
                f"documented description of {entry.name!r} drifted from the registered one"
            )

    def test_no_stale_scenarios_are_documented(self, documented_rows):
        stale = set(documented_rows) - set(scenario_names())
        assert not stale, f"docs table rows for unregistered scenarios: {sorted(stale)}"

    def test_readme_scenario_table_names_exactly_the_catalogue(self):
        from pathlib import Path

        readme = Path(__file__).resolve().parent.parent / "README.md"
        rows, in_catalogue = [], False
        for line in readme.read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                in_catalogue = line.startswith("## Scenario catalogue")
            elif in_catalogue and line.startswith("| `"):
                rows.append(line.split("|")[1].strip().strip("`"))
        assert sorted(rows) == scenario_names()

    def test_module_docstring_examples_run_registered_scenarios(self):
        named = [
            line.split("--scenario")[1].split()[0]
            for line in scenarios.__doc__.splitlines()
            if "--scenario" in line
        ]
        assert named and set(named) <= set(scenario_names())

    def test_latency_summary_keys_match_the_traffic_engine_docs(self):
        """The percentile keys every ``report["workloads"]`` latency block
        carries are pinned against the handbook's "### Traffic engine"
        subsection: what the reports emit is exactly what the docs name."""
        from pathlib import Path

        handbook = Path(__file__).resolve().parent.parent / "docs" / "ARCHITECTURE.md"
        section_lines = []
        in_section = False
        for line in handbook.read_text(encoding="utf-8").splitlines():
            if line.startswith("#"):
                in_section = line.strip() == "### Traffic engine"
                continue
            if in_section:
                section_lines.append(line)
        section = "\n".join(section_lines)
        assert section, "the '### Traffic engine' subsection was not found"

        expected_keys = ("count", "mean", "min", "max", "p50", "p95", "p99")
        result = run_scenario("fleet-saturation", seed=7, smoke=True)
        fleet = result["report"]["workloads"]["login-audit"]
        for block in (
            fleet["request_latency_ms"],
            fleet["deletion_latency_ms"],
            fleet["clients"]["client-0"]["request_latency_ms"],
            fleet["clients"]["client-0"]["deletion_latency_ms"],
        ):
            assert tuple(block) == expected_keys
        for key in expected_keys:
            assert f"`{key}`" in section, (
                f"latency-summary key {key!r} is not documented in the "
                "'### Traffic engine' subsection"
            )


class TestScheduledFaults:
    def test_message_sent_before_heal_arrives_after_it(self):
        """The acceptance pin: a kernel-scheduled partition *delays* delivery.

        The partition is active when the message is posted, but its delivery
        time falls after the scheduled heal — so the message arrives, after
        the heal, instead of being counted as dropped at send time.
        """
        kernel = EventKernel(seed=3)
        transport = InMemoryTransport(
            LatencyModel(minimum_ms=60.0, maximum_ms=60.0, seed=3), kernel=kernel
        )
        arrivals = []
        transport.register("b", lambda m: arrivals.append((kernel.now, m)) and None)
        transport.partition(["a"], ["b"])
        transport.schedule_heal(50.0)
        transport.post("b", Message(kind=MessageKind.ACK, sender="a"))  # sent at t=0
        assert arrivals == []  # nothing delivered synchronously
        kernel.run()
        assert len(arrivals) == 1
        arrived_at, _ = arrivals[0]
        assert arrived_at == 60.0  # after the heal at t=50
        assert transport.statistics.dropped == 0

    def test_message_delivered_during_partition_is_dropped(self):
        kernel = EventKernel(seed=3)
        transport = InMemoryTransport(
            LatencyModel(minimum_ms=60.0, maximum_ms=60.0, seed=3), kernel=kernel
        )
        arrivals = []
        transport.register("b", lambda m: arrivals.append(m) and None)
        transport.partition(["a"], ["b"])
        transport.schedule_heal(90.0)  # heal only after the delivery time
        transport.post("b", Message(kind=MessageKind.ACK, sender="a"))
        kernel.run()
        assert arrivals == []
        assert transport.statistics.dropped == 1

    def test_scheduled_outage_takes_effect_at_its_virtual_time(self):
        kernel = EventKernel(seed=4)
        transport = InMemoryTransport(
            LatencyModel(minimum_ms=5.0, maximum_ms=5.0, seed=4), kernel=kernel
        )
        transport.register("b", lambda m: m.reply(MessageKind.ACK, "b"))
        transport.schedule_offline("b", 100.0)
        kernel.schedule_at(200.0, lambda: transport.set_offline("b", False))
        assert not transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error
        assert kernel.now == 10.0  # request leg + response leg
        kernel.run_until(150.0)
        assert transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error
        kernel.run_until(250.0)
        assert not transport.send("b", Message(kind=MessageKind.ACK, sender="a")).is_error


class _ReadParameters(dict):
    """A scenario's parameters that remember which keys the body read."""

    def __init__(self, params):
        super().__init__(params)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


@functools.cache
def _unread_parameters(name):
    """Run ``name`` once at smoke size, seed 7; the declared parameters its
    body never read.  Both tests below share this one run per scenario."""
    entry = scenarios.SCENARIOS[name]
    seen = {}

    def reading(seed, params):
        seen["params"] = _ReadParameters(params)
        return entry.fn(seed, seen["params"])

    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(scenarios.SCENARIOS, name, dataclasses.replace(entry, fn=reading))
        run_scenario(name, seed=7, smoke=True)
    return set(entry.defaults) - seen["params"].read


@pytest.mark.parametrize("name", scenario_names())
def test_no_kernel_event_runs_inside_another(name):
    """Every exchange is a kernel process: entering the kernel from inside
    an executing event raises ``KernelError``, so a scenario that completes
    never stepped one event inside another."""
    _unread_parameters(name)


@pytest.mark.parametrize("name", scenario_names())
def test_every_declared_parameter_is_read(name):
    """A declared parameter nothing reads is echoed into ``parameters`` (and
    the golden digests) while changing nothing; every key is read at smoke
    size."""
    assert _unread_parameters(name) == set()


def test_every_scenarios_function_has_resolvable_type_hints():
    """Annotations name imported types, so ``get_type_hints`` resolves them."""
    for _, function in inspect.getmembers(scenarios, inspect.isfunction):
        if function.__module__ == scenarios.__name__:
            typing.get_type_hints(function)


class TestScenarioOutcomes:
    def test_coin_economy_partition_heals_to_one_head(self):
        result = run_scenario("coin-economy", seed=7, smoke=True)
        assert result["replicas_identical"] is True
        # The cut-off replicas demonstrably trailed: digests found them
        # behind, and catch-ups pulled the blocks they missed.
        nodes = result["report"]["anti_entropy"]["nodes"]
        assert nodes["digests_behind"] > 0
        assert nodes["catch_ups"] > 0
        final_heads = set(result["heads"].values())
        assert len(final_heads) == 1

    def test_failover_storm_elects_a_new_producer_and_recovers(self):
        result = run_scenario("failover-storm", seed=7, smoke=True)
        assert result["report"]["elections"] == 1
        assert result["final_producer"] != result["first_producer"]
        assert result["entries_accepted"] > 0
        assert result["replicas_identical"] is True

    def test_coin_economy_partition_recovers_via_anti_entropy(self):
        result = run_scenario("coin-economy", seed=7, smoke=True)
        stats = result["report"]["anti_entropy"]
        assert stats["rounds"] > 0
        assert stats["converged"] is True
        assert stats["converged_at_round"] < stats["rounds"]

    def test_replica_bootstrap_adopts_a_snapshot_across_a_marker_shift(self):
        result = run_scenario("replica-bootstrap", seed=7, smoke=True)
        # The straggler rejoined behind a genesis-marker shift ...
        at_rejoin = result["at_rejoin"]
        assert at_rejoin["producer_marker"] > at_rejoin["straggler_head"]
        # ... and converged to the producer's head via a wire bootstrap
        # triggered by anti-entropy digests alone.
        assert result["replicas_identical"] is True
        assert len(set(result["heads"].values())) == 1
        nodes = result["report"]["anti_entropy"]["nodes"]
        assert nodes["bootstraps"] >= 1
        assert nodes["bootstrap_bytes"] > 0
        # The lossy transport genuinely ate messages along the way.
        assert result["report"]["transport"]["lost"] > 0

    def test_gdpr_erasure_executes_requests_with_virtual_latency(self):
        result = run_scenario("gdpr-erasure", seed=7, smoke=True)
        workload = result["report"]["workloads"]["gdpr-erasure"]
        assert workload["entries_submitted"] > 0
        assert workload["deletions_requested"] > 0
        assert workload["deletions_executed"] > 0
        # Every executed deletion contributed one virtual-ms latency sample.
        assert workload["deletion_latency_ms"]["count"] == workload["deletions_executed"]
        assert workload["deletion_latency_ms"]["max"] > 0
        assert result["replicas_identical"] is True

    def test_supply_chain_recall_expires_and_recalls_products(self):
        result = run_scenario("supply-chain-recall", seed=7, smoke=True)
        assert result["recall_requests"] > 0
        # More product trails vanished than were recalled: best-before
        # expiry on simulated time removed entries without any request.
        assert result["products_fully_vanished"] > len(result["recalled_products"])
        # Empty blocks emerge from idle time: the heartbeat only asks, and
        # simulated time decides that one is due.
        assert result["report"]["empty_blocks"] > 0
        assert result["replicas_identical"] is True

    def test_vehicle_telemetry_converges_despite_loss(self):
        result = run_scenario("vehicle-telemetry", seed=7, smoke=True)
        # The lossy transport genuinely ate messages ...
        assert result["report"]["transport"]["lost"] > 0
        # ... anti-entropy repaired the gaps ...
        assert result["report"]["anti_entropy"]["rounds"] > 0
        assert result["replicas_identical"] is True
        # ... and decommissioning produced authority deletions.
        assert result["decommissioned_vehicles"]
        workload = result["report"]["workloads"]["vehicle-lifecycle"]
        assert workload["deletions_requested"] > 0
        assert workload["deletions_approved"] > 0

    def test_coin_economy_reclaims_lost_outputs_after_partition(self):
        result = run_scenario("coin-economy", seed=7, smoke=True)
        assert result["lost_wallets"]
        assert result["reclaimable_outputs"] > 0
        assert result["recovered_outputs"] == result["reclaimable_outputs"]
        workload = result["report"]["workloads"]["coin-transfers"]
        assert workload["deletions_approved"] == result["recovered_outputs"]
        assert result["replicas_identical"] is True

    def test_fleet_saturation_reports_open_loop_percentiles_and_converges(self):
        result = run_scenario("fleet-saturation", seed=7, smoke=True)
        fleet = result["report"]["workloads"]["login-audit"]
        assert fleet["engine"] == "fleet"
        assert fleet["mode"] == "open-loop"
        assert fleet["n_clients"] == 8  # the smoke fleet size
        assert len(fleet["clients"]) == 8
        assert fleet["executed"] + fleet["shed"] == fleet["events_total"]
        assert fleet["request_latency_ms"]["count"] == fleet["executed"]
        assert fleet["request_latency_ms"]["p99"] >= fleet["request_latency_ms"]["p50"] > 0
        assert 1 <= fleet["in_flight_peak"] <= fleet["in_flight_budget"]
        assert result["throughput_per_s"] > 0
        assert result["replicas_identical"] is True

    def test_workload_scenarios_measure_deletion_latency_under_fleets(self):
        """`n_clients > 1` switches a workload scenario to the open-loop
        engine and still measures real deletion latency (receipt-backed
        references survive the fleet interleave)."""
        result = run_scenario("gdpr-erasure", seed=7, smoke=True, n_clients=3)
        fleet = result["report"]["workloads"]["gdpr-erasure"]
        assert fleet["engine"] == "fleet"
        assert fleet["n_clients"] == 3
        assert fleet["deletion_latency_ms"]["count"] > 0
        assert fleet["deletion_latency_ms"]["p99"] > 0
        per_client_executed = sum(
            client["deletions_executed"] for client in fleet["clients"].values()
        )
        assert fleet["deletion_latency_ms"]["count"] == per_client_executed
        assert result["replicas_identical"] is True



class _FinishAt:
    """A fleet driver stand-in whose traffic completes at ``at_ms``."""

    def __init__(self, kernel, at_ms):
        self.kernel, self.at_ms = kernel, at_ms

    def schedule(self):
        self.kernel.schedule_at(self.at_ms, lambda: self.on_finished(), label="finished")


def _recorded_process(log, *entry):
    """A kernel process that appends ``entry`` to ``log`` when it starts."""
    log.append(entry)
    return
    yield


class TestCatalogueHelpers:
    """The booking helpers the scenario bodies share."""

    def test_spawn_each_books_in_index_order_at_the_gap(self):
        kernel = EventKernel(seed=1)
        booked, started = [], []
        schedule_at = kernel.schedule_at

        def recording(at, action, *, label=""):
            booked.append((label, at))
            return schedule_at(at, action, label=label)

        kernel.schedule_at = recording
        def process(index):
            return _recorded_process(started, index, kernel.now)

        scenarios._spawn_each(kernel, 3, 10.0, 25.0, process, label="entry")
        assert booked == [("entry-0", 10.0), ("entry-1", 35.0), ("entry-2", 60.0)]
        kernel.run()
        assert started == [(0, 10.0), (1, 35.0), (2, 60.0)]

    def test_request_deletions_spawns_one_request_per_reference_in_order(self):
        kernel = EventKernel(seed=1)
        requested = []

        class Driver:
            def __init__(self):
                self.kernel = kernel

            def request_deletion_process(self, reference, author, **request):
                return _recorded_process(requested, reference, author, request)

        scenarios._request_deletions(Driver(), [], "REGULATOR", reason="recall", client_index=2)
        assert requested == []
        scenarios._request_deletions(
            Driver(), ["r1", "r2"], "REGULATOR", reason="recall", client_index=2
        )
        request = {"reason": "recall", "client_index": 2}
        assert requested == [("r1", "REGULATOR", request), ("r2", "REGULATOR", request)]

    def test_per_client_reports_one_client_bare_and_a_fleet_per_client(self):
        values = [{"b", "a"}, {"d", "c"}]
        assert scenarios._per_client(values[:1], {"n_clients": 1}) == ["a", "b"]
        assert scenarios._per_client(values, {"n_clients": 2}) == [["a", "b"], ["c", "d"]]

    @pytest.mark.parametrize(
        "name, key",
        [("coin-economy", "lost_wallets"), ("supply-chain-recall", "recalled_products")],
    )
    def test_a_fleet_reports_its_collections_per_client(self, name, key):
        single = run_scenario(name, seed=7, smoke=True)[key]
        fleet = run_scenario(name, seed=7, smoke=True, n_clients=2)[key]
        assert single == sorted(single)
        # Client 0 of a fleet runs the one-client workload's very seed.
        assert len(fleet) == 2 and fleet[0] == single
        assert all(per_client == sorted(per_client) for per_client in fleet)

    def test_drive_traffic_seeds_every_client_by_one_rule(self):
        from repro.workloads.fleet import derive_client_seed

        calls = {}

        class Simulator:
            def drive_fleet(self, workloads, **kwargs):
                calls.update(kwargs, workloads=workloads)

        def build(client_index, client_seed):
            return (client_index, client_seed)

        params = {"n_clients": 3, "mean_gap_ms": 12.0}
        scenarios._drive_traffic(Simulator(), params, build, seed=100)
        assert calls["workloads"] == [
            (0, 100),
            (1, derive_client_seed(100, 1)),
            (2, derive_client_seed(100, 2)),
        ]
        assert (calls["mean_gap_ms"], calls["start_at_ms"], calls["in_flight_budget"]) == (
            12.0,
            20.0,
            8,
        )
        scenarios._drive_traffic(Simulator(), {**params, "n_clients": 1}, build, seed=100)
        assert calls["workloads"] == [(0, 100)] and calls["in_flight_budget"] == 0

    def test_a_workload_scenario_rejects_an_empty_fleet(self):
        with pytest.raises(ValueError, match="n_clients must be at least 1"):
            run_scenario("gdpr-erasure", smoke=True, n_clients=0)

    def test_sharded_fleet_rejects_zero_shards(self):
        with pytest.raises(ScenarioError, match="shards must be at least 1"):
            run_scenario("sharded-fleet", smoke=True, shards=0)

    def test_run_traffic_settles_from_the_actual_completion(self, monkeypatch):
        simulator, kernel = scenarios._deployment(3, {"anchors": 3, "fanout": 2})
        params = {"settle_ms": 100.0, "idle_heartbeat_ms": 30.0, "anti_entropy_interval_ms": 25.0}
        order = []
        monkeypatch.setattr(
            simulator.producer.chain, "idle_tick", lambda: order.append(("tick", kernel.now))
        )
        monkeypatch.setattr(
            simulator,
            "enable_anti_entropy",
            lambda **bounds: order.append(("anti-entropy", kernel.now, bounds)),
        )
        completed = scenarios._run_traffic(
            [simulator],
            kernel,
            _FinishAt(kernel, 50.0),
            params,
            then=lambda: order.append(("then", kernel.now)),
            anti_entropy=True,
        )
        assert completed == 50.0
        # then() first, heartbeats for settle_ms, digest rounds four quiet
        # intervals past the last heartbeat.
        assert order == [
            ("then", 50.0),
            ("anti-entropy", 50.0, {"interval_ms": 25.0, "until": 250.0}),
            ("tick", 80.0),
            ("tick", 110.0),
            ("tick", 140.0),
        ]

    def test_deployment_gossips_over_a_seeded_clique(self):
        simulator, kernel = scenarios._deployment(11, {"anchors": 5, "fanout": 3})
        overlay = simulator.gossip
        assert (overlay.fanout, overlay.seed) == (3, 13)
        for node_id in simulator.anchor_ids:
            assert overlay.topology.neighbours(node_id) == set(simulator.anchor_ids) - {node_id}
        assert (kernel.seed, simulator.transport.latency.seed) == (11, 12)

    def test_deployment_joins_a_given_kernel(self):
        kernel = EventKernel(seed=1)
        simulator, joined = scenarios._deployment(11, {"anchors": 3, "fanout": 2}, kernel=kernel)
        assert joined is kernel and simulator.kernel is kernel

    def test_workload_chain_config_is_the_paper_config_with_the_idle_interval(self):
        config = scenarios._workload_chain_config({"empty_block_interval_ticks": 77})
        assert config == dataclasses.replace(
            ChainConfig.paper_evaluation(), empty_block_interval=77
        )

    def test_book_logins_reports_accepted_indices_as_they_land(self):
        simulator, kernel = scenarios._deployment(5, {"anchors": 3, "fanout": 2})
        params = {"events": 4, "entry_gap_ms": 30.0}
        accepted = scenarios._book_logins(
            simulator, kernel, params, start_ms=10.0, to_producer=True
        )
        assert accepted == []
        kernel.run()
        assert accepted == [0, 1, 2, 3]
        blocks = simulator.producer.chain.blocks
        logged = [entry.data["D"] for block in blocks for entry in block.entries]
        assert logged == [f"Login ALPHA #{index}" for index in range(4)]

    def test_fleet_headline_lifts_the_fleet_block(self):
        result = run_scenario("fleet-saturation", seed=7, smoke=True)
        fleet = result["report"]["workloads"]["login-audit"]
        assert result["offered_load_per_s"] == 8 / 400.0 * 1000.0
        assert (result["throughput_per_s"], result["shed"], result["in_flight_peak"]) == (
            fleet["throughput_per_s"],
            fleet["shed"],
            fleet["in_flight_peak"],
        )
        assert result["request_p99_ms"] == fleet["request_latency_ms"]["p99"]

    def test_tenant_workload_prefixes_every_user_with_its_tenant(self):
        from repro.workloads.logging import LoginAuditWorkload

        plain = LoginAuditWorkload(num_users=12, seed=5)
        tenant = scenarios._TenantLoginWorkload(tenant=7, num_users=12, seed=5)
        assert [tenant.user(index) for index in range(12)] == [
            f"T007:{plain.user(index)}" for index in range(12)
        ]

    def test_tenant_workload_changes_only_the_names(self):
        from repro.workloads.base import arrival_schedule
        from repro.workloads.logging import LoginAuditWorkload

        kwargs = {"num_events": 40, "num_users": 3, "deletion_rate": 0.3, "seed": 5}
        plain = arrival_schedule(LoginAuditWorkload(**kwargs), mean_gap_ms=10.0)
        tenant = arrival_schedule(
            scenarios._TenantLoginWorkload(tenant=2, **kwargs), mean_gap_ms=10.0
        )
        assert [(at, event.kind) for at, event in tenant] == [
            (at, event.kind) for at, event in plain
        ]
        assert [event.author for _, event in tenant] == [
            f"T002:{event.author}" for _, event in plain
        ]


class TestGossipDissemination:
    def build_kernel_deployment(self, *, anchors, topology, fanout=2, seed=5):
        kernel = EventKernel(seed=seed)
        ids = [f"anchor-{i}" for i in range(anchors)]
        if topology == "broadcast":
            gossip = None
        elif topology == "ring":
            gossip = GossipOverlay(GossipTopology.ring(ids), fanout=fanout, seed=seed)
        else:
            graph = GossipTopology.random_regular(ids, degree=3, seed=seed)
            gossip = GossipOverlay(graph, fanout=fanout, seed=seed)
        simulator = NetworkSimulator(
            anchor_count=anchors,
            config=ChainConfig(sequence_length=3),
            latency=LatencyModel(minimum_ms=10.0, maximum_ms=10.0, seed=seed),
            kernel=kernel,
            gossip=gossip,
        )
        simulator.add_client("ALPHA")
        return kernel, simulator

    def dissemination_time(self, topology) -> float:
        kernel, simulator = self.build_kernel_deployment(anchors=8, topology=topology)
        simulator.submit_entry(
            "ALPHA",
            {"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"},
            anchor_id=simulator.producer_id,
        )
        kernel.run()
        assert simulator.replicas_identical(), f"{topology} overlay did not converge"
        return kernel.now

    def test_ring_overlay_disseminates_slower_than_random_regular(self):
        # The kernel-level analogue of rounds_to_full_coverage: virtual time
        # until every replica holds the announced block.
        assert self.dissemination_time("ring") > self.dissemination_time("random-regular")

    def test_gossip_bounds_producer_egress(self):
        """Gossip pays redundant hops in *total* bytes, but the producer's own
        announcements per block are bounded by the fan-out instead of
        growing with the quorum; a broadcast is one direct hop per peer."""
        announcements = {}
        for topology in ("random-regular", "broadcast"):
            kernel, simulator = self.build_kernel_deployment(anchors=8, topology=topology)
            tap = simulator.transport.tap(
                lambda message: message.sender == simulator.producer_id
                and message.kind is MessageKind.BLOCK_ANNOUNCE
            )
            for index in range(3):
                simulator.submit_entry(
                    "ALPHA",
                    {"D": f"Login ALPHA #{index}", "K": "ALPHA", "S": "sig_ALPHA"},
                    anchor_id=simulator.producer_id,
                )
            kernel.run()
            announcements[topology] = len(tap)
            # Fan-out may leave a replica a hop short on a sparse graph; a
            # catch-up round shows both modes end on the same chain.
            for node_id in simulator.anchor_ids:
                if node_id != simulator.producer_id:
                    simulator.anchors[node_id].sync.catch_up(simulator.producer_id)
            assert simulator.replicas_identical(), f"{topology} did not converge"
        assert announcements == {"random-regular": 3 * 2, "broadcast": 3 * 7}

    def test_out_of_order_announcements_are_buffered_and_applied(self):
        transport = InMemoryTransport()
        config = ChainConfig(sequence_length=5)
        producer_chain = Blockchain(config)
        producer = AnchorNode("p", producer_chain, transport, is_producer=True)
        overlay = GossipOverlay(GossipTopology.fully_connected(["p", "r"]), fanout=1)
        replica = AnchorNode("r", Blockchain(config), transport, producer_id="p", gossip=overlay)
        # No peer list for the producer: its seal announcements go nowhere,
        # so this test controls the delivery order by hand.
        producer.connect(["p"])
        replica.connect(["p", "r"])

        first = producer_chain.add_entry_block({"D": "a", "K": "A", "S": "s"}, "A")
        second = producer_chain.add_entry_block({"D": "b", "K": "A", "S": "s"}, "A")

        def announce(block):
            return Message(
                kind=MessageKind.BLOCK_ANNOUNCE,
                sender="p",
                payload={
                    "block": block.to_dict(),
                    "gossip": {"item": block.block_hash, "hops": 0},
                },
            )

        # Deliver out of order: block 2 first (buffered), then block 1.
        assert replica.handle_message(announce(second)) is None
        assert replica.chain.head.block_number == 0  # gap: nothing applied yet
        replica.handle_message(announce(first))
        assert replica.chain.head.block_number == second.block_number
        # Duplicates are recognised and not re-ingested.
        assert replica.announce.ingest(second) is False

    def test_rejected_gossiped_block_is_not_reforwarded(self):
        """Regression: a block the engine rejects must be remembered as seen,
        or two neighbours would re-gossip it at each other forever."""
        from repro.consensus.base import ConsensusDecision, NullConsensus

        class RejectAll(NullConsensus):
            def validate_block(self, block, head):
                return ConsensusDecision(accepted=False, reason="rejected by policy")

        transport = InMemoryTransport()
        config = ChainConfig(sequence_length=5)
        producer_chain = Blockchain(config)
        producer = AnchorNode("p", producer_chain, transport, is_producer=True)
        producer.connect(["p"])
        overlay = GossipOverlay(GossipTopology.fully_connected(["p", "r"]), fanout=1)
        replica = AnchorNode(
            "r",
            Blockchain(config),
            transport,
            engine=RejectAll(),
            producer_id="p",
            gossip=overlay,
        )
        replica.connect(["p", "r"])
        block = producer_chain.add_entry_block({"D": "a", "K": "A", "S": "s"}, "A")
        assert replica.announce.ingest(block) is True
        assert replica.announce.rejected_blocks and replica.chain.head.block_number == 0
        # A re-announcement of the same rejected block is a known item now.
        assert replica.announce.ingest(block) is False
        assert len(replica.announce.rejected_blocks) == 1


class TestArrivalSchedule:
    def test_deterministic_monotonic_and_idle_aware(self):
        from repro.workloads import EventKind, arrival_schedule
        from repro.workloads.logging import LoginAuditWorkload

        workload = LoginAuditWorkload(num_events=15, num_users=3, idle_rate=0.3, seed=9)
        first = arrival_schedule(workload, mean_gap_ms=20.0)
        second = arrival_schedule(workload, mean_gap_ms=20.0)
        assert first == second  # pure function of the workload seed
        times = [at for at, _ in first]
        assert times == sorted(times) and len(times) == 15
        previous = 0.0
        saw_idle = False
        for at, event in first:
            if event.kind is EventKind.IDLE:
                saw_idle = True
                # Idle periods stretch the timeline by their tick count.
                assert at - previous >= event.idle_ticks * 1.0
            previous = at
        assert saw_idle

    def test_parameter_validation(self):
        from repro.workloads import arrival_schedule
        from repro.workloads.logging import LoginAuditWorkload

        workload = LoginAuditWorkload(num_events=3, num_users=2, seed=1)
        with pytest.raises(ValueError):
            arrival_schedule(workload, mean_gap_ms=0)
        with pytest.raises(ValueError):
            arrival_schedule(workload, mean_gap_ms=10.0, jitter=1.0)
