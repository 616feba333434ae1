"""Tests for workload generators, analysis metrics, attack model, reports, CLI."""

import pytest

from repro.analysis import (
    DeletionLatencyTracker,
    analytic_success_probability,
    attack_resistance_table,
    confirmation_depth,
    final_reduction_factor,
    growth_curve,
    measure_deletion_latency,
    peak_living_blocks,
    render_chain,
    render_comparison_table,
    render_events,
    render_statistics,
    run_comparison,
    simulate_attack,
    summary_size_profile,
)
from repro.cli import main as cli_main
from repro.core import Blockchain, ChainConfig, EntryReference, RedundancyPolicy
from repro.core.events import ChainEvent, EventType
from repro.workloads.logging import login_record
from repro.workloads import (
    CoinTransferWorkload,
    EventKind,
    GdprErasureWorkload,
    LoginAuditWorkload,
    PaperScenarioWorkload,
    SupplyChainWorkload,
    VehicleLifecycleWorkload,
    replay,
)


class TestLoggingWorkloads:
    def test_paper_scenario_reproduces_marker_shift(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        result = replay(PaperScenarioWorkload(extra_cycles=1), chain)
        assert result.deletions == 1
        assert result.deletions_approved == 1
        assert chain.genesis_marker >= 6
        assert chain.find_entry(EntryReference(3, 1)) is None
        assert chain.find_entry(EntryReference(1, 1)) is not None

    def test_login_audit_workload_is_deterministic(self):
        first = list(LoginAuditWorkload(num_events=50, seed=5))
        second = list(LoginAuditWorkload(num_events=50, seed=5))
        assert [e.kind for e in first] == [e.kind for e in second]
        assert [e.author for e in first] == [e.author for e in second]

    def test_login_audit_deletions_target_existing_blocks(self):
        chain = Blockchain(ChainConfig(sequence_length=3))
        workload = LoginAuditWorkload(num_events=200, num_users=3, deletion_rate=0.2, seed=9)
        result = replay(workload, chain)
        assert result.deletions > 0
        # Approximate targeting means some requests may be rejected, but the
        # majority must hit existing entries of the right user.
        assert result.deletions_approved >= result.deletions * 0.5
        chain.validate()

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            LoginAuditWorkload(num_users=0)
        with pytest.raises(ValueError):
            LoginAuditWorkload(deletion_rate=2.0)

    def test_idle_events_trigger_empty_blocks(self):
        config = ChainConfig.paper_evaluation()
        config = type(config).from_dict({**config.to_dict(), "empty_block_interval": 2})
        chain = Blockchain(config)
        workload = LoginAuditWorkload(num_events=60, idle_rate=0.5, idle_ticks=5, seed=3)
        result = replay(workload, chain)
        assert result.idle_blocks > 0


class TestDomainWorkloads:
    def test_supply_chain_entries_expire(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        workload = SupplyChainWorkload(num_products=10, shelf_life_ticks=5, seed=2)
        result = replay(workload, chain)
        assert result.entries == 10 * len(workload.stages)
        # Shelf life is tiny compared to the chain length, so expired product
        # stages must have been dropped during summarisation.
        assert chain.deleted_entry_count > 0
        chain.validate()

    def test_supply_chain_parameter_validation(self):
        with pytest.raises(ValueError):
            SupplyChainWorkload(shelf_life_ticks=0)

    def test_vehicle_workload_marks_decommissioning(self):
        workload = VehicleLifecycleWorkload(num_vehicles=10, decommission_fraction=1.0, seed=1)
        events = list(workload)
        decommissions = [
            e for e in events if e.kind is EventKind.ENTRY and e.data.get("maintenance") == "decommissioned"
        ]
        assert len(decommissions) == 10
        with pytest.raises(ValueError):
            VehicleLifecycleWorkload(decommission_fraction=3.0)

    def test_coin_workload_dependencies(self):
        workload = CoinTransferWorkload(num_transfers=50, seed=4)
        transfers = workload.transfers()
        assert len(transfers) == 50
        spends = [t for t in transfers if t.spends is not None]
        assert spends
        assert all(t.spends < t.transfer_id for t in spends)
        assert workload.lost_wallets()
        data = transfers[0].to_entry_data()
        assert {"D", "K", "S", "transfer_id"} <= set(data)

    def test_vehicle_entries_name_their_vin_and_a_rotating_workshop(self):
        workload = VehicleLifecycleWorkload(num_vehicles=3, events_per_vehicle=4, workshops=2, seed=1)
        assert (workload.vin(7), workload.workshop(0), workload.workshop(3)) == (
            "VIN000007",
            "WORKSHOP00",
            "WORKSHOP01",
        )
        maintenance = [e for e in workload if e.data.get("maintenance") != "decommissioned"]
        assert {e.author for e in maintenance} == {workload.workshop(i) for i in range(2)}
        assert {e.data["vin"] for e in maintenance} == {workload.vin(i) for i in range(3)}

    def test_supply_chain_stations_rotate_through_the_stages(self):
        workload = SupplyChainWorkload(num_products=4, stations=3, seed=2)
        assert workload.station(1) == workload.station(4) == "STATION01"
        authors = {e.author for e in workload if e.kind is EventKind.ENTRY}
        assert authors == {workload.station(i) for i in range(3)}

    def test_coin_transfers_move_between_named_wallets(self):
        workload = CoinTransferWorkload(num_transfers=30, num_wallets=4, lost_wallet_fraction=0.5, seed=4)
        wallets = {workload.wallet(i) for i in range(4)}
        assert workload.wallet(3) == "WALLET03"
        assert all({t.sender, t.receiver} <= wallets for t in workload.transfers())
        assert workload.lost_wallets() == {"WALLET02", "WALLET03"}
        assert CoinTransferWorkload(lost_wallet_fraction=0.0).lost_wallets() == set()

    def test_login_record_has_the_papers_d_k_s_fields(self):
        assert login_record("ALPHA") == {"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"}
        assert login_record("BRAVO", detail="from 10.0.0.2")["D"] == "Login BRAVO from 10.0.0.2"

    def test_gdpr_workload_schedule(self):
        workload = GdprErasureWorkload(num_records=40, erasure_probability=0.5, seed=6)
        cases = workload.cases()
        assert len(cases) == 40
        schedule = workload.erasure_schedule()
        scheduled = sum(len(indices) for indices in schedule.values())
        assert scheduled == sum(1 for case in cases if case.erase_after is not None)
        assert all(position > index for position, indices in schedule.items() for index in indices)
        with pytest.raises(ValueError):
            GdprErasureWorkload(min_delay=0)


class TestMetrics:
    def test_growth_curve_and_reduction(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        result = replay(LoginAuditWorkload(num_events=60, seed=1), chain, sample_every=10)
        curve = growth_curve(result.length_series, result.size_series)
        assert curve
        assert peak_living_blocks(curve) <= 9  # bounded by the retention policy
        assert final_reduction_factor(100, 400) == 4.0
        assert final_reduction_factor(0, 10) == float("inf")

    def test_deletion_latency_measurement(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        replay(PaperScenarioWorkload(extra_cycles=1), chain)
        latencies = measure_deletion_latency(chain)
        assert latencies
        assert all(latency.blocks_waited >= 0 for latency in latencies)

    def test_a_tracker_attached_live_matches_the_recorded_trail(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        tracker = DeletionLatencyTracker()
        tracker.attach(chain)
        replay(PaperScenarioWorkload(extra_cycles=2), chain)
        assert tracker.latencies
        assert tracker.latencies == measure_deletion_latency(chain)

    @staticmethod
    def deletion_event(event_type, number, reference=(3, 1), **payload):
        if reference is not None:
            payload["reference"] = {"block_number": reference[0], "entry_number": reference[1]}
        return ChainEvent(block_number=number, kind=event_type.value, detail="", payload=payload)

    def test_the_first_approved_request_starts_the_clock(self):
        tracker = DeletionLatencyTracker().consume(
            [
                self.deletion_event(EventType.DELETION_REQUESTED, 5, approved=False),
                self.deletion_event(EventType.DELETION_REQUESTED, 6, approved=True),
                self.deletion_event(EventType.DELETION_REQUESTED, 7, approved=True),
                self.deletion_event(EventType.DELETION_EXECUTED, 11),
            ]
        )
        (latency,) = tracker.latencies
        assert (latency.requested_at_block, latency.executed_at_block, latency.blocks_waited) == (6, 11, 5)

    def test_unmatched_and_unaddressed_events_are_ignored(self):
        tracker = DeletionLatencyTracker().consume(
            [
                self.deletion_event(EventType.DELETION_EXECUTED, 4),
                self.deletion_event(EventType.DELETION_REQUESTED, 5, reference=None, approved=True),
                self.deletion_event(EventType.DELETION_REQUESTED, 6, reference=(2, 1), approved=True),
                self.deletion_event(EventType.DELETION_EXECUTED, 9, reference=(2, 2)),
            ]
        )
        assert tracker.latencies == []

    def test_summary_size_profile_and_effectiveness(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        replay(PaperScenarioWorkload(extra_cycles=2), chain)
        profile = summary_size_profile(chain)
        assert profile
        assert all(sample.byte_size > 0 for sample in profile)
        deletions = chain.statistics()["deletions"]
        assert deletions["approved"] >= 1
        assert 0 <= deletions["executed"] <= deletions["approved"]


class TestAttackModel:
    def test_confirmation_depth_policies(self):
        without = confirmation_depth(100, RedundancyPolicy.NONE)
        with_redundancy = confirmation_depth(100, RedundancyPolicy.MIDDLE_MERKLE_ROOT)
        assert without.blocks_to_rewrite == 1
        assert with_redundancy.blocks_to_rewrite == 50
        with pytest.raises(ValueError):
            confirmation_depth(0, RedundancyPolicy.NONE)

    def test_analytic_probability(self):
        assert analytic_success_probability(0.5, 10) == 1.0
        assert analytic_success_probability(0.3, 0) == 1.0
        assert analytic_success_probability(0.3, 10) < analytic_success_probability(0.3, 2)
        with pytest.raises(ValueError):
            analytic_success_probability(1.5, 3)
        with pytest.raises(ValueError):
            analytic_success_probability(0.3, -1)

    def test_simulation_matches_intuition(self):
        weak = simulate_attack(attacker_share=0.2, blocks_to_rewrite=10, trials=300, seed=1)
        strong = simulate_attack(attacker_share=0.45, blocks_to_rewrite=2, trials=300, seed=1)
        assert weak.success_rate <= strong.success_rate
        assert 0.0 <= weak.success_rate <= 1.0
        with pytest.raises(ValueError):
            simulate_attack(attacker_share=2.0, blocks_to_rewrite=1)

    def test_attack_table_shape_and_shape_of_result(self):
        rows = attack_resistance_table([10, 40], [0.3], trials=100)
        assert len(rows) == 4  # 2 lengths x 1 share x 2 policies
        no_redundancy = [row for row in rows if row["redundancy"] == 0.0]
        redundant = [row for row in rows if row["redundancy"] == 1.0]
        # Redundancy increases the number of blocks to rewrite with length.
        assert all(row["blocks_to_rewrite"] == 1.0 for row in no_redundancy)
        assert redundant[1]["blocks_to_rewrite"] > redundant[0]["blocks_to_rewrite"]


class TestComparisonAndReports:
    def test_run_comparison_shows_selective_deletion_advantage(self):
        rows = {row.system: row for row in run_comparison(num_records=40, seed=3)}
        selective = rows["selective-deletion"]
        immutable = rows["immutable-full-chain"]
        chameleon = rows["chameleon-redaction"]
        assert selective.erasures_effective > 0
        assert immutable.erasures_effective == 0
        assert immutable.records_still_readable == immutable.records_written
        # Every approved erasure has executed by the time the row is taken
        # (the filler drain), and nothing else went missing.
        assert (
            selective.records_still_readable
            == selective.records_written - selective.erasures_effective
        )
        assert selective.capabilities["selective_deletion"]
        assert chameleon.capabilities["requires_trapdoor_holder"]

    def test_erasures_shrink_the_selective_chain(self):
        """More GDPR erasures must translate into a smaller living chain."""
        few = {row.system: row for row in run_comparison(num_records=60, erasure_probability=0.05, seed=3)}
        many = {row.system: row for row in run_comparison(num_records=60, erasure_probability=0.9, seed=3)}
        assert (
            many["selective-deletion"].storage_bytes < few["selective-deletion"].storage_bytes
        )
        # The immutable baseline does not shrink regardless of erasure demand.
        assert many["immutable-full-chain"].storage_bytes == few["immutable-full-chain"].storage_bytes

    def test_render_chain_matches_paper_format(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        replay(PaperScenarioWorkload(extra_cycles=0), chain)
        text = render_chain(chain, header="Fig. 6")
        assert "Fig. 6" in text
        assert "DEADB" in text or "genesis marker" in text
        assert "K: ALPHA" in text
        stats = render_statistics(chain)
        assert "living blocks" in stats
        events = render_events(chain, kinds=["summary-created"])
        assert "summary block" in events

    def test_render_comparison_table(self):
        table = render_comparison_table(
            [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}], columns=["a", "b"], title="t"
        )
        assert "t" in table and "22" in table
        assert render_comparison_table([], columns=["a"], title="empty") == "empty"


class TestCli:
    def test_scenario_command(self, capsys):
        assert cli_main(["scenario", "--cycles", "1"]) == 0
        output = capsys.readouterr().out
        assert "genesis marker" in output

    def test_growth_command(self, capsys):
        assert cli_main(["growth", "--events", "40"]) == 0
        assert "reduction factor" in capsys.readouterr().out

    def test_attack_command(self, capsys):
        assert cli_main(["attack", "--trials", "50"]) == 0
        assert "51%" in capsys.readouterr().out

    def test_the_help_names_the_attack_command(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        assert "51% attack resistance table" in " ".join(capsys.readouterr().out.split())

    def test_compare_command(self, capsys):
        assert cli_main(["compare", "--records", "30"]) == 0
        assert "selective-deletion" in capsys.readouterr().out

    def test_simulate_command_with_param_override(self, capsys):
        assert (
            cli_main(
                ["simulate", "--scenario", "clock-skew", "--smoke", "--param", "post_events=1"]
            )
            == 0
        )
        assert '"post_events": 1' in capsys.readouterr().out

    def test_simulate_command_rejects_typo_param_with_guidance(self, capsys):
        status = cli_main(["simulate", "--scenario", "clock-skew", "--param", "post_evnts=1"])
        assert status == 2
        captured = capsys.readouterr()
        assert "'post_evnts'" in captured.err  # the offending key, named
        assert "'post_events'" in captured.err  # the valid parameters, listed

    def test_simulate_command_rejects_malformed_param(self, capsys):
        status = cli_main(["simulate", "--scenario", "clock-skew", "--param", "post_events"])
        assert status == 2
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_simulate_command_rejects_unusable_param_value_cleanly(self, capsys):
        # A well-named key with a value the scenario cannot use must exit 2
        # with a message, not escape as a traceback.  A wrong *type* is
        # rejected up front with the expected type named ...
        status = cli_main(
            ["simulate", "--scenario", "gdpr-erasure", "--param", "records=ten"]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert "expects int" in captured.err and "'ten'" in captured.err
        assert captured.out == ""  # rejected before anything ran
        # ... a right-typed value outside the workload's domain exits just
        # as cleanly once the constructor refuses it.
        status = cli_main(
            ["simulate", "--scenario", "gdpr-erasure", "--param", "records=-5"]
        )
        assert status == 2
        assert "rejected the given parameters" in capsys.readouterr().err

    def test_simulate_all_rejects_non_shared_param_before_running(self, capsys):
        # 'post_events' exists only on clock-skew: with --scenario all the
        # override must be rejected up front — no partial scenario output.
        status = cli_main(
            ["simulate", "--scenario", "all", "--smoke", "--param", "post_events=1"]
        )
        assert status == 2
        captured = capsys.readouterr()
        assert captured.out == ""  # nothing ran
        assert "'post_events'" in captured.err
