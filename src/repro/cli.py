"""Command-line driver.

``python -m repro`` exposes the paper's evaluation scenario and the main
analyses without writing any code:

* ``scenario`` — replay the Figs. 6-8 logging scenario and print the console
  dumps; ``--via remote`` drives a replicated anchor deployment and
  ``--store wal`` runs the chain on the durable journal backend,
* ``growth``   — compare chain growth with and without selective deletion,
* ``attack``   — print the 51 %-attack resistance table (Fig. 9),
* ``compare``  — run the baseline comparison (Section III alternatives),
* ``parity``   — replay one workload through the local, durable and
  networked ledger clients and check the statistics are identical,
* ``simulate`` — run a named scenario from the deterministic-kernel
  catalogue (``--list`` shows it) and print the result as JSON,
* ``lint``     — run the static-analysis pass (determinism, protocol, docs,
  reach and import invariants) over the tree; nonzero exit on any
  unsuppressed finding.

Every replay goes through the :class:`~repro.service.client.LedgerClient`
protocol, so the commands exercise the same layered service API applications
use.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path
from typing import Optional, Sequence

from repro.analysis.attack import attack_resistance_table
from repro.analysis.compare import run_comparison
from repro.analysis.metrics import final_reduction_factor
from repro.analysis.report import (
    render_chain,
    render_comparison_table,
    render_sequences,
    render_statistics,
)
from repro.core.chain import Blockchain
from repro.core.config import ChainConfig
from repro.core.schema import default_log_schema
from repro.lint.cli import add_lint_arguments, run_lint_command
from repro.network.scenarios import (
    ScenarioError,
    run_scenario,
    scenario_catalogue,
    scenario_names,
    validate_overrides,
)
from repro.network.simulator import NetworkSimulator
from repro.service.client import LedgerClient, LocalLedgerClient
from repro.storage.wal import JournalBlockStore
from repro.workloads.base import replay
from repro.workloads.logging import LoginAuditWorkload, PaperScenarioWorkload


def _build_chain(args: argparse.Namespace, config: ChainConfig, **chain_kwargs) -> Blockchain:
    """Chain on the requested storage backend (``--store``)."""
    if getattr(args, "store", "memory") == "wal":
        journal = Path(args.store_path or tempfile.mkdtemp(prefix="repro-wal-")) / "chain.journal"
        print(f"[storage] journal backend at {journal}")
        return Blockchain(config, store=JournalBlockStore(journal), **chain_kwargs)
    return Blockchain(config, **chain_kwargs)


def _run_scenario(args: argparse.Namespace) -> int:
    config = ChainConfig.paper_evaluation()
    workload = PaperScenarioWorkload(extra_cycles=args.cycles)
    if args.via == "remote":
        simulator = NetworkSimulator(
            anchor_count=3, config=config, schema=default_log_schema()
        )
        replay(workload, simulator.ledger_client())
        chain = simulator.producer.chain
        header = "selective deletion — paper scenario (3 anchor nodes)"
    else:
        chain = _build_chain(args, config, schema=default_log_schema())
        replay(workload, LocalLedgerClient(chain))
        header = "selective deletion — paper scenario"
    print(render_chain(chain, header=header))
    print(render_statistics(chain))
    print(render_sequences(chain))
    if args.via == "remote":
        simulator.kernel.run()  # let the last one-way announcements land
        print(f"replicas in sync: {simulator.sync_check().in_sync}")
    return 0


def _run_growth(args: argparse.Namespace) -> int:
    bounded = _build_chain(args, ChainConfig.paper_evaluation())
    unbounded = Blockchain(ChainConfig(sequence_length=3))
    replay(
        LoginAuditWorkload(num_events=args.events, num_users=5, seed=1),
        LocalLedgerClient(bounded),
    )
    replay(
        LoginAuditWorkload(num_events=args.events, num_users=5, seed=1),
        LocalLedgerClient(unbounded),
    )
    factor = final_reduction_factor(bounded.byte_size(), unbounded.byte_size())
    print(f"events replayed:          {args.events}")
    print(f"bounded chain blocks:     {bounded.length} ({bounded.byte_size()} bytes)")
    print(f"unbounded chain blocks:   {unbounded.length} ({unbounded.byte_size()} bytes)")
    print(f"storage reduction factor: {factor:.2f}x")
    return 0


def _run_parity(args: argparse.Namespace) -> int:
    """Replay one workload through every backend; compare the statistics."""
    config = ChainConfig.paper_evaluation()

    def workload() -> LoginAuditWorkload:
        return LoginAuditWorkload(
            num_events=args.events,
            num_users=4,
            deletion_rate=0.2,
            idle_rate=0.1,
            seed=args.seed,
        )

    journal = Path(tempfile.mkdtemp(prefix="repro-parity-")) / "chain.journal"
    simulator = NetworkSimulator(anchor_count=3, config=config)
    clients: dict[str, LedgerClient] = {
        "local/memory": LocalLedgerClient(Blockchain(config)),
        "local/wal": LocalLedgerClient(Blockchain(config, store=JournalBlockStore(journal))),
        "remote/3-anchors": simulator.ledger_client(),
    }
    statistics = {}
    for label, client in clients.items():
        replay(workload(), client)
        statistics[label] = client.statistics()
        print(f"{label:17s} -> {statistics[label]}")
    values = list(statistics.values())
    identical = all(value == values[0] for value in values)
    print(f"\nstatistics identical across backends: {identical}")
    simulator.kernel.run()  # let the last one-way announcements land
    print(f"replicas in sync: {simulator.sync_check().in_sync}")
    return 0 if identical else 1


def _parse_scenario_params(items: list[str]) -> dict:
    """Parse repeated ``--param KEY=VALUE`` overrides.

    Values are parsed as JSON (so numbers, booleans and lists work) with a
    plain-string fallback; validation against the scenario's parameter set
    happens in :func:`run_scenario`, which names any offending key.
    """
    overrides: dict = {}
    for item in items:
        key, separator, raw = item.partition("=")
        if not separator or not key:
            raise ValueError(f"--param expects KEY=VALUE, got {item!r}")
        try:
            overrides[key] = json.loads(raw)
        except json.JSONDecodeError:
            overrides[key] = raw
    return overrides


def _run_simulate(args: argparse.Namespace) -> int:
    """Run scenarios from the deterministic-kernel catalogue."""
    if args.list:
        for entry in scenario_catalogue():
            print(f"{entry.name:22s} {entry.description}")
        return 0
    if args.scenario is None:
        print("simulate: pass --scenario NAME (or --list to see the catalogue)")
        return 2
    try:
        overrides = _parse_scenario_params(args.param)
    except ValueError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    if getattr(args, "clients", None) is not None:
        overrides["n_clients"] = args.clients
    if getattr(args, "shards", None) is not None:
        overrides["shards"] = args.shards
    names = scenario_names() if args.scenario == "all" else [args.scenario]
    try:
        # Validate overrides against *every* selected scenario up front, so
        # `--scenario all --param typo=1` is rejected before anything runs
        # instead of aborting mid-run with partial output.
        for name in names:
            validate_overrides(name, overrides)
    except ScenarioError as exc:
        print(f"simulate: {exc}", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        try:
            result = run_scenario(name, seed=args.seed, smoke=args.smoke, **overrides)
        except ScenarioError as exc:
            print(f"simulate: {exc}", file=sys.stderr)
            return 2
        except (TypeError, ValueError) as exc:
            # Wrong-typed values are rejected up front by validate_overrides;
            # what remains here are domain violations a workload constructor
            # refuses (`records=-5`).  Without overrides the defaults are
            # known-good, so the same exception is an internal bug: let the
            # traceback through rather than blaming a parameter.
            if not overrides:
                raise
            print(
                f"simulate: scenario {name!r} rejected the given parameters: {exc}",
                file=sys.stderr,
            )
            return 2
        if args.check_determinism:
            rerun = run_scenario(name, seed=args.seed, smoke=args.smoke, **overrides)
            identical = json.dumps(result, sort_keys=True) == json.dumps(rerun, sort_keys=True)
            # stderr, so the verdict survives a piped/redirected stdout
            # (the CI smoke job discards the JSON payload).
            print(
                f"[determinism] {name}: byte-identical across two runs: {identical}",
                file=sys.stderr,
            )
            if not identical:
                status = 1
        print(json.dumps(result, indent=2, sort_keys=True))
    return status


def _run_attack(args: argparse.Namespace) -> int:
    rows = attack_resistance_table(
        chain_lengths=[10, 50, 100],
        attacker_shares=[0.2, 0.35, 0.45],
        trials=args.trials,
    )
    formatted = [
        {
            "chain_length": int(row["chain_length"]),
            "attacker_share": row["attacker_share"],
            "redundancy": "middle-seq" if row["redundancy"] else "none",
            "blocks_to_rewrite": int(row["blocks_to_rewrite"]),
            "analytic_success": f"{row['analytic_success']:.4f}",
            "simulated_success": f"{row['simulated_success']:.4f}",
        }
        for row in rows
    ]
    print(
        render_comparison_table(
            formatted,
            columns=[
                "chain_length",
                "attacker_share",
                "redundancy",
                "blocks_to_rewrite",
                "analytic_success",
                "simulated_success",
            ],
            title="51% attack resistance (Fig. 9)",
        )
    )
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    rows = [row.as_dict() for row in run_comparison(num_records=args.records)]
    print(
        render_comparison_table(
            rows,
            columns=[
                "system",
                "records",
                "erasures",
                "effective",
                "readable",
                "storage_bytes",
                "effort",
                "selective",
                "global",
                "trapdoor",
            ],
            title="Baseline comparison (Section III alternatives)",
        )
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="selective-deletion",
        description="Reproduction of 'Selective Deletion in a Blockchain' (ICDCS 2020)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    scenario = subparsers.add_parser("scenario", help="replay the Figs. 6-8 logging scenario")
    scenario.add_argument("--cycles", type=int, default=2, help="extra summarisation cycles")
    scenario.add_argument(
        "--via",
        choices=["local", "remote"],
        default="local",
        help="drive the chain in-process or through a 3-anchor deployment",
    )
    scenario.add_argument(
        "--store",
        choices=["memory", "wal"],
        default="memory",
        help="storage backend for the local chain",
    )
    scenario.add_argument("--store-path", default=None, help="directory for the wal journal")
    scenario.set_defaults(func=_run_scenario)

    growth = subparsers.add_parser("growth", help="bounded vs unbounded chain growth")
    growth.add_argument("--events", type=int, default=300, help="number of login events")
    growth.add_argument(
        "--store",
        choices=["memory", "wal"],
        default="memory",
        help="storage backend for the bounded chain",
    )
    growth.add_argument("--store-path", default=None, help="directory for the wal journal")
    growth.set_defaults(func=_run_growth)

    parity = subparsers.add_parser(
        "parity", help="same workload through local, durable and networked clients"
    )
    parity.add_argument("--events", type=int, default=120, help="workload events")
    parity.add_argument("--seed", type=int, default=5, help="workload seed")
    parity.set_defaults(func=_run_parity)

    simulate = subparsers.add_parser(
        "simulate", help="run a named deterministic network scenario"
    )
    simulate.add_argument(
        "--scenario",
        default=None,
        help="scenario name from the catalogue, or 'all' (see --list)",
    )
    simulate.add_argument("--seed", type=int, default=7, help="simulation seed")
    simulate.add_argument(
        "--smoke", action="store_true", help="tiny parameters (CI smoke runs)"
    )
    simulate.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one scenario parameter (repeatable); VALUE is JSON or a string",
    )
    simulate.add_argument(
        "--clients",
        type=int,
        default=None,
        metavar="N",
        help="shorthand for --param n_clients=N (fleet size on workload scenarios)",
    )
    simulate.add_argument(
        "--shards",
        type=int,
        default=None,
        metavar="K",
        help="shorthand for --param shards=K (deployment count on sharded-fleet)",
    )
    simulate.add_argument(
        "--check-determinism",
        action="store_true",
        help="run twice and verify the results are byte-identical",
    )
    simulate.add_argument(
        "--list", action="store_true", help="list the scenario catalogue and exit"
    )
    simulate.set_defaults(func=_run_simulate)

    attack = subparsers.add_parser("attack", help="51% attack resistance table")
    attack.add_argument("--trials", type=int, default=500, help="Monte-Carlo trials per cell")
    attack.set_defaults(func=_run_attack)

    compare = subparsers.add_parser("compare", help="baseline comparison table")
    compare.add_argument("--records", type=int, default=120, help="records per system")
    compare.set_defaults(func=_run_compare)

    lint = subparsers.add_parser(
        "lint", help="static analysis: determinism, protocol, docs, reach and imports"
    )
    add_lint_arguments(lint)
    lint.set_defaults(func=run_lint_command)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Console-script entry point."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
