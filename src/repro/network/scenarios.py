"""Named simulation scenarios on the deterministic event kernel.

The paper's evaluation ran hand-crafted fault experiments against a live
CORBA deployment (Section V).  This module packages the interesting runs as
a *catalogue of named scenarios*: each entry builds a kernel-backed
deployment, books traffic and faults on the virtual clock, drains the
simulation and returns a plain-dict result.

Determinism guarantee: a scenario is a pure function of ``(name, seed,
parameters)``.  Every random choice — latency samples, event tie-breaking,
gossip fan-out selection, workload contents — draws from seeded generators,
and virtual time only advances through the kernel, so two runs with the same
inputs produce byte-identical result dictionaries (pinned by
``tests/test_scenarios.py``).

Run from the command line::

    python -m repro simulate --list
    python -m repro simulate --scenario coin-economy --seed 11
    python -m repro simulate --scenario failover-storm --smoke

The catalogue is the ``@scenario`` registrations below; ``python -m repro
simulate --list`` prints every name with its one-line description.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Optional

from repro.adversary import (
    ClockSkewedReplica,
    DeletionForger,
    DigestSpoofer,
    EquivocatingProducer,
)
from repro.analysis.attack import (
    analytic_success_probability,
    confirmation_depth,
    simulate_attack,
)
from repro.authz.bell_lapadula import BellLaPadulaModel, SecurityLevel
# repro: allow[REPRO-S602] CohesionChecker names "Blockchain" as a forward reference get_type_hints resolves here
from repro.core.chain import Blockchain, CohesionChecker
from repro.core.config import ChainConfig, RedundancyPolicy
from repro.core.entry import EntryReference
from repro.core.errors import SelectiveDeletionError
from repro.network.gossip import GossipOverlay, GossipTopology
from repro.network.kernel import EventKernel
from repro.network.message import reset_message_counter
from repro.network.simulator import NetworkSimulator, SimulationReport
from repro.network.transport import LatencyModel, spawn
from repro.service.client import SubmitReceipt
from repro.service.sharding import ShardRouter
from repro.workloads.coins import CoinTransferWorkload
from repro.workloads.fleet import FleetDriver, derive_client_seed
from repro.workloads.stats import has_samples
from repro.workloads.gdpr import GdprErasureWorkload
from repro.workloads.logging import LoginAuditWorkload
from repro.workloads.supply_chain import SupplyChainWorkload
from repro.workloads.vehicle import VehicleLifecycleWorkload

#: A scenario body: ``(seed, params) -> result-extras dict``.
ScenarioFn = Callable[[int, dict[str, Any]], dict[str, Any]]


class ScenarioError(SelectiveDeletionError):
    """Raised for unknown scenario names or invalid parameters."""


@dataclass(frozen=True)
class Scenario:
    """One catalogue entry."""

    name: str
    description: str
    defaults: dict[str, Any]
    smoke: dict[str, Any]
    fn: ScenarioFn


SCENARIOS: dict[str, Scenario] = {}


def scenario(
    name: str,
    description: str,
    *,
    defaults: dict[str, Any],
    smoke: Optional[dict[str, Any]] = None,
) -> Callable[[ScenarioFn], ScenarioFn]:
    """Register a scenario under ``name`` with default / smoke parameters."""

    def register(fn: ScenarioFn) -> ScenarioFn:
        stray = set(smoke or {}) - set(defaults)
        if stray:
            # A typo'd smoke key would otherwise silently become a new
            # parameter nothing reads; fail at registration instead.
            raise ScenarioError(
                f"smoke parameter(s) {sorted(stray)} of scenario {name!r} are not "
                f"declared in defaults {sorted(defaults)}"
            )
        SCENARIOS[name] = Scenario(
            name=name,
            description=description,
            defaults=dict(defaults),
            smoke=dict(smoke or {}),
            fn=fn,
        )
        return fn

    return register


def scenario_names() -> list[str]:
    """All registered scenario names, sorted."""
    return sorted(SCENARIOS)


def scenario_catalogue() -> list[Scenario]:
    """All registered scenarios, sorted by name."""
    return [SCENARIOS[name] for name in scenario_names()]


def validate_overrides(name: str, overrides: dict[str, Any]) -> None:
    """Raise :class:`ScenarioError` for override keys ``name`` lacks — or
    values whose type does not match the parameter's default.

    Exposed so callers running *several* scenarios (``simulate --scenario
    all``) can reject a typo'd parameter up front instead of aborting
    mid-run after some scenarios already executed.  The type check turns
    ``records="ten"`` into a named, listed error before :func:`run_scenario`
    casts it to the default's type.
    """
    entry = SCENARIOS.get(name)
    if entry is None:
        raise ScenarioError(f"unknown scenario {name!r}; available: {scenario_names()}")
    unknown = set(overrides) - set(entry.defaults)
    if unknown:
        offending = ", ".join(repr(key) for key in sorted(unknown))
        raise ScenarioError(
            f"unknown parameter(s) {offending} for scenario {name!r}; "
            f"valid parameters: {sorted(entry.defaults)}"
        )
    for key in sorted(overrides):
        default, value = entry.defaults[key], overrides[key]
        if isinstance(default, bool) or isinstance(value, bool):
            acceptable = isinstance(default, bool) and isinstance(value, bool)
        elif isinstance(default, (int, float)):
            acceptable = isinstance(value, (int, float))
        else:
            acceptable = isinstance(value, type(default))
        if not acceptable:
            raise ScenarioError(
                f"parameter {key!r} of scenario {name!r} expects "
                f"{type(default).__name__} (default {default!r}), "
                f"got {type(value).__name__} {value!r}"
            )


def run_scenario(
    name: str, *, seed: int = 7, smoke: bool = False, **overrides: Any
) -> dict[str, Any]:
    """Run a named scenario and return its plain-dict result.

    ``smoke`` applies the scenario's tiny-parameter overrides (CI smoke
    jobs); explicit ``overrides`` win over both defaults and smoke values.
    The result is byte-identical across runs for the same inputs.
    """
    validate_overrides(name, overrides)
    entry = SCENARIOS[name]
    params = dict(entry.defaults)
    if smoke:
        params.update(entry.smoke)
    params.update(overrides)
    # Bodies read numeric parameters bare: each is cast to its default's
    # type here, once (``events=8.0`` loops 8 times, ``settle_ms=300`` is a
    # float).  The echoed "parameters" keep the values as passed.
    typed = dict(params)
    for key, default in entry.defaults.items():
        if isinstance(default, (int, float)) and not isinstance(default, bool):
            typed[key] = type(default)(params[key])
    # Message ids are process-global; rewind them so byte accounting is
    # identical no matter what ran earlier in the process.
    reset_message_counter()
    result = entry.fn(seed, typed)
    return {
        "scenario": name,
        "seed": seed,
        "smoke": smoke,
        "parameters": {key: params[key] for key in sorted(params)},
        **result,
    }


# --------------------------------------------------------------------- #
# Deployment helpers
# --------------------------------------------------------------------- #


def _deployment(
    seed: int,
    params: dict[str, Any],
    *,
    kernel: Optional[EventKernel] = None,
    config: Optional[ChainConfig] = None,
    admins: tuple[str, ...] = (),
    cohesion_checker: Optional[CohesionChecker] = None,
) -> tuple[NetworkSimulator, EventKernel]:
    """A kernel-backed deployment with independently seeded randomness.

    Size, gossip fan-out and loss rate come from the scenario's ``anchors``
    / ``fanout`` / ``loss_rate`` parameters; every anchor gossips over a
    clique overlay.  ``kernel`` joins an existing virtual clock (further
    shards) instead of starting one.

    The default chain config keeps every block (no retention limit): most
    fault scenarios rely on isolated replicas *catching up* over the wire,
    which is only possible while the missed normal blocks are still living.
    ``replica-bootstrap`` runs the paper's evaluation config instead, so a
    marker shift opens a gap that only the snapshot bootstrap can close.
    """
    if kernel is None:
        kernel = EventKernel(seed=seed)
    ids = [f"anchor-{index}" for index in range(params["anchors"])]
    simulator = NetworkSimulator(
        anchor_count=params["anchors"],
        config=config or ChainConfig(sequence_length=3),
        latency=LatencyModel(seed=seed + 1),
        kernel=kernel,
        gossip=GossipOverlay(
            GossipTopology.fully_connected(ids), fanout=params["fanout"], seed=seed + 2
        ),
        loss_rate=params.get("loss_rate", 0.0),
        loss_seed=seed + 3,
        admins=admins,
        cohesion_checker=cohesion_checker,
    )
    return simulator, kernel


def _workload_chain_config(params: dict[str, Any]) -> ChainConfig:
    """The paper's evaluation config plus the scenario's idle interval."""
    return dataclasses.replace(
        ChainConfig.paper_evaluation(),
        empty_block_interval=params["empty_block_interval_ticks"],
    )


def _book_idle_heartbeat(
    simulator: NetworkSimulator, kernel: EventKernel, params: dict[str, Any], *, until: float
) -> None:
    """Ask the producer periodically whether the idle interval elapsed.

    The heartbeat stands in for the operator's empty-block cron job
    (Section IV-D3): it merely *asks* — whether an empty block actually
    appears is decided by simulated time, and empty blocks are what keep
    delayed deletions moving once workload traffic has ended.
    """
    kernel.every(
        params["idle_heartbeat_ms"],
        lambda: simulator.producer.chain.idle_tick(),
        label="idle-heartbeat",
        until=until,
    )


def _login(user: str, index: int) -> dict[str, str]:
    return {"D": f"Login {user} #{index}", "K": user, "S": f"sig_{user}"}


def _spawn_at(kernel: EventKernel, at: float, process: Callable[[], Any], *, label: str) -> None:
    """Start the kernel process ``process()`` at virtual time ``at``."""
    kernel.schedule_at(at, lambda: spawn(kernel, process()), label=label)


def _spawn_each(
    kernel: EventKernel, count: int, at_ms: float, gap_ms: float, process: Callable, *, label: str
) -> None:
    """Start ``process(i)`` at ``at_ms + i * gap_ms`` for each ``i < count``, in order."""
    for index in range(count):
        at = at_ms + index * gap_ms
        _spawn_at(kernel, at, lambda index=index: process(index), label=f"{label}-{index}")


def _book_logins(
    simulator: NetworkSimulator,
    kernel: EventKernel,
    params: dict[str, Any],
    *,
    start_ms: float,
    to_producer: bool = False,
) -> list[int]:
    """Book ``events`` logins of a client ALPHA, ``entry_gap_ms`` apart.

    Each goes to whoever is producer when it fires (``to_producer``) or
    walks the anchors until one accepts.  Returns the list the accepted
    indices are appended to as the run proceeds.
    """
    simulator.add_client("ALPHA")
    accepted: list[int] = []

    def submit(index: int) -> Any:
        response = yield from simulator.submit_entry_process(
            "ALPHA",
            _login("ALPHA", index),
            anchor_id=simulator.producer_id if to_producer else None,
        )
        if not response.is_error:
            accepted.append(index)

    _spawn_each(kernel, params["events"], start_ms, params["entry_gap_ms"], submit, label="entry")
    return accepted


def _outcome(
    simulator: NetworkSimulator, report: SimulationReport, **extras: Any
) -> dict[str, Any]:
    """The result every single-deployment scenario ends on."""
    return {
        "report": report.as_dict(),
        **extras,
        "heads": simulator.all_heads(),
        "replicas_identical": simulator.replicas_identical(),
    }


# --------------------------------------------------------------------- #
# Catalogue
# --------------------------------------------------------------------- #


@scenario(
    "failover-storm",
    "the producer dies mid-traffic; the quorum elects a new one over delayed ballots",
    defaults={
        "anchors": 4,
        "events": 12,
        "entry_gap_ms": 50.0,
        "fail_at_ms": 200.0,
        "elect_at_ms": 280.0,
        "recover_at_ms": 640.0,
        "fanout": 2,
    },
    smoke={"events": 6, "fail_at_ms": 120.0, "elect_at_ms": 170.0, "recover_at_ms": 340.0},
)
def _failover_storm(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    simulator, kernel = _deployment(seed, params)
    first_producer = simulator.producer_id
    simulator.transport.schedule_offline(first_producer, params["fail_at_ms"])
    _spawn_at(
        kernel,
        params["elect_at_ms"],
        lambda: simulator.elect_new_producer_process(exclude=(first_producer,)),
        label="failover-election",
    )
    simulator.schedule_online(first_producer, params["recover_at_ms"])
    _spawn_at(
        kernel,
        params["recover_at_ms"] + 30.0,
        lambda: simulator.anchors[first_producer].sync.catch_up_process(simulator.producer_id),
        label=f"catch-up:{first_producer}",
    )
    accepted = _book_logins(simulator, kernel, params, start_ms=25.0)
    report = simulator.finalize()
    simulator.anchors[first_producer].sync.catch_up(simulator.producer_id)
    return _outcome(
        simulator,
        report,
        first_producer=first_producer,
        final_producer=simulator.producer_id,
        entries_accepted=len(accepted),
    )


@scenario(
    "replica-bootstrap",
    "a node rejoins behind a marker shift under loss; anti-entropy triggers a wire snapshot bootstrap",
    defaults={
        "anchors": 4,
        "events": 24,
        "entry_gap_ms": 40.0,
        "offline_at_ms": 60.0,
        "rejoin_at_ms": 1100.0,
        "settle_ms": 700.0,
        "loss_rate": 0.05,
        "anti_entropy_interval_ms": 120.0,
        "fanout": 2,
    },
    smoke={"events": 12, "rejoin_at_ms": 600.0, "settle_ms": 600.0},
)
def _replica_bootstrap(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """The full replica lifecycle: join late, bootstrap, stay converged.

    The straggler goes offline almost immediately and stays away while the
    producer seals enough blocks to complete summarisation cycles and shift
    the genesis marker — so on rejoin, incremental catch-up is structurally
    impossible (the blocks it needs were physically deleted).  No recovery
    is scripted: the periodic anti-entropy digests alone must detect the
    stale replica, and its pull must escalate to the chunked snapshot
    bootstrap — across a transport that randomly loses messages, forcing
    chunk retransmissions.
    """
    simulator, kernel = _deployment(seed, params, config=ChainConfig.paper_evaluation())
    straggler = simulator.anchor_ids[-1]
    horizon = params["rejoin_at_ms"] + params["settle_ms"]
    simulator.enable_anti_entropy(interval_ms=params["anti_entropy_interval_ms"], until=horizon)
    simulator.transport.schedule_offline(straggler, params["offline_at_ms"])
    simulator.schedule_online(straggler, params["rejoin_at_ms"])
    checkpoints: dict[str, Any] = {}

    def snapshot_rejoin_state() -> None:
        checkpoints["producer_marker"] = simulator.producer.chain.genesis_marker
        checkpoints["producer_head"] = simulator.producer.chain.head.block_number
        checkpoints["straggler_head"] = simulator.anchors[straggler].chain.head.block_number

    kernel.schedule_at(params["rejoin_at_ms"] - 1.0, snapshot_rejoin_state, label="rejoin-state")
    accepted = _book_logins(simulator, kernel, params, start_ms=25.0, to_producer=True)
    kernel.run_until(horizon)
    return _outcome(
        simulator,
        simulator.finalize(),
        straggler=straggler,
        entries_accepted=len(accepted),
        at_rejoin=checkpoints,
    )


# --------------------------------------------------------------------- #
# Adversarial scenarios (repro.adversary)
# --------------------------------------------------------------------- #
#
# Byzantine actors from repro.adversary injected into kernel deployments.
# Every run reports both sides under report["adversary"]: the actors'
# attack counters and the quorum's defence counters (typed deletion
# rejections, divergence detections, bounded rejected-block windows,
# fork repairs).  Like every catalogue entry the runs are byte-identical
# per (seed, parameters) — including everything the adversary does.


@scenario(
    "byzantine-producer",
    "an equivocating producer splits conflicting blocks over the replicas; "
    "forks are detected, repaired, and cross-checked against the 51%-attack model",
    defaults={
        "anchors": 4,
        "events": 8,
        "entry_gap_ms": 50.0,
        "attack_at_ms": 260.0,
        "variants": 2,
        "attacker_share": 0.35,
        "attack_trials": 400,
        "settle_ms": 250.0,
        "fanout": 2,
    },
    smoke={"events": 4, "attack_at_ms": 140.0, "attack_trials": 120},
)
def _byzantine_producer(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """Section IV-B's feared fork, manufactured on purpose.

    Mid-traffic, an equivocating producer crafts conflicting same-height
    blocks on the honest head and feeds a different variant to every
    replica.  Victims still sitting on that head fork; the honest producer's
    subsequent blocks no longer link on forked replicas (their rejections
    land in the bounded ``rejected_blocks`` window), the summary-hash
    comparison detects the divergence, and
    :meth:`~repro.network.simulator.NetworkSimulator.repair_divergent_replicas`
    restores convergence by snapshot adoption.  The run closes by
    cross-checking against :mod:`repro.analysis.attack`: at the final chain
    length, summarised history without redundancy is rewritable by this
    attacker share (success probability >= 0.5 at one block of work) while
    middle-sequence redundancy keeps it protected.
    """
    simulator, kernel = _deployment(seed, params)
    byzantine = simulator.inject_adversary(
        EquivocatingProducer("byzantine-0", simulator.transport)
    )
    forged_heights: list[int] = []

    def attack() -> Any:
        victims = [peer for peer in simulator.anchor_ids if peer != simulator.producer_id]
        blocks = yield from byzantine.equivocate_process(
            victims, head=simulator.producer.chain.head, variants=params["variants"]
        )
        forged_heights.extend(block.block_number for block in blocks)

    _spawn_at(kernel, params["attack_at_ms"], attack, label="equivocation")
    _book_logins(simulator, kernel, params, start_ms=25.0, to_producer=True)
    horizon = 25.0 + params["events"] * params["entry_gap_ms"]
    kernel.run_until(horizon + params["settle_ms"])
    # Detection first (the paper's summary-hash comparison), then repair.
    detection = simulator.sync_check()
    repaired = simulator.repair_divergent_replicas()
    after_repair = simulator.sync_check()
    # Close the loop with Section V-B1: does the deployment's final chain
    # length actually leave summarised history rewritable for this attacker?
    chain_length = simulator.producer.chain.head.block_number + 1
    share = params["attacker_share"]
    attack_rng = random.Random(seed + 61)
    model: dict[str, Any] = {"chain_length": chain_length, "attacker_share": share}
    for label, policy in (
        ("no_redundancy", RedundancyPolicy.NONE),
        ("middle_sequence", RedundancyPolicy.MIDDLE_MERKLE_ROOT),
    ):
        profile = confirmation_depth(chain_length, policy)
        outcome = simulate_attack(
            attacker_share=share,
            blocks_to_rewrite=profile.blocks_to_rewrite,
            trials=params["attack_trials"],
            rng=attack_rng,
        )
        model[label] = {
            "blocks_to_rewrite": profile.blocks_to_rewrite,
            "analytic_success": round(
                analytic_success_probability(share, profile.blocks_to_rewrite), 6
            ),
            "simulated_success": round(outcome.success_rate, 6),
        }
    model["none_rewritable"] = model["no_redundancy"]["analytic_success"] >= 0.5
    model["middle_protected"] = model["middle_sequence"]["analytic_success"] < 0.5
    return _outcome(
        simulator,
        simulator.finalize(),
        forged_heights=forged_heights,
        diverged_peers_detected=len(detection.diverged_peers),
        replicas_repaired=repaired,
        in_sync_after_repair=after_repair.in_sync,
        attack_model=model,
    )


@scenario(
    "forged-erasure",
    "forged, impersonated and replayed deletion requests die as typed rejections on the wire path",
    defaults={
        "anchors": 3,
        "records": 10,
        "entry_gap_ms": 40.0,
        "delete_after": 4,
        "forge_lag_ms": 60.0,
        "replay_lag_ms": 120.0,
        "settle_ms": 150.0,
        "fanout": 2,
    },
    smoke={"records": 8},
)
def _forged_erasure(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """Three escalating attacks on deletion authorization (Section IV-D1/D2).

    ALPHA writes records under the paper's evaluation config (marker shifts
    physically cut old sequences) and legitimately erases the first one.
    The forger MALLORY then attacks the second record three ways, and each
    attempt must die in a *different* layer, visible as a typed rejection:

    * ``forge``       — signed as MALLORY: the authorization rule's
      signature comparison rejects (``rejected_unauthorized``),
    * ``impersonate`` — signed claiming ALPHA: the simplified scheme is not
      binding, so the authorization rule passes — but the record is
      classified CONFIDENTIAL above ALPHA's own clearance, so the
      Bell-LaPadula cohesion layer rejects (``rejected_cohesion``),
    * ``replay``      — ALPHA's captured legitimate request, re-sent after
      its execution: the target physically left the chain, so the
      missing-target check rejects (``rejected_missing_target``).
    """
    model = BellLaPadulaModel()
    model.clear_subject("SECURITY-OFFICER", SecurityLevel.SECRET)
    simulator, kernel = _deployment(
        seed,
        params,
        config=ChainConfig.paper_evaluation(),
        cohesion_checker=model.as_cohesion_checker(),
    )
    simulator.add_client("ALPHA")
    forger = simulator.inject_adversary(DeletionForger("MALLORY", simulator.transport))
    references: dict[int, EntryReference] = {}
    outcomes: dict[str, str] = {}
    gap = params["entry_gap_ms"]

    def submit(index: int) -> Any:
        response = yield from simulator.submit_entry_process(
            "ALPHA",
            {"D": f"Record #{index}", "K": "ALPHA", "S": "sig_ALPHA"},
            anchor_id=simulator.producer_id,
        )
        reference = SubmitReceipt.from_ack(response).reference
        if reference is None:
            return
        references[index] = reference
        if index == 1:
            # The second record holds sensitive content: classified above
            # its own author's clearance, so only cleared officers may ever
            # delete it — the defence in depth the impersonation runs into.
            model.classify_entry(reference, SecurityLevel.CONFIDENTIAL)

    _spawn_each(kernel, params["records"], 25.0, gap, submit, label="record")

    def legitimate_erasure() -> Any:
        response = yield from simulator.submit_deletion_process(
            "ALPHA",
            references[0],
            anchor_id=simulator.producer_id,
            reason="legitimate erasure",
        )
        outcomes["legitimate"] = str(response.payload.get("deletion_status", "error"))

    _spawn_at(
        kernel,
        25.0 + params["delete_after"] * gap + gap / 2,
        legitimate_erasure,
        label="legitimate-erasure",
    )
    forge_at = 25.0 + params["records"] * gap + params["forge_lag_ms"]

    def forge_phase() -> Any:
        target = references[1]
        yield from forger.forge_process(simulator.producer_id, target, reason="hostile takedown")
        yield from forger.impersonate_process(
            simulator.producer_id, target, victim="ALPHA", reason="hostile takedown"
        )

    _spawn_at(kernel, forge_at, forge_phase, label="forge-phase")
    _spawn_at(
        kernel,
        forge_at + params["replay_lag_ms"],
        # limit=1: the first SUBMIT_DELETION on the wire is ALPHA's
        # legitimate request — replayed after its target was cut.
        lambda: forger.replay_process(simulator.producer_id, limit=1),
        label="replay-phase",
    )
    kernel.run_until(forge_at + params["replay_lag_ms"] + params["settle_ms"])
    return _outcome(
        simulator,
        simulator.finalize(),
        legitimate_status=outcomes.get("legitimate", "missing"),
        typed_rejections={
            key: forger.stats[key]
            for key in sorted(forger.stats)
            if key.startswith("rejected_")
        },
        approved_forgeries=forger.stats.get("approved", 0),
    )


@scenario(
    "digest-spoof",
    "a byzantine peer advertises fabricated sync digests; baited pulls fail and replicas stay converged",
    defaults={
        "anchors": 4,
        "events": 8,
        "entry_gap_ms": 60.0,
        "spoof_interval_ms": 130.0,
        "spoof_lead": 4,
        "anti_entropy_interval_ms": 150.0,
        "settle_ms": 400.0,
        "fanout": 2,
    },
    smoke={"events": 4, "settle_ms": 300.0},
)
def _digest_spoof(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """Anti-entropy under a lying peer: containment, not prevention.

    A digest spoofer advertises heads always ``spoof_lead`` blocks past the
    honest head, baiting replicas into pulls that the spoofer answers with a
    fake marker shift and a refused snapshot.  The defence under test is
    that a failed pull changes *nothing*: victims keep their replicas, the
    honest anti-entropy rounds keep the quorum converged, and the only
    trace of the attack is the spoofer's own counters (``pulls_baited``,
    ``snapshots_refused``) next to the unchanged convergence report.
    """
    simulator, kernel = _deployment(seed, params)
    spoofer = simulator.inject_adversary(DigestSpoofer("spoofer-0", simulator.transport))
    horizon = 25.0 + params["events"] * params["entry_gap_ms"] + params["settle_ms"]
    simulator.enable_anti_entropy(interval_ms=params["anti_entropy_interval_ms"], until=horizon)
    spoofer.start(
        targets=simulator.anchor_ids,
        interval_ms=params["spoof_interval_ms"],
        head_fn=lambda: simulator.producer.chain.head.block_number,
        lead=params["spoof_lead"],
        until=horizon,
    )
    _book_logins(simulator, kernel, params, start_ms=25.0)
    kernel.run_until(horizon)
    spoofer.stop()
    return _outcome(
        simulator,
        simulator.finalize(),
        pulls_baited=spoofer.stats.get("pulls_baited", 0),
        snapshots_refused=spoofer.stats.get("snapshots_refused", 0),
    )


@scenario(
    "clock-skew",
    "a clock-skewed replica wins the producer failover; its future timestamps age temporary entries prematurely",
    defaults={
        "anchors": 3,
        "events": 6,
        "entry_gap_ms": 50.0,
        "skew_ticks": 5000,
        "temp_ttl_ticks": 2000,
        "fail_at_ms": 340.0,
        "elect_at_ms": 400.0,
        "post_events": 5,
        "settle_ms": 200.0,
        "fanout": 2,
    },
    smoke={"events": 4, "post_events": 3, "fail_at_ms": 240.0, "elect_at_ms": 300.0},
)
def _clock_skew(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """What clock skew can — and cannot — do to the quorum (Section IV-D4).

    One replica runs ``skew_ticks`` ahead.  While it is a mere follower the
    skew is invisible: expiry evaluates on *on-chain* timestamps, so every
    replica ages the temporary entry identically and the quorum cannot
    fork.  Then the honest producer dies and the skewed replica wins the
    failover — blocks it seals stamp future timestamps, and a temporary
    entry far from its honest expiry is aged out prematurely.  The quorum
    *still* does not fork (every replica reads the same skewed on-chain
    time); the damage is semantic, and the run measures it: the entry is
    gone while the honest clock says it should have lived.
    """
    simulator, kernel = _deployment(seed, params, config=ChainConfig.paper_evaluation())
    simulator.add_client("ALPHA")
    skewed_id = simulator.anchor_ids[-1]
    actor = simulator.inject_adversary(
        ClockSkewedReplica(
            f"skew:{skewed_id}",
            simulator.transport,
            skew_ticks=params["skew_ticks"],
        )
    )
    actor.apply(simulator.anchors[skewed_id])
    first_producer = simulator.producer_id
    ttl = params["temp_ttl_ticks"]
    checkpoints: dict[str, Any] = {}

    def submit(index: int) -> Any:
        if index == 0:
            # The canary: a temporary entry whose honest expiry lies far
            # beyond this run's virtual horizon.
            response = yield from simulator.submit_entry_process(
                "ALPHA",
                {"D": "Temporary record", "K": "ALPHA", "S": "sig_ALPHA"},
                anchor_id=simulator.producer_id,
                expires_at_time=ttl,
            )
            checkpoints["temp_reference"] = SubmitReceipt.from_ack(response).reference
        else:
            yield from simulator.submit_entry_process(
                "ALPHA", _login("ALPHA", index), anchor_id=simulator.producer_id
            )

    _spawn_each(kernel, params["events"], 25.0, params["entry_gap_ms"], submit, label="entry")
    simulator.transport.schedule_offline(first_producer, params["fail_at_ms"])
    _spawn_at(
        kernel,
        params["elect_at_ms"],
        # Every honest candidate is excluded: the adversarial premise is
        # that the skewed replica wins the failover.
        lambda: simulator.elect_new_producer_process(
            exclude=tuple(peer for peer in simulator.anchor_ids if peer != skewed_id)
        ),
        label="skewed-failover",
    )
    post_base = params["elect_at_ms"] + 40.0
    _spawn_each(
        kernel,
        params["post_events"],
        post_base,
        params["entry_gap_ms"],
        lambda index: simulator.submit_entry_process(
            "ALPHA", _login("ALPHA", 100 + index), anchor_id=skewed_id
        ),
        label="post-entry",
    )
    kernel.run_until(
        post_base + params["post_events"] * params["entry_gap_ms"] + params["settle_ms"]
    )
    honest_ticks = int(kernel.now)
    temp_reference = checkpoints.get("temp_reference")
    temp_gone = (
        temp_reference is not None
        and simulator.anchors[skewed_id].chain.find_entry(temp_reference) is None
    )
    head = simulator.anchors[skewed_id].chain.head
    return _outcome(
        simulator,
        simulator.finalize(),
        first_producer=first_producer,
        final_producer=simulator.producer_id,
        head_timestamp=head.timestamp,
        honest_clock_ticks=honest_ticks,
        temp_expired=temp_gone,
        premature_expiry=bool(temp_gone and honest_ticks < ttl),
    )


# --------------------------------------------------------------------- #
# Workload scenarios (repro.workloads.fleet)
# --------------------------------------------------------------------- #
#
# Each scenario runs one of the paper's application workload generators
# through a FleetDriver: the workload's events receive virtual
# arrival times (workloads.arrival_schedule) and execute against a
# RemoteLedgerClient on a kernel-backed anchor deployment — so deletion
# latency, marker shifts, temporary-entry expiry and anti-entropy interact
# with message latency, loss and partitions on *simulated* time.  The
# resulting reports carry per-workload counters under report["workloads"].


def _drive_traffic(
    simulator: NetworkSimulator,
    params: dict[str, Any],
    build_workload: Callable[[int, int], Any],
    *,
    seed: int,
    **drive_kwargs: Any,
) -> FleetDriver:
    """A closed-loop client or an open-loop fleet, per ``n_clients``.

    ``build_workload(client_index, client_seed)`` constructs each client's
    workload, seeded by :func:`~repro.workloads.fleet.derive_client_seed`
    of ``seed`` (client 0 keeps ``seed``).  ``n_clients == 1`` — every
    workload scenario's default — issues requests sequentially (budget 0);
    ``n_clients > 1`` runs open loop under the default in-flight budget,
    unless the caller names one.
    """
    n_clients = params["n_clients"]
    if n_clients < 1:
        raise ValueError("n_clients must be at least 1")
    drive_kwargs.setdefault("in_flight_budget", 0 if n_clients == 1 else 8)
    return simulator.drive_fleet(
        [build_workload(index, derive_client_seed(seed, index)) for index in range(n_clients)],
        mean_gap_ms=params["mean_gap_ms"],
        start_at_ms=20.0,
        **drive_kwargs,
    )


def _run_traffic(
    simulators: list[NetworkSimulator],
    kernel: EventKernel,
    driver: FleetDriver,
    params: dict[str, Any],
    *,
    on_submitted: Optional[Callable[..., None]] = None,
    then: Optional[Callable[[], None]] = None,
    anti_entropy: bool = False,
) -> float:
    """Run the fleet to completion, then let the deployment settle.

    Everything after the traffic is anchored at its *actual* completion:
    under backlog (arrivals faster than the service round trip) traffic
    finishes past the nominal horizon, and late requests / settle
    heartbeats must follow it.  Returns the completion instant.

    The booking order inside the completion hook decides kernel
    tie-breaks: ``then()`` first, one idle heartbeat per deployment for
    ``settle_ms``, and with ``anti_entropy`` digest rounds that outlive the
    heartbeat by four quiet rounds — while the heartbeat runs, empty blocks
    keep moving the producer's head, so a straggler's pull can land
    perpetually one block short; the quiet tail lets the last rounds
    converge on a stationary head.
    """
    completion: dict[str, float] = {}

    def after_traffic() -> None:
        completion["at_ms"] = kernel.now
        if then is not None:
            then()
        until = kernel.now + params["settle_ms"]
        for simulator in simulators:
            _book_idle_heartbeat(simulator, kernel, params, until=until)
        if anti_entropy:
            interval = params["anti_entropy_interval_ms"]
            simulators[0].enable_anti_entropy(interval_ms=interval, until=until + 4 * interval)

    if on_submitted is not None:
        driver.on_submitted = on_submitted
    driver.on_finished = after_traffic
    driver.schedule()
    kernel.run()
    return round(completion["at_ms"], 6)


def _request_deletions(
    driver: FleetDriver, references: Iterable[Any], author: str, **request: Any
) -> None:
    """Spawn one deletion request by ``author`` per reference, in order, through ``driver``."""
    for reference in references:
        spawn(driver.kernel, driver.request_deletion_process(reference, author, **request))


def _per_client(values: list[Any], params: dict[str, Any]) -> Any:
    """Each client's collection sorted; a one-client run reports its collection bare."""
    return sorted(values[0]) if params["n_clients"] == 1 else [sorted(v) for v in values]


@scenario(
    "gdpr-erasure",
    "Art. 17 erasure requests trail a personal-data stream; deletion latency in virtual ms",
    defaults={
        "anchors": 3,
        "records": 60,
        "subjects": 12,
        "erasure_probability": 0.35,
        "min_delay": 3,
        "max_delay": 25,
        "mean_gap_ms": 25.0,
        "erasure_lag_ms": 40.0,
        "settle_ms": 900.0,
        "idle_heartbeat_ms": 50.0,
        "empty_block_interval_ticks": 120,
        "fanout": 2,
        "n_clients": 1,
    },
    smoke={"records": 24, "settle_ms": 600.0},
)
def _gdpr_erasure(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """Section II's erasure timeline on virtual time.

    Personal-data records arrive on the workload's seeded timeline; each
    data subject's Art. 17 request fires at its scheduled stream position
    (requests whose position falls after the stream are flushed once the
    stream ends).  The idle heartbeat keeps summarisation cycles running
    after traffic stops, so every approved erasure is eventually *executed*
    — and the report's virtual-millisecond latency histogram captures the
    paper's delayed-deletion bound (Section IV-D3) under real message delay.
    """
    simulator, kernel = _deployment(seed, params, config=_workload_chain_config(params))

    def build_workload(client_index: int, client_seed: int) -> GdprErasureWorkload:
        return GdprErasureWorkload(
            num_records=params["records"],
            num_subjects=params["subjects"],
            erasure_probability=params["erasure_probability"],
            min_delay=params["min_delay"],
            max_delay=params["max_delay"],
            seed=client_seed,
        )

    driver = _drive_traffic(simulator, params, build_workload, seed=seed + 17)
    # Per-client application state: every fleet client runs its own
    # derived-seed record stream with its own erasure schedule.
    workloads = driver.workloads
    subjects = [
        {case.record_index: case.subject for case in workload.cases()}
        for workload in workloads
    ]
    erasures_due = [workload.erasure_schedule() for workload in workloads]
    references: list[dict[int, Any]] = [{} for _ in workloads]
    flushed: list[tuple[int, int]] = []

    def erase(client_index: int, record_index: int) -> None:
        reference = references[client_index].get(record_index)
        if reference is not None:
            _request_deletions(
                driver,
                [reference],
                subjects[client_index][record_index],
                reason="Art. 17 erasure request",
                client_index=client_index,
            )

    def on_submitted(client_index: int, position: int, event: Any, receipt: Any) -> None:
        if receipt.ok and receipt.reference is not None:
            references[client_index][int(event.data["record_index"])] = receipt.reference
        for due in erasures_due[client_index].get(position, []):
            erase(client_index, due)

    def flush_late_erasures() -> None:
        # Erasure positions beyond the stream: the data subjects come back
        # after the write traffic ended and still exercise their right.
        for client_index, workload in enumerate(workloads):
            for position in sorted(erasures_due[client_index]):
                if position >= workload.num_records:
                    for due in sorted(erasures_due[client_index][position]):
                        flushed.append((client_index, due))
                        erase(client_index, due)

    completed_at_ms = _run_traffic(
        [simulator],
        kernel,
        driver,
        params,
        on_submitted=on_submitted,
        then=lambda: kernel.schedule(
            params["erasure_lag_ms"], flush_late_erasures, label="late-erasures"
        ),
    )
    return _outcome(
        simulator,
        simulator.finalize(),
        erasures_due=sum(
            len(due) for per_client in erasures_due for due in per_client.values()
        ),
        erasures_after_stream=len(flushed),
        traffic_completed_at_ms=completed_at_ms,
    )


@scenario(
    "supply-chain-recall",
    "product stages with best-before expiry on simulated time; a regulator recall mid-stream",
    defaults={
        "anchors": 3,
        "products": 16,
        "stations": 5,
        "shelf_life_ticks": 40,
        "expiry_ms_per_tick": 12.0,
        "recall_rate": 0.25,
        "mean_gap_ms": 12.0,
        "settle_ms": 1400.0,
        "idle_heartbeat_ms": 60.0,
        "empty_block_interval_ticks": 150,
        "fanout": 2,
        "n_clients": 1,
    },
    smoke={"products": 8, "settle_ms": 900.0},
)
def _supply_chain_recall(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """Industry-4.0 product tracking (Section VI) under simulated time.

    Every stage entry carries a best-before bound expressed in workload
    ticks; the driver rescales it into virtual milliseconds
    (``expiry_ms_per_tick``) so expiry is decided by the same simulated
    clock every replica reads — expired products vanish from the chain
    without any deletion request.  A regulator (holder of the quorum master
    signature) additionally recalls a seeded fraction of products the
    moment their final stage ships, deleting the recalled product's whole
    trail on request.
    """
    simulator, kernel = _deployment(
        seed, params, config=_workload_chain_config(params), admins=("REGULATOR",)
    )

    def build_workload(client_index: int, client_seed: int) -> SupplyChainWorkload:
        return SupplyChainWorkload(
            num_products=params["products"],
            shelf_life_ticks=params["shelf_life_ticks"],
            stations=params["stations"],
            seed=client_seed,
        )

    driver = _drive_traffic(
        simulator,
        params,
        build_workload,
        seed=seed + 29,
        expiry_ms_per_tick=params["expiry_ms_per_tick"],
    )
    workloads = driver.workloads
    # Per-client recall draws and reference maps: fleet clients ship
    # identically-named product ids, so everything is keyed by client.
    recalled: list[set[str]] = []
    for client_index, workload in enumerate(workloads):
        recall_rng = random.Random(derive_client_seed(seed + 31, client_index))
        recalled.append(
            {
                f"PRODUCT-{index:05d}"
                for index in range(workload.num_products)
                if recall_rng.random() < params["recall_rate"]
            }
        )
    product_refs: list[dict[str, list[Any]]] = [{} for _ in workloads]
    recall_requests = 0
    final_stage = workloads[0].stages[-1]

    def on_submitted(client_index: int, position: int, event: Any, receipt: Any) -> None:
        nonlocal recall_requests
        product = event.data.get("product")
        if product is None or not receipt.ok or receipt.reference is None:
            return
        product_refs[client_index].setdefault(product, []).append(receipt.reference)
        if product in recalled[client_index] and event.data.get("stage") == final_stage:
            trail = product_refs[client_index][product]
            recall_requests += len(trail)
            _request_deletions(
                driver, trail, "REGULATOR", reason=f"recall of {product}", client_index=client_index
            )

    completed_at_ms = _run_traffic(
        [simulator], kernel, driver, params, on_submitted=on_submitted
    )
    # Which product trails are fully gone (expired or recalled) is read
    # through the client *before* finalising, so the lookups' virtual time
    # is part of the deterministic run.
    vanished = sum(
        1
        for refs_by_product in product_refs
        for product, refs in sorted(refs_by_product.items())
        if all(driver.client.find_entry(reference) is None for reference in refs)
    )
    return _outcome(
        simulator,
        simulator.finalize(),
        recalled_products=_per_client(recalled, params),
        recall_requests=recall_requests,
        products_fully_vanished=vanished,
        traffic_completed_at_ms=completed_at_ms,
    )


@scenario(
    "vehicle-telemetry",
    "workshop telemetry on a lossy network; decommissioning triggers authority deletions",
    defaults={
        "anchors": 4,
        "vehicles": 10,
        "events_per_vehicle": 6,
        "decommission_fraction": 0.4,
        "workshops": 4,
        "mean_gap_ms": 18.0,
        "loss_rate": 0.03,
        "anti_entropy_interval_ms": 120.0,
        "settle_ms": 1000.0,
        "idle_heartbeat_ms": 60.0,
        "empty_block_interval_ticks": 140,
        "fanout": 2,
        "n_clients": 1,
    },
    smoke={"vehicles": 6, "events_per_vehicle": 4, "settle_ms": 800.0},
)
def _vehicle_telemetry(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """Vehicle life-cycle documentation (Section VI) on a lossy network.

    Workshops submit maintenance telemetry; when the registration authority
    decommissions a vehicle it requests deletion of the vehicle's entire
    maintenance trail (the admin path of Section IV-D1).  The transport
    randomly loses messages, so replicas genuinely miss announcements —
    periodic anti-entropy digests detect and repair the gaps, and the final
    report shows convergence despite the loss.
    """
    simulator, kernel = _deployment(
        seed, params, config=_workload_chain_config(params), admins=("REGISTRATION-AUTHORITY",)
    )
    n_clients = params["n_clients"]

    def build_workload(client_index: int, client_seed: int) -> VehicleLifecycleWorkload:
        return VehicleLifecycleWorkload(
            num_vehicles=params["vehicles"],
            events_per_vehicle=params["events_per_vehicle"],
            decommission_fraction=params["decommission_fraction"],
            workshops=params["workshops"],
            seed=client_seed,
        )

    driver = _drive_traffic(simulator, params, build_workload, seed=seed + 41)
    # Fleet clients reuse the same VIN namespace, so reference maps are
    # keyed by (client, vin).
    vehicle_refs: dict[tuple[int, str], list[Any]] = {}
    decommissioned: list[str] = []

    def on_submitted(client_index: int, position: int, event: Any, receipt: Any) -> None:
        vin = event.data.get("vin")
        if vin is None or not receipt.ok or receipt.reference is None:
            return
        if event.data.get("maintenance") == "decommissioned":
            decommissioned.append(vin if n_clients == 1 else f"c{client_index}:{vin}")
            _request_deletions(
                driver,
                vehicle_refs.get((client_index, vin), []),
                "REGISTRATION-AUTHORITY",
                reason=f"{vin} decommissioned",
                client_index=client_index,
            )
        else:
            vehicle_refs.setdefault((client_index, vin), []).append(receipt.reference)

    completed_at_ms = _run_traffic(
        [simulator], kernel, driver, params, on_submitted=on_submitted, anti_entropy=True
    )
    return _outcome(
        simulator,
        simulator.finalize(),
        decommissioned_vehicles=decommissioned,
        traffic_completed_at_ms=completed_at_ms,
    )


@scenario(
    "coin-economy",
    "a coin-transfer graph through a partition and heal; lost-wallet outputs reclaimed after",
    defaults={
        "anchors": 4,
        "transfers": 40,
        "wallets": 8,
        "spend_probability": 0.6,
        "lost_wallet_fraction": 0.25,
        "mean_gap_ms": 25.0,
        "partition_at_ms": 300.0,
        "heal_at_ms": 700.0,
        "anti_entropy_interval_ms": 110.0,
        "recovery_lag_ms": 150.0,
        "settle_ms": 900.0,
        "idle_heartbeat_ms": 60.0,
        "empty_block_interval_ticks": 130,
        "fanout": 2,
        "n_clients": 1,
    },
    smoke={"transfers": 18, "partition_at_ms": 150.0, "heal_at_ms": 400.0, "settle_ms": 700.0},
)
def _coin_economy(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """Cryptocurrency transfers (Sections I and V-A) through a partition.

    The transfer graph arrives on its seeded timeline while a partition
    splits the quorum mid-traffic; clients keep submitting (the producer
    stays reachable) and the cut-off replicas converge through anti-entropy
    after the heal.  Once traffic ends, a recovery admin reclaims the
    outputs parked on lost wallets — transfers received by a lost wallet
    and never spent — modelling Section V-A's "coins out of the monetary
    cycle" discussion.
    """
    simulator, kernel = _deployment(
        seed, params, config=_workload_chain_config(params), admins=("RECOVERY",)
    )

    def build_workload(client_index: int, client_seed: int) -> CoinTransferWorkload:
        return CoinTransferWorkload(
            num_transfers=params["transfers"],
            num_wallets=params["wallets"],
            spend_probability=params["spend_probability"],
            lost_wallet_fraction=params["lost_wallet_fraction"],
            seed=client_seed,
        )

    driver = _drive_traffic(simulator, params, build_workload, seed=seed + 53)
    workloads = driver.workloads
    # Per-client economies: wallet names and transfer ids repeat across
    # fleet clients, so lost-wallet bookkeeping is keyed by client.
    lost = [workload.lost_wallets() for workload in workloads]
    reclaimable: list[tuple[int, int]] = []
    for client_index, workload in enumerate(workloads):
        transfers = workload.transfers()
        spent_ids = {
            transfer.spends for transfer in transfers if transfer.spends is not None
        }
        reclaimable.extend(
            (client_index, transfer.transfer_id)
            for transfer in transfers
            if transfer.receiver in lost[client_index]
            and transfer.transfer_id not in spent_ids
        )
    transfer_refs: dict[tuple[int, int], Any] = {}

    def on_submitted(client_index: int, position: int, event: Any, receipt: Any) -> None:
        if receipt.ok and receipt.reference is not None:
            transfer_refs[(client_index, int(event.data["transfer_id"]))] = (
                receipt.reference
            )

    ids = simulator.anchor_ids
    near, far = ids[: len(ids) // 2], ids[len(ids) // 2 :]
    simulator.transport.schedule_partition(near, far, params["partition_at_ms"])
    simulator.transport.schedule_heal(params["heal_at_ms"])
    recovered: list[int] = []

    def reclaim_lost_outputs() -> Any:
        for client_index, transfer_id in reclaimable:
            reference = transfer_refs.get((client_index, transfer_id))
            if reference is None:
                continue
            receipt = yield from driver.request_deletion_process(
                reference,
                "RECOVERY",
                reason="lost-key recovery (Section V-A)",
                client_index=client_index,
            )
            if receipt.approved:
                recovered.append(transfer_id)

    completed_at_ms = _run_traffic(
        [simulator],
        kernel,
        driver,
        params,
        on_submitted=on_submitted,
        then=lambda: _spawn_at(
            kernel,
            kernel.now + params["recovery_lag_ms"],
            reclaim_lost_outputs,
            label="lost-wallet-recovery",
        ),
        anti_entropy=True,
    )
    return _outcome(
        simulator,
        simulator.finalize(),
        lost_wallets=_per_client(lost, params),
        reclaimable_outputs=len(reclaimable),
        recovered_outputs=len(recovered),
        traffic_completed_at_ms=completed_at_ms,
    )


class _TenantLoginWorkload(LoginAuditWorkload):
    """Per-client tenant namespacing for author-sharded fleets.

    ``fleet-saturation``'s clients all draw from the same three paper users,
    which under author sharding would pin the whole fleet to at most three
    shards.  Prefixing each client's users with its tenant id makes the
    author population scale with the fleet, so SHA-256 placement spreads the
    load across every shard.  Only the name strings change — arrival times,
    event kinds and message counts are identical, so the fleet's latency and
    throughput numbers stay comparable with ``fleet-saturation``.
    """

    def __init__(self, *, tenant: int, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        self.tenant = tenant

    def user(self, index: int) -> str:
        return f"T{self.tenant:03d}:{super().user(index)}"


def _drive_login_fleet(
    simulator: NetworkSimulator,
    seed: int,
    params: dict[str, Any],
    *,
    tenanted: bool = False,
    **drive_kwargs: Any,
) -> FleetDriver:
    """The open-loop login-audit fleet of ``fleet-saturation`` / ``sharded-fleet``."""

    def build_workload(client_index: int, client_seed: int) -> LoginAuditWorkload:
        kwargs: dict[str, Any] = {
            "num_events": params["events_per_client"],
            "num_users": params["users_per_client"],
            # No stream deletions: login-audit deletion targets are
            # position-estimated block numbers, which interleaving breaks —
            # deletion-latency percentiles under fleets are exercised by
            # `gdpr-erasure` with `n_clients > 1` (receipt references).
            "deletion_rate": 0.0,
            "seed": client_seed,
        }
        if tenanted:
            return _TenantLoginWorkload(tenant=client_index, **kwargs)
        return LoginAuditWorkload(**kwargs)

    return _drive_traffic(
        simulator,
        params,
        build_workload,
        seed=seed + 61,
        in_flight_budget=params["in_flight_budget"],
        policy=params["overload_policy"],
        **drive_kwargs,
    )


#: The login-audit fleet of ``fleet-saturation``; ``sharded-fleet`` runs the
#: same fleet and adds its shard count and erasure sweep.
_FLEET_DEFAULTS = {
    "anchors": 3,
    "n_clients": 20,
    "events_per_client": 6,
    "users_per_client": 3,
    "mean_gap_ms": 400.0,
    "in_flight_budget": 8,
    "overload_policy": "queue",
    "settle_ms": 400.0,
    "idle_heartbeat_ms": 60.0,
    "empty_block_interval_ticks": 150,
    "fanout": 2,
}
_FLEET_SMOKE = {"n_clients": 8, "events_per_client": 4, "settle_ms": 300.0}


def _fleet_headline(
    fleet: dict[str, Any], params: dict[str, Any], completed_at_ms: float
) -> dict[str, Any]:
    """The fleet's headline numbers, lifted out of ``report["workloads"]``."""
    return {
        "offered_load_per_s": round(params["n_clients"] / params["mean_gap_ms"] * 1000.0, 6),
        "throughput_per_s": fleet["throughput_per_s"],
        "request_p99_ms": fleet["request_latency_ms"]["p99"],
        "shed": fleet["shed"],
        "in_flight_peak": fleet["in_flight_peak"],
        "traffic_completed_at_ms": completed_at_ms,
    }


@scenario(
    "fleet-saturation",
    "an open-loop client fleet drives one deployment to saturation; honest latency percentiles",
    defaults=_FLEET_DEFAULTS,
    smoke=_FLEET_SMOKE,
)
def _fleet_saturation(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """An open-loop login-audit fleet against a single deployment.

    N seeded clients issue requests at their scheduled arrival times
    regardless of completion — the offered load scales with
    ``n_clients / mean_gap_ms`` while the service rate stays fixed, so
    raising ``n_clients`` pushes the deployment through its knee.  Below
    the knee request latency is the transport round trip; past it, the
    shared in-flight budget either queues (``overload_policy=queue`` —
    latency grows with backlog) or sheds (``shed`` — loss grows instead),
    and the fleet percentiles under ``report["workloads"]`` record which.
    `benchmarks/bench_fleet_saturation.py` sweeps ``n_clients`` over this
    scenario's engine to locate the knee.
    """
    simulator, kernel = _deployment(seed, params, config=_workload_chain_config(params))
    driver = _drive_login_fleet(simulator, seed, params)
    completed_at_ms = _run_traffic([simulator], kernel, driver, params)
    report = simulator.finalize()
    return _outcome(
        simulator,
        report,
        **_fleet_headline(report.workloads[driver.workload.name], params, completed_at_ms),
    )


@scenario(
    "sharded-fleet",
    "the fleet against K author-sharded deployments on one clock; erasures fan out cross-shard",
    defaults={"shards": 2, **_FLEET_DEFAULTS, "erase_authors": 2},
    smoke=_FLEET_SMOKE,
)
def _sharded_fleet(seed: int, params: dict[str, Any]) -> dict[str, Any]:
    """The ``fleet-saturation`` fleet against K sharded deployments.

    K independent anchor deployments share one :class:`EventKernel` — each
    with its own transport, latency model and gossip overlay, joined only by
    virtual time — behind a single
    :class:`~repro.service.sharding.ShardRouter` that hashes authors onto
    shards.  The fleet's per-shard service lanes overlap round trips across
    shards, so the aggregate service rate (and the ~47 req/s single-producer
    knee) scales roughly with K while per-request latency stays the single
    deployment's round trip.  After traffic, ``erase_authors`` GDPR
    Article 17 requests exercise the cross-shard deletion routing: each fans
    out to exactly the shards holding that author's entries.

    Shard 0 is built with ``fleet-saturation``'s exact seed offsets, so at
    ``shards=1`` (and ``erase_authors=0``) this scenario reproduces the
    single-deployment numbers; ``benchmarks/bench_shard_scaling.py`` pins
    that parity and sweeps K for the knee shift.
    """
    shard_count = params["shards"]
    if shard_count < 1:
        raise ScenarioError("shards must be at least 1")
    # Shard 0 is _deployment at the scenario seed — kernel seed, latency
    # seed+1, overlay seed+2, loss seed+3 — the K=1 parity anchor.  Further
    # shards join the same kernel under hash-mixed per-shard seeds.
    config = _workload_chain_config(params)
    first, kernel = _deployment(seed, params, config=config)
    simulators = [first] + [
        _deployment(derive_client_seed(seed, shard), params, kernel=kernel, config=config)[0]
        for shard in range(1, shard_count)
    ]
    router = ShardRouter(
        [simulator.ledger_client() for simulator in simulators],
        clock=lambda: kernel.now,
    )
    # Every fleet client shares the one router; the lane callback keys the
    # driver's overlap machinery to the author's home shard, so requests
    # bound for different shards proceed concurrently in virtual time.
    driver = _drive_login_fleet(
        first,
        seed,
        params,
        tenanted=True,
        clients=[router] * params["n_clients"],
        lane_of=lambda arrival: router.shard_of(arrival.event.author),
    )
    erasures: list[dict[str, Any]] = []

    def erasure_sweep() -> Any:
        # Cross-shard right-to-be-forgotten sweep: the first authors of the
        # sorted index, each routed to exactly the shards holding them.
        for author in router.index.authors()[: params["erase_authors"]]:
            receipt = yield from router.request_erasure_process(author, reason="Art. 17 sweep")
            erasures.append(
                {
                    "author": author,
                    "shards": list(receipt.shards),
                    "entries_targeted": receipt.entries_targeted,
                    "approved": receipt.approved,
                    "effort_units": receipt.effort_units,
                }
            )

    completed_at_ms = _run_traffic(
        simulators, kernel, driver, params, then=lambda: spawn(kernel, erasure_sweep())
    )
    reports = [simulator.finalize() for simulator in simulators]
    report_dict = reports[0].as_dict()
    # Post-finalize, so the merged statistics round trips stay out of the
    # kernel/transport counters (K=1 parity with fleet-saturation).
    merged = router.statistics()
    per_shard_latency = router.latency_report()
    slowest = None
    for name in sorted(per_shard_latency):
        if not has_samples(per_shard_latency[name]):
            continue  # idle shard: empty-window shape, not zero latency
        if slowest is None or per_shard_latency[name]["p50"] > per_shard_latency[slowest]["p50"]:
            slowest = name
    report_dict["shards"] = {
        "count": shard_count,
        "aggregate": {
            "service_latency_ms": router.aggregate_latency(),
            "living_blocks": merged["living_blocks"],
            "byte_size": merged["byte_size"],
            "total_blocks_created": merged["total_blocks_created"],
        },
        "slowest_shard": slowest,
        "routing": merged["routing"],
        "per_shard": {
            f"shard-{shard}": {
                "service_latency_ms": per_shard_latency[f"shard-{shard}"],
                "submitted": router.submitted_per_shard[shard],
                "deletions": router.deletions_per_shard[shard],
                "living_blocks": merged["per_shard"][f"shard-{shard}"]["living_blocks"],
                "total_blocks_created": merged["per_shard"][f"shard-{shard}"][
                    "total_blocks_created"
                ],
                "heads": simulators[shard].all_heads(),
                "replicas_identical": simulators[shard].replicas_identical(),
            }
            for shard in range(shard_count)
        },
    }
    return {
        "report": report_dict,
        **_fleet_headline(
            report_dict["workloads"][driver.workload.name], params, completed_at_ms
        ),
        "erasures": erasures,
        "heads": {
            f"shard-{shard}": simulators[shard].all_heads()
            for shard in range(shard_count)
        },
        "replicas_identical": all(
            simulator.replicas_identical() for simulator in simulators
        ),
    }
