"""The six workloads: set-up, one repetition, and the correctness checks.

Load model: closed loop, one caller, one process, one thread.  The fleet
workloads are open-loop *in virtual time* inside the simulator; that is a
property of their input, not of the host load.

A workload is prepared once per process (:func:`prepare`: input generation,
key derivation); what comes back is a callable that runs one repetition.
Every repetition returns a :class:`Repetition` carrying the timed readings,
the deterministic outputs, and the names of any correctness check that failed.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import json
import re
import shutil
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Optional

from repro.analysis.metrics import DeletionLatencyTracker
from repro.core.chain import Blockchain
from repro.core.config import ChainConfig
from repro.core.entry import EntryReference
from repro.core.events import ChainEvent, EventType
from repro.crypto.keys import KeyPair
from repro.network.scenarios import run_scenario
from repro.service.client import LocalLedgerClient
from repro.storage.snapshot import snapshot_payload
from repro.storage.wal import JournalBlockStore
from repro.workloads.gdpr import GdprErasureWorkload

from ledgerbench.declarations import WORKLOADS
from ledgerbench.timing import percentile, wall

#: Scratch space for journals.  Inside the benchmark's own directory: the
#: harness reads and writes nowhere else.
WORK_ROOT = Path(__file__).resolve().parent.parent / ".work"

GDPR_SUBJECTS = 50
GDPR_MIN_DELAY = 5
GDPR_MAX_DELAY = 50


@dataclass
class Repetition:
    """What one repetition of a workload measured and produced."""

    ops_attempted: int
    ops_failed: int
    #: Wall seconds of the timed operation stream.
    timed_s: float
    #: Wall seconds of follow-up phases, by name (``validate_s``, ``restart_s`` ...).
    phases: dict[str, float] = field(default_factory=dict)
    #: Per-call wall seconds, ascending (ledger workloads only).
    op_seconds: list[float] = field(default_factory=list)
    #: Metrics that are deterministic per (workload, seed).
    exact: dict[str, float] = field(default_factory=dict)
    #: Counters read from the run's own report or statistics.
    counts: dict[str, float] = field(default_factory=dict)
    #: sha256 of the canonical JSON of everything deterministic the run produced.
    digest: str = ""
    #: Names of correctness checks that failed (empty when correct).
    violations: list[str] = field(default_factory=list)

    @property
    def run_s(self) -> float:
        """The timed section plus every follow-up phase."""
        return self.timed_s + sum(self.phases.values())

    def end_to_end(self) -> dict[str, float]:
        """This repetition's reading of every end-to-end metric it has."""
        failed = self.ops_attempted if self.violations else self.ops_failed
        readings = {
            "ops_per_s": (self.ops_attempted - self.ops_failed) / self.timed_s,
            "run_s": self.run_s,
            "failure_share": failed / self.ops_attempted,
            **{name: value for name, value in self.phases.items() if name in ("restart_s", "validate_s")},
            **self.exact,
        }
        if self.op_seconds:
            readings["op_p50_us"] = percentile(self.op_seconds, 0.50) * 1e6
            readings["op_p99_us"] = percentile(self.op_seconds, 0.99) * 1e6
        return readings


#: A workload with its inputs generated: each call runs one repetition.
Repeat = Callable[[], Repetition]


def _digest(document: Any) -> str:
    canonical = json.dumps(document, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


# --------------------------------------------------------------------- #
# Ledger workloads
# --------------------------------------------------------------------- #

_SUBMIT, _ERASE = 0, 1
_RECORD_MARKER = re.compile(r"\(record \d+\)")


def _ledger_plan(seed: int, params: dict[str, Any]) -> tuple[list[tuple], dict[int, str], list[str]]:
    """The operation stream of ``examples/gdpr_erasure.py``, materialised.

    Returns the plan (submits with erasures issued at their scheduled stream
    position), the part of each record's payload that no other record
    shares, and the subjects.
    """
    workload = GdprErasureWorkload(
        num_records=int(params["num_records"]),
        num_subjects=GDPR_SUBJECTS,
        erasure_probability=float(params["erasure_probability"]),
        min_delay=GDPR_MIN_DELAY,
        max_delay=GDPR_MAX_DELAY,
        seed=seed,
    )
    cases = workload.cases()
    schedule = workload.erasure_schedule()
    plan: list[tuple] = []
    payloads: dict[int, str] = {}
    for position, event in enumerate(workload.events()):
        record = cases[position].record_index
        plan.append((_SUBMIT, record, event.data, event.author))
        payloads[record] = f"(record {record})"
        if payloads[record] not in event.data["D"]:
            raise ValueError(f"the GDPR generator no longer marks its payloads: {event.data['D']!r}")
        for due in schedule.get(position, []):
            if due <= position:
                plan.append((_ERASE, due, None, cases[due].subject))
    subjects = [workload.subject(index) for index in range(GDPR_SUBJECTS)]
    return plan, payloads, subjects


def _prepare_ledger(name: str, seed: int, params: dict[str, Any]) -> Repeat:
    plan, payloads, subjects = _ledger_plan(seed, params)
    ecdsa = name == "ledger-churn-ecdsa"
    durable = name == "ledger-durable"
    config = ChainConfig.paper_evaluation()
    keys: dict[str, KeyPair] = {}
    if ecdsa:
        config = dataclasses.replace(config, signature_scheme="ecdsa")
        keys = {subject: KeyPair.from_seed(subject) for subject in subjects}

    def repeat() -> Repetition:
        workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT)) if durable else None
        try:
            return _ledger_repetition(plan, payloads, config, keys, workdir)
        finally:
            if workdir is not None:
                shutil.rmtree(workdir, ignore_errors=True)

    return repeat


def _ledger_repetition(
    plan: list[tuple],
    payloads: dict[int, str],
    config: ChainConfig,
    keys: dict[str, KeyPair],
    workdir: Optional[Path],
) -> Repetition:
    journal = workdir / "chain.journal" if workdir is not None else None
    store = JournalBlockStore(journal) if journal is not None else None
    chain = Blockchain(config, store=store)
    tracker = DeletionLatencyTracker()
    tracker.attach(chain)
    executed: list[EntryReference] = []

    def on_executed(event: ChainEvent) -> None:
        executed.append(EntryReference.from_dict(event.payload["reference"]))

    chain.bus.subscribe(on_executed, types=(EventType.DELETION_EXECUTED,))

    if keys:
        # The local client cannot pass key pairs, so the ECDSA workload calls
        # the chain directly; the operations are the client's, one for one.
        def submit(data: dict, author: str) -> Optional[EntryReference]:
            chain.add_entry(data, author, key_pair=keys[author])
            block = chain.seal_block()
            return EntryReference(block.block_number, len(block.entries))

        def erase(reference: EntryReference, author: str) -> bool:
            decision = chain.request_deletion(reference, author, key_pair=keys[author])
            chain.seal_block()
            return decision.is_approved
    else:
        client = LocalLedgerClient(chain)

        def submit(data: dict, author: str) -> Optional[EntryReference]:
            receipt = client.submit(data, author)
            return receipt.reference if receipt.ok else None

        def erase(reference: EntryReference, author: str) -> bool:
            receipt = client.request_deletion(reference, author)
            return receipt.ok and receipt.approved

    references: dict[int, EntryReference] = {}
    op_seconds: list[float] = []
    failed = 0
    gc.collect()
    started = wall()
    for kind, record, data, author in plan:
        before = wall()
        if kind == _SUBMIT:
            reference = submit(data, author)
            if reference is None:
                failed += 1
            else:
                references[record] = reference
        elif record not in references or not erase(references[record], author):
            failed += 1
        op_seconds.append(wall() - before)
    timed_s = wall() - started

    phases: dict[str, float] = {}
    violations: list[str] = []
    head_hash = chain.head.block_hash
    statistics = chain.statistics()
    exact = {"living_bytes": float(statistics["byte_size"])}
    haystacks = [snapshot_payload(chain), json.dumps(chain.to_dict())]

    if keys:
        gc.collect()
        before = wall()
        chain.validate(verify_signatures=True)
        phases["validate_s"] = wall() - before
    else:
        chain.validate()

    if journal is not None:
        assert store is not None
        exact["journal_bytes"] = float(store.file_size())
        gc.collect()
        before = wall()
        restarted = Blockchain(config, store=JournalBlockStore(journal))
        phases["restart_s"] = wall() - before
        if restarted.head.block_hash != head_hash:
            violations.append("restart-head-mismatch")
        before = wall()
        restarted.store.compact()
        phases["compact_s"] = wall() - before
        before = wall()
        reopened = Blockchain(config, store=JournalBlockStore(journal))
        phases["reopen_s"] = wall() - before
        if reopened.head.block_hash != head_hash:
            violations.append("compacted-head-mismatch")
        haystacks.append(journal.read_text(encoding="utf-8"))

    # Erasure completeness: once deletion-executed has fired for a record,
    # its unique payload string must be gone from every serialised form.
    # One scan collects every record marker still present anywhere.
    by_reference = {reference: record for record, reference in references.items()}
    present = set(_RECORD_MARKER.findall("\n".join(haystacks)))
    if any(payloads[by_reference[reference]] in present for reference in executed):
        violations.append("erased-payload-residue")

    waited = sorted(latency.blocks_waited for latency in tracker.latencies)
    if waited:
        exact["deletion_lag_blocks_p99"] = percentile(waited, 0.99)
    op_seconds.sort()
    return Repetition(
        ops_attempted=len(plan),
        ops_failed=failed,
        timed_s=timed_s,
        phases=phases,
        op_seconds=op_seconds,
        exact=exact,
        counts={"base.submitted": float(len(references))},
        digest=_digest(
            {
                "head_hash": head_hash,
                "statistics": statistics,
                "failed": failed,
                "executed": [reference.to_dict() for reference in executed],
                "exact": exact,
            }
        ),
        violations=violations,
    )


# --------------------------------------------------------------------- #
# Simulator workloads
# --------------------------------------------------------------------- #


def _prepare_scenario(name: str, seed: int, params: dict[str, Any]) -> Repeat:
    scenario = WORKLOADS[name]["scenario"]

    def repeat() -> Repetition:
        gc.collect()
        started = wall()
        result = run_scenario(scenario, seed=seed, **params)
        timed_s = wall() - started
        return _scenario_repetition(name, result, timed_s)

    return repeat


def _scenario_repetition(name: str, result: dict[str, Any], timed_s: float) -> Repetition:
    report = result["report"]
    transport = report["transport"]
    chain = report["final_chain_statistics"]
    nodes = report["anti_entropy"].get("nodes", {})
    counts = {
        "count.kernel_events": report["kernel"]["events_processed"],
        "count.messages_lost": transport["lost"],
        "count.bytes_transferred": transport["bytes_transferred"],
        "count.sync.catch_ups": nodes.get("catch_ups", 0),
        "count.sync.bootstraps": nodes.get("bootstraps", 0),
        "count.sync.chunks_served": nodes.get("chunks_served", 0),
        "count.sync.retransmits": nodes.get("bootstrap_retransmits", 0),
        "count.sync.bootstrap_bytes": nodes.get("bootstrap_bytes", 0),
    }
    exact = {"living_bytes": float(chain["byte_size"])}
    if name == "lossy-sync":
        stats = report["workloads"]["vehicle-lifecycle"]
        attempted = stats["events_total"] + stats["deletions_requested"]
        # Under loss a retried request whose first reply was eaten is answered
        # "already marked": the client sees a rejection although the deletion
        # runs.  What fails the user is a deletion that never executes.
        failed = (
            stats["entries_rejected"]
            + stats["idle_rejected"]
            + max(0, stats["deletions_requested"] - stats["deletions_executed"])
            + stats["deletions_pending"]
        )
        exact["virtual.deletion_p99_ms"] = float(stats["deletion_latency_ms"]["p99"])
        counts["base.submitted"] = stats["entries_submitted"]
        counts["base.requests"] = attempted
    else:
        stats = report["workloads"]["login-audit"]
        attempted = stats["events_total"]
        failed = stats["events_total"] - stats["executed"]  # shed or never completed
        exact["virtual.throughput_per_s"] = float(result["throughput_per_s"])
        exact["virtual.request_p99_ms"] = float(result["request_p99_ms"])
        counts["base.submitted"] = stats["executed"]
        counts["base.requests"] = attempted
        if name == "fleet-sharded":
            shards = report["shards"]
            exact["living_bytes"] = float(shards["aggregate"]["byte_size"])
            erasures = result["erasures"]
            attempted += len(erasures)
            failed += sum(1 for erasure in erasures if not erasure["approved"])
            # The scenario reports the transport of shard 0 only, so bytes
            # per request is taken over that shard's own requests.
            counts["base.shard0_requests"] = shards["per_shard"]["shard-0"]["submitted"]
    violations = [] if result["replicas_identical"] else ["replicas-diverged"]
    return Repetition(
        ops_attempted=attempted,
        ops_failed=failed,
        timed_s=timed_s,
        exact=exact,
        counts={key: float(value) for key, value in counts.items()},
        digest=_digest(result),
        violations=violations,
    )


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def prepare(name: str, seed: int, *, smoke: bool) -> Repeat:
    """Generate the inputs of workload ``name`` at ``seed``."""
    spec = WORKLOADS[name]
    params = dict(spec["smoke" if smoke else "full"])
    if "scenario" in spec:
        return _prepare_scenario(name, seed, params)
    WORK_ROOT.mkdir(exist_ok=True)
    return _prepare_ledger(name, seed, params)
