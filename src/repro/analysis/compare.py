"""Cross-system comparison harness (claim C5).

Runs the same GDPR-style workload — write records, later erase a fraction of
them — against the selective-deletion chain and every Section III baseline,
then collects storage, retrievability and effort into one comparison table.

Every system is driven through the :class:`~repro.service.client.LedgerClient`
protocol — the chain through :class:`~repro.service.client.LocalLedgerClient`,
the baselines through their adapter — so the harness exercises exactly the
code path applications use: one driver, many backends.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.chameleon_chain import RedactableChain
from repro.baselines.full_chain import ImmutableChain
from repro.baselines.hard_fork import HardForkChain
from repro.baselines.offchain import OffChainStore
from repro.baselines.pruning import LocalPruningNode
from repro.core.chain import Blockchain
from repro.core.config import ChainConfig
from repro.service.baseline import BaselineLedgerClient
from repro.service.client import LedgerClient, LocalLedgerClient
from repro.workloads.gdpr import GdprErasureWorkload


@dataclass
class ComparisonRow:
    """Measured behaviour of one system under the comparison workload."""

    system: str
    records_written: int
    erasures_requested: int
    erasures_effective: int
    records_still_readable: int
    storage_bytes: int
    erasure_effort: float
    capabilities: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        """Row in plain-dict form for table rendering."""
        return {
            "system": self.system,
            "records": self.records_written,
            "erasures": self.erasures_requested,
            "effective": self.erasures_effective,
            "readable": self.records_still_readable,
            "storage_bytes": self.storage_bytes,
            "effort": round(self.erasure_effort, 1),
            "selective": self.capabilities.get("selective_deletion", False),
            "global": self.capabilities.get("global_effect", False),
            "trapdoor": self.capabilities.get("requires_trapdoor_holder", False),
        }


#: Selective deletion is global, chain-shrinking and trapdoor-free.
SELECTIVE_CAPABILITIES = {
    "name": "selective-deletion",
    "selective_deletion": True,
    "global_effect": True,
    "keeps_chain_verifiable": True,
    "requires_trapdoor_holder": False,
}


def run_comparison(
    *,
    num_records: int = 120,
    erasure_probability: float = 0.3,
    seed: int = 99,
) -> list[ComparisonRow]:
    """Drive the GDPR workload through the paper's system and every
    Section III baseline, and collect a table."""
    workload = GdprErasureWorkload(
        num_records=num_records,
        erasure_probability=erasure_probability,
        seed=seed,
    )
    cases = workload.cases()
    chain = Blockchain(ChainConfig.paper_evaluation())
    clients: list[LedgerClient] = [LocalLedgerClient(chain)]
    clients += [
        BaselineLedgerClient(system)
        for system in (
            ImmutableChain(),
            LocalPruningNode(keep_recent=50),
            HardForkChain(),
            RedactableChain(),
            OffChainStore(),
        )
    ]
    rows: list[ComparisonRow] = []
    for client in clients:
        references = []
        erasures = 0
        effective = 0
        effort = 0.0
        for case in cases:
            receipt = client.submit(
                {
                    "D": f"personal data of {case.subject} (record {case.record_index})",
                    "K": case.subject,
                    "S": f"sig_{case.subject}",
                },
                case.subject,
            )
            references.append(receipt.reference)
        for case in cases:
            if case.erase_after is None:
                continue
            receipt = client.request_deletion(references[case.record_index], case.subject)
            erasures += 1
            effort += receipt.effort_units
            if receipt.globally_effective:
                effective += 1
        if isinstance(client, BaselineLedgerClient):
            name, capabilities = client.name, client.system.capabilities()
        else:
            name, capabilities = SELECTIVE_CAPABILITIES["name"], SELECTIVE_CAPABILITIES
            # Deletion is delayed (Section IV-D3): append filler blocks until
            # the pending deletions executed, so the row measures the state
            # *after* the summarisation cycles had a chance to run.
            for _ in range(64):
                if not any(
                    chain.is_marked_for_deletion(reference)
                    and chain.find_entry(reference) is not None
                    for reference in references
                ):
                    break
                client.submit({"D": "filler", "K": "system", "S": "sig_system"}, "system")
        readable = sum(
            1 for reference in references if client.find_entry(reference) is not None
        )
        rows.append(
            ComparisonRow(
                system=name,
                records_written=len(references),
                erasures_requested=erasures,
                erasures_effective=effective,
                records_still_readable=readable,
                storage_bytes=client.statistics()["byte_size"],
                erasure_effort=effort,
                capabilities=capabilities,
            )
        )
    return rows
