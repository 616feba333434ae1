"""Workload generators for the scenarios the paper motivates."""

from repro.workloads.base import (
    EventKind,
    ReplayResult,
    Workload,
    WorkloadEvent,
    arrival_schedule,
    replay,
)
from repro.workloads.coins import CoinTransferWorkload, Transfer
from repro.workloads.fleet import (
    FleetArrival,
    FleetClientStats,
    FleetDriver,
    FleetPolicy,
    FleetRunStats,
    derive_client_seed,
    fleet_timeline,
)
from repro.workloads.gdpr import ErasureCase, GdprErasureWorkload
from repro.workloads.logging import (
    PAPER_USERS,
    LoginAuditWorkload,
    PaperScenarioWorkload,
    login_record,
)
from repro.workloads.stats import (
    PERCENTILE_LEVELS,
    WorkloadRunStats,
    has_samples,
    latency_summary,
    percentile,
)
from repro.workloads.supply_chain import SupplyChainWorkload
from repro.workloads.vehicle import VehicleLifecycleWorkload

__all__ = [
    "EventKind",
    "ReplayResult",
    "Workload",
    "WorkloadEvent",
    "arrival_schedule",
    "replay",
    "CoinTransferWorkload",
    "FleetArrival",
    "FleetClientStats",
    "FleetDriver",
    "FleetPolicy",
    "FleetRunStats",
    "PERCENTILE_LEVELS",
    "Transfer",
    "WorkloadRunStats",
    "derive_client_seed",
    "fleet_timeline",
    "has_samples",
    "latency_summary",
    "percentile",
    "ErasureCase",
    "GdprErasureWorkload",
    "PAPER_USERS",
    "LoginAuditWorkload",
    "PaperScenarioWorkload",
    "login_record",
    "SupplyChainWorkload",
    "VehicleLifecycleWorkload",
]
