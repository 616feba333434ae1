"""Analysis utilities: metrics, the 51 %-attack model, reports, comparisons."""

from repro.analysis.attack import (
    AttackOutcome,
    ConfirmationProfile,
    analytic_success_probability,
    attack_resistance_table,
    confirmation_depth,
    simulate_attack,
)
from repro.analysis.compare import ComparisonRow, run_comparison
from repro.analysis.metrics import (
    DeletionLatency,
    DeletionLatencyTracker,
    GrowthPoint,
    SummarySizeSample,
    final_reduction_factor,
    growth_curve,
    measure_deletion_latency,
    peak_living_blocks,
    summary_size_profile,
)
from repro.analysis.report import (
    render_block,
    render_chain,
    render_comparison_table,
    render_events,
    render_sequences,
    render_statistics,
)

__all__ = [
    "AttackOutcome",
    "ConfirmationProfile",
    "analytic_success_probability",
    "attack_resistance_table",
    "confirmation_depth",
    "simulate_attack",
    "ComparisonRow",
    "run_comparison",
    "DeletionLatency",
    "DeletionLatencyTracker",
    "GrowthPoint",
    "SummarySizeSample",
    "final_reduction_factor",
    "growth_curve",
    "measure_deletion_latency",
    "peak_living_blocks",
    "summary_size_profile",
    "render_block",
    "render_chain",
    "render_comparison_table",
    "render_events",
    "render_sequences",
    "render_statistics",
]
