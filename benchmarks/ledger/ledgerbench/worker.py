"""What runs inside one workload's own process.

The parent (``run.py``) starts a fresh interpreter per workload so that each
has its own ``ru_maxrss`` and starts with cold LRU and memo caches, as a
user's process would.  Three jobs exist:

* :func:`set_up` — input generation, key derivation and one warm-up
  repetition at smoke size; with interpreter start and imports this is what
  the parent times as ``setup_s``,
* :func:`measure` — timed repetitions, untraced,
* :func:`trace` — one untraced and one profiled repetition, for the
  per-layer numbers.
"""

from __future__ import annotations

import resource
from typing import Any, Optional

from ledgerbench.declarations import COUNTS
from ledgerbench.layers import builtin_calls, calls_named, profile_call, self_seconds
from ledgerbench.timing import wall
from ledgerbench.workloads import Repeat, Repetition, prepare

#: Fewest timed repetitions a time-budgeted run makes.
MIN_REPETITIONS = 3


def set_up(name: str, seed: int, *, smoke: bool) -> Repeat:
    """Everything a run does before its first timed repetition."""
    prepare(name, seed, smoke=True)()
    return prepare(name, seed, smoke=smoke)


def measure(repeat: Repeat, *, reps: Optional[int], seconds: Optional[float]) -> dict[str, Any]:
    """Timed, untraced repetitions: ``reps`` of them, or ``seconds`` worth."""
    repetitions: list[Repetition] = []
    started = wall()

    def enough() -> bool:
        if reps is not None:
            return len(repetitions) >= reps
        return len(repetitions) >= MIN_REPETITIONS and wall() - started >= (seconds or 0.0)

    while not enough():
        repetitions.append(repeat())
    readings: dict[str, list[float]] = {}
    for rep in repetitions:
        for metric, value in rep.end_to_end().items():
            readings.setdefault(metric, []).append(value)
    # Linux reports ru_maxrss in KiB.
    readings["peak_rss_mb"] = [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]
    return {
        "ops_attempted": repetitions[-1].ops_attempted,
        "ops_failed": repetitions[-1].ops_failed,
        "digests": [rep.digest for rep in repetitions],
        "violations": [violation for rep in repetitions for violation in rep.violations],
        "readings": readings,
    }


def trace(repeat: Repeat) -> dict[str, Any]:
    """One untraced and one profiled repetition; per-layer metrics by name."""
    before = wall()
    repeat()
    untraced_s = wall() - before
    before = wall()
    rep, stats = profile_call(repeat)
    traced_s = wall() - before

    metrics = {f"self_s.{layer}": seconds for layer, seconds in self_seconds(stats).items()}
    metrics["trace_overhead_x"] = traced_s / untraced_s

    counts = {count: 0.0 for count in COUNTS}
    counts.update(
        {
            "count.canonical_json_calls": calls_named(stats, "crypto/hashing.py", "canonical_json"),
            "count.sha256_calls": builtin_calls(stats, "openssl_sha256"),
            "count.block_from_dict_calls": calls_named(stats, "core/block.py", "from_dict"),
            "count.ecdsa_sign_calls": calls_named(stats, "crypto/ecdsa.py", "ecdsa_sign"),
            "count.ecdsa_verify_calls": calls_named(stats, "crypto/ecdsa.py", "ecdsa_verify"),
            "count.blocks_sealed": calls_named(stats, "core/chain.py", "seal_block"),
            "count.summaries_created": calls_named(stats, "core/chain.py", "_create_summary_block"),
            "count.entries_carried": calls_named(stats, "core/entry.py", "as_copy"),
            "count.marker_shifts": calls_named(stats, "core/chain.py", "_apply_marker_shift"),
            "count.deletions_executed": calls_named(stats, "core/deletion.py", "mark_executed"),
            "count.messages_delivered": calls_named(stats, "network/transport.py", "_account_delivery"),
            "count.wal_appends": calls_named(stats, "storage/wal.py", "_write_record"),
        }
    )
    counts.update({key: value for key, value in rep.counts.items() if key.startswith("count.")})
    metrics.update(counts)

    def per(numerator: float, denominator: float) -> float:
        return numerator / denominator if denominator else 0.0

    base = rep.counts
    sealed = counts["count.blocks_sealed"]
    requests = base.get("base.requests", 0.0)
    metrics.update(
        {
            "ratio.entries_carried_per_submitted": per(
                counts["count.entries_carried"], base.get("base.submitted", 0.0)
            ),
            "ratio.block_decodes_per_sealed_block": per(counts["count.block_from_dict_calls"], sealed),
            "ratio.canonical_calls_per_sealed_block": per(counts["count.canonical_json_calls"], sealed),
            "ratio.bytes_per_request": per(
                counts["count.bytes_transferred"], base.get("base.shard0_requests", requests)
            ),
            "ratio.messages_per_request": per(counts["count.messages_delivered"], requests),
            "ratio.journal_write_amplification": per(
                rep.exact.get("journal_bytes", 0.0), rep.exact["living_bytes"]
            ),
        }
    )
    return {
        "ops_attempted": rep.ops_attempted,
        "ops_failed": rep.ops_failed,
        "digests": [rep.digest],
        "violations": rep.violations,
        "profiled_total_s": stats.total_tt,  # type: ignore[attr-defined]
        "traced_wall_s": traced_s,
        "untraced_wall_s": untraced_s,
        "metrics": metrics,
    }
