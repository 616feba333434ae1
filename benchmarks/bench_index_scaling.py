"""Scaling shape of the chain index — the paper's complexity claim at size.

Section IV-D claims deletion-request processing is *"linear and very low as
blocks are referenced directly by number"*.  The seed implementation only
delivered that for entries still living in their original block: a missing or
summarised entry fell back to a linear scan over every summary block, and
``statistics()`` re-walked (and re-serialised) the entire living chain.

This benchmark grows unbounded chains to 100 / 1 000 / 10 000 blocks and
measures, at each size,

* ``find_entry`` on an existing original entry (hit) and on a reference that
  does not exist (miss — the legacy worst case),
* ``statistics()``,
* the marginal cost of sealing one more block,

for the indexed implementation, next to the retained legacy linear-scan
reference implementations (:func:`repro.core.index.legacy_find_entry`,
:func:`repro.core.index.legacy_aggregates`).  Expected shape: the indexed numbers
stay flat (within 3×) across a 100× size spread while the legacy scans grow
roughly linearly.  The measured trajectory is ``BENCH_index.json`` — the one
wall-clock file behind :mod:`sweep`, so a smoke run checks its keys only.
"""

from __future__ import annotations

import time

from repro.core import Blockchain, ChainConfig, EntryReference
from repro.core.index import legacy_aggregates, legacy_find_entry

import sweep

FULL = (100, 1_000, 10_000)
SMOKE = (100,)

#: Ratio bound for the O(1) paths across the full size spread (acceptance
#: criterion: "roughly flat (within 3×) from chain length 100 -> 10k").
FLAT_RATIO = 3.0
#: Minimum growth the legacy linear scans must show across a >=10x spread.
LINEAR_RATIO = 5.0


def build_unbounded_chain(num_blocks: int) -> Blockchain:
    """A chain with no retention limit: the worst case for linear scans."""
    chain = Blockchain(ChainConfig(sequence_length=3))
    for i in range(num_blocks):
        chain.add_entry_block({"D": f"event {i}", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
    return chain


def time_per_op(fn, *, repeat: int, batches: int = 5) -> float:
    """Best-of-``batches`` per-operation wall time in microseconds."""
    best = float("inf")
    for _ in range(batches):
        # repro: allow[REPRO-D101] benchmarks measure real wall time by design
        start = time.perf_counter()
        for _ in range(repeat):
            fn()
        # repro: allow[REPRO-D101] benchmarks measure real wall time by design
        best = min(best, time.perf_counter() - start)
    return best / repeat * 1e6


def measure(size: int) -> dict[str, float]:
    chain = build_unbounded_chain(size)
    blocks = chain.blocks
    marker = chain.genesis_marker
    sequence_length = chain.config.sequence_length
    data_blocks = [block for block in blocks if not block.is_summary and block.entry_count]
    hit = EntryReference(data_blocks[len(data_blocks) // 2].block_number, 1)
    miss = EntryReference(data_blocks[0].block_number, 99)

    found = chain.find_entry(hit)
    assert found is not None and found[1].entry_number == 1
    assert chain.find_entry(miss) is None
    assert legacy_find_entry(blocks, marker, hit)[1] is found[1]
    assert legacy_find_entry(blocks, marker, miss) is None

    stats = chain.statistics()
    scanned_entries, scanned_bytes, scanned_complete = legacy_aggregates(blocks, sequence_length)
    assert stats["living_entries"] == scanned_entries
    assert stats["byte_size"] == scanned_bytes
    assert stats["completed_sequences"] == scanned_complete

    # Scale the legacy repetition counts down with chain size so the
    # benchmark finishes quickly; per-op times stay comparable.
    legacy_repeat = max(3, 2_000 // max(1, len(blocks) // 100))
    results = {
        "find_hit_us": time_per_op(lambda: chain.find_entry(hit), repeat=2_000),
        "find_miss_us": time_per_op(lambda: chain.find_entry(miss), repeat=2_000),
        "statistics_us": time_per_op(chain.statistics, repeat=500),
        "legacy_find_miss_us": time_per_op(
            lambda: legacy_find_entry(blocks, marker, miss), repeat=legacy_repeat
        ),
        "legacy_aggregates_us": time_per_op(
            lambda: legacy_aggregates(blocks, sequence_length), repeat=max(3, legacy_repeat // 10)
        ),
    }

    seal_rounds = 30
    # repro: allow[REPRO-D101] benchmarks measure real wall time by design
    start = time.perf_counter()
    for i in range(seal_rounds):
        chain.add_entry_block({"D": f"seal probe {i}", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
    # repro: allow[REPRO-D101] benchmarks measure real wall time by design
    results["seal_us"] = (time.perf_counter() - start) / seal_rounds * 1e6
    return results


SWEEP = sweep.Sweep(
    "bench_index_scaling", "BENCH_index.json", "wall",
    config={"sequence_length": 3, "retention": None},
    axes=(sweep.Axis("sizes", "trajectory", FULL, SMOKE, measure),),
    summarise=lambda rows: {"flat_ratio_bound": FLAT_RATIO},
)


def test_index_scaling_flat_vs_linear():
    run = sweep.run(SWEEP)
    if not run.full:
        return  # the scaling shape needs the whole size spread
    trajectory = run.rows["trajectory"]
    smallest, largest = FULL[0], FULL[-1]
    spread = largest / smallest

    for key in ("find_hit_us", "find_miss_us", "statistics_us", "seal_us"):
        ratio = trajectory[largest][key] / trajectory[smallest][key]
        assert ratio <= FLAT_RATIO, (
            f"{key} grew {ratio:.2f}x from {smallest} to {largest} blocks "
            f"(bound {FLAT_RATIO}x) — the index is no longer O(1)"
        )
    for key in ("legacy_find_miss_us", "legacy_aggregates_us"):
        ratio = trajectory[largest][key] / trajectory[smallest][key]
        assert ratio >= LINEAR_RATIO, (
            f"{key} grew only {ratio:.2f}x across a {spread:.0f}x size spread — "
            "the legacy baseline no longer demonstrates the linear shape"
        )
