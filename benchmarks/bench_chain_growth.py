"""Claim C1 — data reduction: bounded versus unbounded chain growth.

Section I motivates the concept with the unbounded growth of conventional
chains (Bitcoin ~300 GB); Section V-A lists *data reduction* as the first
achieved enhancement.  The benchmark replays the same login workload against
the selective-deletion chain and an immutable baseline and reports the final
storage, the peak living length and the reduction factor.  Expected shape:
the selective-deletion chain stays bounded by the retention policy while the
baseline grows linearly with the number of events.
"""

import pytest

from repro.analysis import final_reduction_factor, growth_curve, peak_living_blocks
from repro.baselines import ImmutableChain
from repro.core import Blockchain, ChainConfig
from repro.workloads import LoginAuditWorkload, replay

EVENT_COUNTS = [100, 400]


def run_bounded(num_events: int) -> Blockchain:
    chain = Blockchain(ChainConfig.paper_evaluation())
    replay(LoginAuditWorkload(num_events=num_events, num_users=5, seed=1), chain, sample_every=20)
    return chain


def run_unbounded(num_events: int) -> ImmutableChain:
    chain = ImmutableChain()
    workload = LoginAuditWorkload(num_events=num_events, num_users=5, seed=1)
    for event in workload:
        chain.append_record(event.data, event.author)
    return chain


@pytest.mark.parametrize("num_events", EVENT_COUNTS)
def test_growth_selective_deletion(benchmark, num_events):
    chain = benchmark.pedantic(run_bounded, args=(num_events,), rounds=3, iterations=1)
    baseline = run_unbounded(num_events)

    # Shape: the living chain is bounded by the retention policy regardless
    # of how many events were replayed, while the baseline keeps every record.
    assert chain.length <= 9  # (max 2 sequences + current) * sequence length 3
    assert baseline.record_count() == num_events
    reduction = final_reduction_factor(chain.byte_size(), baseline.storage_bytes())
    assert chain.total_blocks_created > chain.length

    print()
    print(
        f"events={num_events}: selective-deletion living blocks={chain.length} "
        f"({chain.byte_size()} bytes), immutable baseline blocks={baseline.record_count()} "
        f"({baseline.storage_bytes()} bytes), reduction factor={reduction:.2f}x"
    )


def test_growth_curve_stays_flat(benchmark):
    def run():
        chain = Blockchain(ChainConfig.paper_evaluation())
        result = replay(
            LoginAuditWorkload(num_events=300, num_users=5, seed=2), chain, sample_every=25
        )
        return chain, result

    chain, result = benchmark.pedantic(run, rounds=3, iterations=1)
    curve = growth_curve(result.length_series, result.size_series)
    assert peak_living_blocks(curve) <= 9
    # The second half of the curve must not grow: the chain has reached its
    # steady state while the baseline would keep growing linearly.
    halfway = len(curve) // 2
    late_peak = max(point.living_blocks for point in curve[halfway:])
    assert late_peak <= 9

    print()
    print("blocks_created living_blocks living_bytes")
    for point in curve:
        print(f"{point.blocks_created:14d} {point.living_blocks:13d} {point.living_bytes:12d}")
