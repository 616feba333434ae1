"""Tests for the sharded multi-ledger router (``repro.service.sharding``).

The acceptance pin of ISSUE 10's tentpole: author→shard placement is
deterministic, a GDPR erasure fans out to **exactly** the shards holding
the author's entries (no broadcast, no misses), per-shard completions
fold into one author-level receipt, the merged ``find_entry`` /
``statistics`` views behave like one deployment — and at the scenario
level, ``sharded-fleet`` at K=1 reproduces ``fleet-saturation``
byte-identically while K>1 multiplies the aggregate service rate.
"""

import json

import pytest

from repro.core import Blockchain, ChainConfig
from repro.network.scenarios import run_scenario
from repro.service import LocalLedgerClient
from repro.service.sharding import (
    ErasureReceipt,
    ShardAuthorIndex,
    ShardRouter,
    shard_of_author,
)
from repro.workloads.stats import has_samples


def paper_config():
    return ChainConfig.paper_evaluation()


def build_router(shard_count, *, index=None, clock=None):
    clients = [LocalLedgerClient(Blockchain(paper_config())) for _ in range(shard_count)]
    return ShardRouter(clients, index=index, clock=clock)


def record(author, label):
    return {"D": f"Login {label}", "K": author, "S": f"sig_{label}"}


class TestShardPlacement:
    def test_placement_is_deterministic_and_in_range(self):
        for author in ("alice", "bob", "T003:CHARLIE", ""):
            for shard_count in (1, 2, 4, 8):
                first = shard_of_author(author, shard_count)
                assert first == shard_of_author(author, shard_count)
                assert 0 <= first < shard_count

    def test_placement_spreads_a_fleet_of_authors(self):
        shard_count = 4
        homes = {shard_of_author(f"T{i:03d}:USER", shard_count) for i in range(200)}
        assert homes == set(range(shard_count))

    def test_invalid_shard_counts_rejected(self):
        with pytest.raises(ValueError):
            shard_of_author("alice", 0)
        with pytest.raises(ValueError):
            ShardRouter([])

    def test_router_routes_submissions_to_the_home_shard(self):
        router = build_router(4)
        for index in range(12):
            author = f"T{index:03d}:USER"
            receipt = router.submit(record(author, index), author)
            assert receipt.ok
            home = router.shard_of(author)
            assert router.index.shards_holding(author) == [home]
        assert sum(router.submitted_per_shard) == 12
        # The only shard that can hold a routed entry is the home shard:
        # per-shard chain growth must match the routing counters.
        for shard, client in enumerate(router.shards):
            expected = router.submitted_per_shard[shard]
            assert client.statistics()["living_entries"] == expected


class TestRoutingExactness:
    """The acceptance pin: erasures reach exactly the holding shards."""

    def cross_shard_author(self):
        """An author whose K=4 and K=2 home shards differ — the resharding
        case that legitimately spreads one author across shards."""
        for index in range(100):
            author = f"T{index:03d}:MOVER"
            if shard_of_author(author, 4) >= 2:
                return author  # K=2 home is < 2 by construction
        raise AssertionError("no author found with a high K=4 home shard")

    def test_erasure_reaches_exactly_the_holding_shards(self):
        # One index shared by a K=4 router and a K=2 router over the same
        # shard clients: the author's entries land on two different shards
        # (old and new home), as after a resharding.
        index = ShardAuthorIndex()
        clients = [LocalLedgerClient(Blockchain(paper_config())) for _ in range(4)]
        wide = ShardRouter(clients, index=index)
        narrow = ShardRouter(clients[:2], index=index)
        author = self.cross_shard_author()
        bystander = "T000:BYSTANDER"

        wide.submit(record(author, "new-1"), author)
        wide.submit(record(author, "new-2"), author)
        narrow.submit(record(author, "old-1"), author)
        wide.submit(record(bystander, "by-1"), bystander)

        holding = index.shards_holding(author)
        assert len(holding) == 2, "fixture must place the author on two shards"
        untouched = [s for s in range(4) if s not in holding]
        before = {s: clients[s].statistics() for s in untouched}

        receipt = wide.request_erasure(author, reason="Art. 17")
        assert receipt.ok and receipt.approved
        assert receipt.shards == tuple(holding)
        assert receipt.entries_targeted == 3
        assert len(receipt.receipts) == 3
        # Exactness, the "only" half: shards without the author's entries
        # saw no deletion traffic at all.
        for shard in untouched:
            assert wide.deletions_per_shard[shard] == 0
            assert clients[shard].statistics() == before[shard]
        # Exactness, the "every" half: nothing of the author survives.
        assert index.shards_holding(author) == []
        assert index.references_of(author) == []
        # The bystander's entry is untouched by the author's erasure.
        assert index.shards_holding(bystander) != []

    def test_repeated_erasure_is_a_refusal_not_a_reissue(self):
        router = build_router(2)
        author = "T000:ONCE"
        router.submit(record(author, 1), author)
        first = router.request_erasure(author)
        assert first.approved
        deletions_after_first = list(router.deletions_per_shard)
        second = router.request_erasure(author)
        assert not second.ok and not second.approved
        assert second.shards == ()
        assert router.deletions_per_shard == deletions_after_first

    def test_single_entry_deletion_routes_by_recorded_location(self):
        router = build_router(4)
        author = "T000:SINGLE"
        receipt = router.submit(record(author, 1), author)
        home = router.shard_of(author)
        deletion = router.request_deletion(receipt.reference, author)
        assert deletion.ok and deletion.approved
        assert router.deletions_per_shard[home] == 1
        assert sum(router.deletions_per_shard) == 1
        assert router.index.shards_holding(author) == []


class TestErasureFold:
    def test_unknown_author_is_an_error_receipt(self):
        router = build_router(2)
        receipt = router.request_erasure("T999:GHOST")
        assert isinstance(receipt, ErasureReceipt)
        assert not receipt.ok and not receipt.approved
        assert receipt.shards == () and receipt.entries_targeted == 0
        assert router.erasures == 0

    def test_effort_units_sum_across_shards(self):
        router = build_router(1)
        author = "T000:HEAVY"
        for label in range(3):
            router.submit(record(author, label), author)
        receipt = router.request_erasure(author)
        assert receipt.approved
        assert receipt.effort_units == pytest.approx(
            sum(r.effort_units for r in receipt.receipts)
        )
        assert receipt.effort_units > 0

    def test_one_rejected_deletion_fails_the_fold(self):
        class RefusingShard(LocalLedgerClient):
            def request_deletion(self, target, author, *, reason=""):
                receipt = super().request_deletion(target, author, reason=reason)
                return type(receipt)(
                    approved=False,
                    reason="policy veto",
                    block_number=receipt.block_number,
                    globally_effective=False,
                    effort_units=receipt.effort_units,
                )

        clients = [
            LocalLedgerClient(Blockchain(paper_config())),
            RefusingShard(Blockchain(paper_config())),
        ]
        # Find authors homed on each shard so the fold spans both.
        on_zero = next(
            f"T{i:03d}:A" for i in range(50) if shard_of_author(f"T{i:03d}:A", 2) == 0
        )
        on_one = next(
            f"T{i:03d}:B" for i in range(50) if shard_of_author(f"T{i:03d}:B", 2) == 1
        )
        shared = ShardAuthorIndex()
        both = ShardRouter(clients, index=shared)
        both.submit(record(on_zero, 1), on_zero)
        # Merge the two authors under one identity via the index: record
        # a second author's entry under the first author's name.
        reference = both.submit(record(on_one, 2), on_one).reference
        shared.discard(on_one, 1, reference)
        shared.record(on_zero, 1, reference)

        receipt = both.request_erasure(on_zero)
        assert receipt.shards == (0, 1)
        assert not receipt.approved, "a vetoed shard deletion must fail the fold"
        assert any(not r.approved for r in receipt.receipts)
        assert any(r.approved for r in receipt.receipts)
        # Only the approved entry was forgotten; the vetoed one remains
        # indexed so a retry re-targets it.
        assert shared.shards_holding(on_zero) == [1]


class TestMergedViews:
    def test_find_entry_prefers_recorded_location_then_sweeps(self):
        router = build_router(3)
        author = "T000:FINDER"
        receipt = router.submit(record(author, 1), author)
        found = router.find_entry(receipt.reference)
        assert found is not None and found.author == author

        # An entry sealed outside the router (no index record) is still
        # found by the sorted sweep.  Its reference must not collide with
        # an indexed key (per-shard block numbering!), so it goes into the
        # outside shard's *second* block.
        router.shards[2].submit(record("T000:PAD", 0), "T000:PAD")
        outside = router.shards[2].submit(record("T000:OUTSIDE", 2), "T000:OUTSIDE")
        assert router.index.holders_of(outside.reference) == []
        assert router.index.location_of(outside.reference) is None
        swept = router.find_entry(outside.reference)
        assert swept is not None and swept.author == "T000:OUTSIDE"

    def test_statistics_merge_sums_the_per_shard_counters(self):
        router = build_router(3)
        for index in range(9):
            author = f"T{index:03d}:STATS"
            router.submit(record(author, index), author)
        merged = router.statistics()
        assert merged["backend"] == "sharded"
        assert merged["shards"] == 3
        per_shard = merged["per_shard"]
        assert sorted(per_shard) == ["shard-0", "shard-1", "shard-2"]
        for key in ("living_blocks", "byte_size", "total_blocks_created"):
            assert merged[key] == sum(stats[key] for stats in per_shard.values())
        routing = merged["routing"]
        assert sum(routing["submitted_per_shard"]) == 9
        assert routing["indexed_entries"] == 9
        assert routing["indexed_authors"] == 9

    def test_latency_report_gates_idle_shards_on_has_samples(self):
        ticks = {"now": 0.0}

        def clock():
            ticks["now"] += 1.0
            return ticks["now"]

        router = build_router(2, clock=clock)
        author = next(
            f"T{i:03d}:LAT" for i in range(50) if shard_of_author(f"T{i:03d}:LAT", 2) == 0
        )
        router.submit(record(author, 1), author)
        report = router.latency_report()
        assert has_samples(report["shard-0"])
        # The idle shard reports the empty-window shape, never zero
        # latency a comparison could mistake for "infinitely fast".
        assert not has_samples(report["shard-1"])
        aggregate = router.aggregate_latency()
        assert has_samples(aggregate)
        assert aggregate["count"] == report["shard-0"]["count"]


class TestShardedFleetScenario:
    def canonical(self, section):
        return json.dumps(section, sort_keys=True)

    def test_k1_reproduces_fleet_saturation_byte_identically(self):
        """The parity anchor: one shard, zero erasures == the unsharded
        scenario, modulo wire bytes (tenant-prefixed authors are longer)."""
        baseline = run_scenario("fleet-saturation", seed=7, smoke=True)
        sharded = run_scenario(
            "sharded-fleet", seed=7, smoke=True, shards=1, erase_authors=0
        )
        assert self.canonical(baseline["report"]["workloads"]) == self.canonical(
            sharded["report"]["workloads"]
        )
        assert self.canonical(baseline["report"]["kernel"]) == self.canonical(
            sharded["report"]["kernel"]
        )
        base_transport = dict(baseline["report"]["transport"])
        shard_transport = dict(sharded["report"]["transport"])
        assert base_transport.pop("bytes_transferred") <= shard_transport.pop(
            "bytes_transferred"
        )
        assert self.canonical(base_transport) == self.canonical(shard_transport)

    def test_throughput_scales_with_k_at_fixed_offered_load(self):
        overrides = {
            "n_clients": 40,
            "events_per_client": 4,
            "mean_gap_ms": 100.0,
            "erase_authors": 0,
        }
        single = run_scenario("sharded-fleet", seed=7, shards=1, **overrides)
        double = run_scenario("sharded-fleet", seed=7, shards=2, **overrides)
        assert double["throughput_per_s"] > 1.5 * single["throughput_per_s"]
        # Saturated either way: the offered load (400/s) dwarfs service.
        assert single["throughput_per_s"] < single["offered_load_per_s"] / 2

    def test_scenario_erasures_fan_out_and_settle(self):
        result = run_scenario("sharded-fleet", seed=7, smoke=True, shards=4)
        report = result["report"]["shards"]
        assert report["count"] == 4
        assert result["replicas_identical"] is True
        assert result["erasures"], "default erase_authors must produce receipts"
        for erasure in result["erasures"]:
            assert erasure["approved"] is True
            assert 1 <= len(erasure["shards"]) <= 4
            assert erasure["entries_targeted"] >= len(erasure["shards"])
        routing = report["routing"]
        assert routing["erasures"] == len(result["erasures"])
        # Deleted entries left the index; surviving authors remain.
        assert routing["indexed_authors"] > 0

    def test_per_shard_report_block_shape(self):
        result = run_scenario("sharded-fleet", seed=11, smoke=True, shards=2)
        shards = result["report"]["shards"]
        assert sorted(shards["per_shard"]) == ["shard-0", "shard-1"]
        aggregate = shards["aggregate"]["service_latency_ms"]
        assert has_samples(aggregate)
        for name, block in shards["per_shard"].items():
            if block["submitted"] or block["deletions"]:
                assert has_samples(block["service_latency_ms"])
            assert block["replicas_identical"] is True
        assert shards["slowest_shard"] in shards["per_shard"]

    @pytest.mark.parametrize("shards", [2, 4])
    def test_replays_byte_identically_per_seed_and_k(self, shards):
        first = run_scenario("sharded-fleet", seed=23, smoke=True, shards=shards)
        second = run_scenario("sharded-fleet", seed=23, smoke=True, shards=shards)
        assert self.canonical(first) == self.canonical(second)
