"""Integration-level tests of the Blockchain façade.

These tests follow the paper's evaluation scenario (Section V, Figs. 6-8):
logins of ALPHA, BRAVO and CHARLIE are written to the chain, a summary block
is created every third block, BRAVO requests deletion of one entry, and after
the next summarisation cycles the entry — and later the deletion request
itself — physically disappear while the chain remains valid.
"""

import pytest

from repro.core import (
    Blockchain,
    ChainConfig,
    DeletionStatus,
    EntryReference,
    LengthUnit,
    RetentionPolicy,
    ShrinkStrategy,
    default_log_schema,
)
from repro.core.errors import ChainIntegrityError, DeletionError, SchemaError
from repro.core.events import EventType
from repro.crypto.hashing import GENESIS_PREVIOUS_HASH
from repro.crypto.keys import KeyPair


def login_entry(user: str) -> dict:
    return {"D": f"Login {user}", "K": user, "S": f"sig_{user}"}


@pytest.fixture
def paper_chain() -> Blockchain:
    """A chain configured like the paper's evaluation prototype."""
    return Blockchain(ChainConfig.paper_evaluation(), schema=default_log_schema())


class TestBootstrap:
    def test_genesis_block_zero_with_deadb(self, paper_chain):
        genesis = paper_chain.blocks[0]
        assert genesis.block_number == 0
        assert genesis.previous_hash == GENESIS_PREVIOUS_HASH

    def test_initial_marker_is_zero(self, paper_chain):
        assert paper_chain.genesis_marker == 0

    def test_no_pending_entries_initially(self, paper_chain):
        assert paper_chain.pending_entries == []

    def test_length_one_after_bootstrap(self, paper_chain):
        assert paper_chain.length == 1


class TestBlockProduction:
    def test_add_entry_block_appends_block_with_entry(self, paper_chain):
        block = paper_chain.add_entry_block(login_entry("ALPHA"), "ALPHA")
        assert block.block_number == 1
        assert block.entry_count == 1
        assert block.entries[0].author == "ALPHA"
        assert block.entries[0].entry_number == 1

    def test_summary_block_created_automatically_every_third_block(self, paper_chain):
        paper_chain.add_entry_block(login_entry("ALPHA"), "ALPHA")
        # Block 1 sealed; block 2 is the summary slot and must exist already.
        assert paper_chain.head.block_number == 2
        assert paper_chain.head.is_summary

    def test_summary_block_shares_previous_timestamp(self, paper_chain):
        paper_chain.add_entry_block(login_entry("ALPHA"), "ALPHA")
        summary = paper_chain.block_by_number(2)
        normal = paper_chain.block_by_number(1)
        assert summary.timestamp == normal.timestamp

    def test_first_summary_blocks_are_empty(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        first_summary = paper_chain.block_by_number(2)
        second_summary = paper_chain.block_by_number(5)
        assert first_summary.entry_count == 0
        assert second_summary.entry_count == 0

    def test_paper_figure6_layout(self, paper_chain):
        """Three logins produce entries in blocks 1, 3 and 4 (Fig. 6)."""
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        assert paper_chain.block_by_number(1).entries[0].author == "ALPHA"
        assert paper_chain.block_by_number(3).entries[0].author == "BRAVO"
        assert paper_chain.block_by_number(4).entries[0].author == "CHARLIE"
        assert paper_chain.genesis_marker == 0
        assert paper_chain.deleted_block_count == 0

    def test_hash_chain_links(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        blocks = paper_chain.blocks
        for previous, block in zip(blocks, blocks[1:]):
            assert block.previous_hash == previous.block_hash

    def test_multiple_entries_per_block(self, paper_chain):
        paper_chain.add_entry(login_entry("ALPHA"), "ALPHA")
        paper_chain.add_entry(login_entry("BRAVO"), "BRAVO")
        block = paper_chain.seal_block()
        assert block.entry_count == 2
        assert [entry.entry_number for entry in block.entries] == [1, 2]

    def test_schema_rejects_malformed_entry(self, paper_chain):
        with pytest.raises(SchemaError):
            paper_chain.add_entry({"D": 42, "K": "ALPHA", "S": "sig"}, "ALPHA")

    def test_validate_passes(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        paper_chain.validate(verify_signatures=True)


class TestSelectiveDeletion:
    def _run_figure7_scenario(self, chain: Blockchain):
        """Reproduce Fig. 7: logins, a deletion request in block 6, shrink."""
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            chain.add_entry_block(login_entry(user), user)
        decision = chain.request_deletion(EntryReference(3, 1), "BRAVO")
        chain.seal_block()  # deletion request lands in block 6
        chain.add_entry_block(login_entry("ALPHA"), "ALPHA")  # block 7, triggers summary 8
        return decision

    def test_deletion_request_is_approved_for_own_entry(self, paper_chain):
        decision = self._run_figure7_scenario(paper_chain)
        assert decision.status is not DeletionStatus.REJECTED

    def test_deletion_statistics_survive_snapshot_round_trip(self, paper_chain):
        # Regression: the request count was derived from id(decision.request),
        # which overcounted after from_dict rebuilt fresh request objects.
        from repro.core.deletion import DeletionRegistry

        self._run_figure7_scenario(paper_chain)
        registry = paper_chain.registry
        before = registry.statistics()
        assert before["requests"] == 1
        restored = DeletionRegistry.from_dict(registry.to_dict())
        assert restored.statistics() == before

    def test_deletion_request_stored_in_block_6(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        paper_chain.request_deletion(EntryReference(3, 1), "BRAVO")
        block = paper_chain.seal_block()
        assert block.block_number == 6
        assert block.entries[0].is_deletion_request

    def test_marker_shifts_to_block_6(self, paper_chain):
        self._run_figure7_scenario(paper_chain)
        assert paper_chain.genesis_marker == 6
        assert paper_chain.blocks[0].block_number == 6

    def test_old_blocks_physically_deleted(self, paper_chain):
        self._run_figure7_scenario(paper_chain)
        for old_number in range(0, 6):
            with pytest.raises(KeyError):
                paper_chain.block_by_number(old_number)
        assert paper_chain.deleted_block_count == 6

    def test_deleted_entry_not_copied_into_summary(self, paper_chain):
        self._run_figure7_scenario(paper_chain)
        summary = paper_chain.block_by_number(8)
        assert summary.is_summary
        assert summary.find_copy_of(3, 1) is None

    def test_other_entries_are_carried_forward(self, paper_chain):
        self._run_figure7_scenario(paper_chain)
        summary = paper_chain.block_by_number(8)
        assert summary.find_copy_of(1, 1) is not None  # ALPHA
        assert summary.find_copy_of(4, 1) is not None  # CHARLIE

    def test_carried_entries_keep_origin_metadata(self, paper_chain):
        self._run_figure7_scenario(paper_chain)
        summary = paper_chain.block_by_number(8)
        copy = summary.find_copy_of(1, 1)
        assert copy.origin_block_number == 1
        assert copy.origin_entry_number == 1
        assert copy.origin_timestamp == 1

    def test_deleted_entry_unfindable_after_shrink(self, paper_chain):
        self._run_figure7_scenario(paper_chain)
        assert paper_chain.find_entry(EntryReference(3, 1)) is None
        assert paper_chain.find_entry(EntryReference(1, 1)) is not None

    def test_chain_still_valid_after_shrink(self, paper_chain):
        self._run_figure7_scenario(paper_chain)
        paper_chain.validate(verify_signatures=True)

    def test_figure8_deletion_request_disappears_next_cycle(self, paper_chain):
        """One shrink cycle later the deletion request is gone (Fig. 8)."""
        self._run_figure7_scenario(paper_chain)
        # Advance until the next marker shift merges the sequence holding
        # the deletion request (block 6).
        while paper_chain.genesis_marker <= 6:
            paper_chain.add_entry_block(login_entry("CHARLIE"), "CHARLIE")
        for block in paper_chain.blocks:
            for entry in block.entries:
                assert not entry.is_deletion_request
        # The deleted entry is still gone and the surviving data still there.
        assert paper_chain.find_entry(EntryReference(3, 1)) is None
        assert paper_chain.find_entry(EntryReference(1, 1)) is not None

    def test_foreign_deletion_rejected(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        decision = paper_chain.request_deletion(EntryReference(3, 1), "CHARLIE")
        assert decision.status is DeletionStatus.REJECTED
        paper_chain.seal_block()
        paper_chain.add_entry_block(login_entry("ALPHA"), "ALPHA")
        # The rejected request has no effect: BRAVO's entry is carried forward.
        assert paper_chain.find_entry(EntryReference(3, 1)) is not None

    def test_admin_may_delete_foreign_entry(self):
        chain = Blockchain(ChainConfig.paper_evaluation(), admins=["ADMIN"])
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            chain.add_entry_block(login_entry(user), user)
        decision = chain.request_deletion(EntryReference(3, 1), "ADMIN")
        assert decision.is_approved

    def test_deletion_of_missing_target_rejected(self, paper_chain):
        decision = paper_chain.request_deletion(EntryReference(99, 1), "ALPHA")
        assert decision.status is DeletionStatus.REJECTED

    def test_a_summarys_own_coordinates_address_no_entry(self, paper_chain):
        """Copies keep their original entry numbers (Fig. 4), so summary 8
        holds three entries numbered 1.  A request for (8, 1) would match no
        copy's mark and never execute: it is rejected, and each original
        coordinate still reaches its copy."""
        while paper_chain.next_block_number <= 8:
            paper_chain.add_entry_block(login_entry("ALPHA"), "ALPHA")
        summary = paper_chain.block_by_number(8)
        originals = [(1, 1), (3, 1), (4, 1)]
        assert summary.is_summary and summary.location_keys() == originals
        decision = paper_chain.request_deletion(EntryReference(8, 1), "ALPHA")
        assert decision.status is DeletionStatus.REJECTED
        assert "does not exist" in decision.reason
        assert paper_chain.find_entry(EntryReference(8, 1)) is None
        for key in originals:
            block, copy = paper_chain.find_entry(EntryReference(*key))
            assert block is summary and copy.location_key(8) == key

    def test_strict_mode_raises_on_rejection(self, paper_chain):
        with pytest.raises(DeletionError):
            paper_chain.request_deletion(EntryReference(99, 1), "ALPHA", strict=True)

    def test_deletion_request_cannot_target_deletion_request(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        paper_chain.request_deletion(EntryReference(3, 1), "BRAVO")
        block = paper_chain.seal_block()
        decision = paper_chain.request_deletion(
            EntryReference(block.block_number, 1), "BRAVO"
        )
        assert decision.status is DeletionStatus.REJECTED

    def test_is_marked_for_deletion(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        paper_chain.request_deletion(EntryReference(3, 1), "BRAVO")
        assert paper_chain.is_marked_for_deletion(EntryReference(3, 1))
        assert not paper_chain.is_marked_for_deletion(EntryReference(1, 1))

    def test_events_record_marker_shift(self, paper_chain):
        self._run_figure7_scenario(paper_chain)
        kinds = {event.kind for event in paper_chain.events}
        assert "marker-shift" in kinds
        assert "summary-created" in kinds
        assert "deletion-requested" in kinds
        assert "deletion-executed" in kinds


class TestTemporaryEntries:
    def test_expired_temporary_entry_not_carried_forward(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        chain.add_entry({"D": "ephemeral", "K": "ALPHA", "S": "x"}, "ALPHA", expires_at_block=4)
        chain.seal_block()
        reference = EntryReference(1, 1)
        assert chain.find_entry(reference) is not None
        while chain.genesis_marker == 0:
            chain.add_entry_block(login_entry("BRAVO"), "BRAVO")
        assert chain.find_entry(reference) is None

    def test_unexpired_temporary_entry_survives(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        chain.add_entry({"D": "keep me", "K": "ALPHA", "S": "x"}, "ALPHA", expires_at_block=10_000)
        chain.seal_block()
        while chain.genesis_marker == 0:
            chain.add_entry_block(login_entry("BRAVO"), "BRAVO")
        assert chain.find_entry(EntryReference(1, 1)) is not None

    def test_time_based_expiry(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        chain.add_entry({"D": "short lived", "K": "A", "S": "x"}, "A", expires_at_time=2)
        chain.seal_block()
        while chain.genesis_marker == 0:
            chain.add_entry_block(login_entry("B"), "B")
        assert chain.find_entry(EntryReference(1, 1)) is None


class TestEmptyBlocks:
    def test_idle_tick_appends_empty_block_after_interval(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            empty_block_interval=5,
        )
        chain = Blockchain(config)
        chain.clock.advance(10)
        block = chain.idle_tick()
        assert block is not None
        assert block.entry_count == 0

    def test_idle_tick_noop_before_interval(self):
        config = ChainConfig(sequence_length=3, empty_block_interval=50)
        chain = Blockchain(config)
        assert chain.idle_tick() is None

    def test_idle_tick_disabled_without_interval(self):
        chain = Blockchain(ChainConfig(sequence_length=3))
        chain.clock.advance(1000)
        assert chain.idle_tick() is None

    def test_empty_blocks_drive_delayed_deletion(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            empty_block_interval=1,
        )
        chain = Blockchain(config)
        chain.add_entry_block(login_entry("ALPHA"), "ALPHA")
        chain.request_deletion(EntryReference(1, 1), "ALPHA")
        chain.seal_block()
        for _ in range(20):
            chain.clock.advance(2)
            chain.idle_tick()
        assert chain.find_entry(EntryReference(1, 1)) is None


class TestPersistence:
    def test_round_trip_to_dict(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        paper_chain.request_deletion(EntryReference(3, 1), "BRAVO")
        paper_chain.seal_block()
        restored = Blockchain.from_dict(paper_chain.to_dict())
        assert restored.length == paper_chain.length
        assert restored.genesis_marker == paper_chain.genesis_marker
        assert restored.head.block_hash == paper_chain.head.block_hash
        assert restored.registry.approved_count == paper_chain.registry.approved_count
        restored.validate()

    def test_restored_chain_can_continue(self, paper_chain):
        for user in ("ALPHA", "BRAVO"):
            paper_chain.add_entry_block(login_entry(user), user)
        restored = Blockchain.from_dict(paper_chain.to_dict())
        block = restored.add_entry_block(login_entry("CHARLIE"), "CHARLIE")
        assert block.block_number == paper_chain.head.block_number + 1
        restored.validate()

    def test_from_dict_rejects_empty_chain(self):
        with pytest.raises(ChainIntegrityError):
            Blockchain.from_dict({"config": ChainConfig().to_dict(), "blocks": []})


class TestStatistics:
    def test_statistics_shape(self, paper_chain):
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            paper_chain.add_entry_block(login_entry(user), user)
        stats = paper_chain.statistics()
        assert stats["living_blocks"] == paper_chain.length
        assert stats["total_blocks_created"] >= stats["living_blocks"]
        assert stats["byte_size"] > 0
        assert set(stats["deletions"]) == {"requests", "approved", "rejected", "executed"}

    def test_block_by_number_out_of_range(self, paper_chain):
        with pytest.raises(KeyError):
            paper_chain.block_by_number(500)

    def test_repr_and_len(self, paper_chain):
        assert len(paper_chain) == paper_chain.length
        assert "Blockchain(" in repr(paper_chain)


class TestOneDecisionPerDeletionRequest:
    """A signed deletion request is decided identically whichever way it
    reaches a chain: locally (``request_deletion``), over the wire
    (``submit_signed_entry``) or as a replica of its sealed block
    (``receive_block``)."""

    USERS = ("ALPHA", "BRAVO", "MALLORY")

    @staticmethod
    def _chain_with_history(scheme: str, keys: dict) -> Blockchain:
        chain = Blockchain(ChainConfig(signature_scheme=scheme))
        for user in ("ALPHA", "BRAVO"):
            chain.add_entry_block(login_entry(user), user, key_pair=keys[user])
        return chain

    @staticmethod
    def _requested_events(chain: Blockchain) -> list:
        seen: list = []
        chain.bus.subscribe(seen.append, types=(EventType.DELETION_REQUESTED,))
        return seen

    @pytest.mark.parametrize("scheme", ["simplified", "ecdsa"])
    def test_every_admission_path_gives_the_same_decision_and_event(self, scheme):
        keys = {
            user: KeyPair.from_seed(user) if scheme == "ecdsa" else None for user in self.USERS
        }
        local, wire, replica = (self._chain_with_history(scheme, keys) for _ in range(3))
        assert local.head.block_hash == wire.head.block_hash == replica.head.block_hash
        events = {chain: self._requested_events(chain) for chain in (local, wire, replica)}

        asks = [  # approved, foreign (unauthorised), missing target
            (EntryReference(1, 1), "ALPHA"),
            (EntryReference(1, 1), "MALLORY"),
            (EntryReference(99, 1), "ALPHA"),
        ]
        local_decisions = [
            local.request_deletion(target, author, key_pair=keys[author], reason="erasure")
            for target, author in asks
        ]
        wire_decisions = [wire.submit_signed_entry(d.request) for d in local_decisions]
        replica.receive_block(local.seal_block())
        replica_decisions = replica.registry.decisions[: len(asks)]

        assert [d.status for d in local_decisions] == [
            DeletionStatus.APPROVED,
            DeletionStatus.REJECTED,
            DeletionStatus.REJECTED,
        ]
        expected = [(d.status, d.reason, d.target) for d in local_decisions]
        for decisions in (wire_decisions, replica_decisions):
            assert [(d.status, d.reason, d.target) for d in decisions] == expected

        local_events = events[local]
        assert len(local_events) == len(asks)
        for chain in (wire, replica):
            assert [e.payload for e in events[chain]] == [e.payload for e in local_events]
        assert [e.detail for e in events[wire]] == [e.detail for e in local_events]
        assert [e.detail for e in events[replica]] == [
            f"replicated {e.detail}" for e in local_events
        ]
