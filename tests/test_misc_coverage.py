"""Miscellaneous behaviour tests for smaller helpers across the library."""

import importlib
import pkgutil

import pytest

import repro
from repro.analysis.report import render_block, render_chain
from repro.consensus.pow import _leading_zero_bits
from repro.core import (
    Blockchain,
    ChainConfig,
    EntryReference,
    LengthUnit,
    RedundancyPolicy,
    RetentionPolicy,
    ShrinkStrategy,
    SummaryMode,
)
from repro.core.chain import ChainEvent
from repro.network import AnchorNode, InMemoryTransport, Message, MessageKind
from repro.network.protocols.sync import SyncReport
from repro.workloads import PaperScenarioWorkload, replay


def _modules_declaring_all():
    names = ["repro"] + [
        info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    ]
    return [
        name for name in names if hasattr(importlib.import_module(name), "__all__")
    ]


@pytest.mark.parametrize("module_name", _modules_declaring_all())
def test_every_exported_name_resolves(module_name):
    """A deleted class or function must not linger in an ``__all__``."""
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names nothing for {missing}"


class TestLeadingZeroBits:
    def test_all_zero_nibbles(self):
        assert _leading_zero_bits("00ff") == 8

    def test_partial_nibble(self):
        # 0x1 = 0001 -> three leading zero bits in the first nibble.
        assert _leading_zero_bits("1fff") == 3

    def test_no_leading_zeroes(self):
        assert _leading_zero_bits("ffff") == 0


class TestChainEventAndRendering:
    def test_chain_event_str(self):
        event = ChainEvent(block_number=8, kind="marker-shift", detail="moved to 6")
        assert str(event) == "[block 8] marker-shift: moved to 6"

    def test_render_block_shows_redundancy_and_offchain_references(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            summary_mode=SummaryMode.MERKLE_REFERENCE,
            redundancy=RedundancyPolicy.MIDDLE_MERKLE_ROOT,
        )
        chain = Blockchain(config)
        for i in range(10):
            chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
        merging = [b for b in chain.blocks if b.is_summary and b.merged_sequences]
        assert merging
        text = render_block(merging[-1])
        assert "merged sequences" in text
        assert "off-chain reference" in text

    def test_render_chain_includes_every_block(self):
        chain = Blockchain(ChainConfig(sequence_length=3))
        chain.add_entry_block({"D": "x", "K": "A", "S": "s"}, "A")
        text = render_chain(chain)
        assert text.count("prev=") == chain.length


class TestReplayVariants:
    def test_replay_sampling_interval(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        result = replay(PaperScenarioWorkload(extra_cycles=1), chain, sample_every=2)
        assert len(result.size_series) == len(result.length_series)
        assert result.size_series[-1][0] == chain.total_blocks_created


class TestSyncReportAndNodeEdgeCases:
    def test_sync_report_with_no_summary_yet(self):
        transport = InMemoryTransport()
        node = AnchorNode("solo", Blockchain(ChainConfig(sequence_length=5)), transport, is_producer=True)
        node.connect(["solo"])
        report = node.sync.sync_check()
        assert report.block_number == -1
        assert report.in_sync

    def test_sync_report_diverged_listing(self):
        report = SyncReport(block_number=5, own_hash="aa", peer_results={"a": True, "b": False})
        assert report.diverged_peers == ["b"]
        assert not report.in_sync

    def test_summary_hash_for_unknown_block(self):
        transport = InMemoryTransport()
        node = AnchorNode("n0", Blockchain(ChainConfig.paper_evaluation()), transport, is_producer=True)
        response = transport.send(
            "n0",
            Message(
                kind=MessageKind.SUMMARY_HASH,
                sender="peer",
                payload={"block_number": 999, "block_hash": "ff"},
            ),
        )
        assert response.payload["match"] is False

    def test_receive_block_rejects_summary_blocks(self):
        from repro.core.errors import ChainIntegrityError

        producer = Blockchain(ChainConfig.paper_evaluation())
        replica = Blockchain(ChainConfig.paper_evaluation())
        producer.add_entry_block({"D": "x", "K": "A", "S": "s"}, "A")
        summary = producer.block_by_number(2)
        with pytest.raises(ChainIntegrityError):
            replica.receive_block(summary)


class TestDeletionInteractionCorners:
    def test_second_deletion_of_same_target_still_approved(self):
        chain = Blockchain(ChainConfig(sequence_length=3))
        chain.add_entry_block({"D": "x", "K": "A", "S": "sig_A"}, "A")
        first = chain.request_deletion(EntryReference(1, 1), "A")
        chain.seal_block()
        second = chain.request_deletion(EntryReference(1, 1), "A")
        assert first.is_approved and second.is_approved
        assert chain.registry.approved_count == 1  # same target, one mark

    def test_deletion_of_summary_copy_by_original_reference(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            chain.add_entry_block({"D": f"Login {user}", "K": user, "S": f"sig_{user}"}, user)
        # Advance until the originals only exist as summary copies.
        while chain.genesis_marker == 0:
            chain.add_entry_block({"D": "x", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
        located = chain.find_entry(EntryReference(1, 1))
        assert located is not None and located[0].is_summary
        decision = chain.request_deletion(EntryReference(1, 1), "ALPHA")
        assert decision.is_approved
        # After further cycles the copy disappears from newer summary blocks too.
        for _ in range(12):
            chain.add_entry_block({"D": "x", "K": "BRAVO", "S": "sig_BRAVO"}, "BRAVO")
        assert chain.find_entry(EntryReference(1, 1)) is None
