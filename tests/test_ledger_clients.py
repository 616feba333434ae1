"""Tests for the LedgerClient protocol across all backends.

The acceptance property of the layered service API: the same workload
replayed through the in-process client (memory or journal store), the
networked client (anchor-node deployment) and the baseline adapter performs
the same logical operations — and for chain-backed backends yields
*identical* chain statistics.
"""

import pytest

from repro.baselines import ImmutableChain, LocalPruningNode, OffChainStore
from repro.core import Blockchain, ChainConfig, Entry, EntryReference
from repro.crypto.keys import KeyPair
from repro.crypto.signatures import new_scheme, sign_entry
from repro.network import InMemoryTransport, MessageKind, NetworkSimulator
from repro.service import (
    BaselineLedgerClient,
    LedgerClient,
    LocalLedgerClient,
    RemoteLedgerClient,
)
from repro.storage import JournalBlockStore
from repro.workloads import LoginAuditWorkload, PaperScenarioWorkload, replay


def paper_config():
    return ChainConfig.paper_evaluation()


def mixed_workload(events=60):
    return LoginAuditWorkload(
        num_events=events, num_users=4, deletion_rate=0.2, idle_rate=0.1, seed=5
    )


class TestCrossBackendParity:
    def test_identical_statistics_local_wal_remote(self, tmp_path):
        """The ISSUE acceptance criterion, pinned as a test."""
        local = LocalLedgerClient(Blockchain(paper_config()))
        durable = LocalLedgerClient(
            Blockchain(paper_config(), store=JournalBlockStore(tmp_path / "c.journal"))
        )
        simulator = NetworkSimulator(anchor_count=3, config=paper_config())
        remote = simulator.ledger_client()

        results = {}
        for label, client in (("local", local), ("wal", durable), ("remote", remote)):
            replay(mixed_workload(), client)
            results[label] = client.statistics()

        assert results["local"] == results["wal"]
        assert results["local"] == results["remote"]
        assert simulator.sync_check().in_sync
        assert simulator.replicas_identical()

    def test_paper_scenario_identical_across_backends(self):
        local = LocalLedgerClient(Blockchain(paper_config()))
        simulator = NetworkSimulator(anchor_count=2, config=paper_config())
        remote = simulator.ledger_client()
        replay(PaperScenarioWorkload(extra_cycles=2), local)
        replay(PaperScenarioWorkload(extra_cycles=2), remote)
        assert local.statistics() == remote.statistics()

    def test_replay_accepts_bare_blockchain(self):
        chain = Blockchain(paper_config())
        result = replay(PaperScenarioWorkload(extra_cycles=0), chain)
        assert result.entries > 0
        assert chain.length > 1


class TestLocalClient:
    def test_submit_receipt_reference_resolves(self):
        ledger = LocalLedgerClient(Blockchain(paper_config()))
        receipt = ledger.submit({"D": "Login A", "K": "A", "S": "sig_A"}, "A")
        assert receipt.ok
        record = ledger.find_entry(receipt.reference)
        assert record is not None
        assert record.data["D"] == "Login A"
        assert record.author == "A"

    def test_deletion_receipt_and_eventual_disappearance(self):
        ledger = LocalLedgerClient(Blockchain(paper_config()))
        receipt = ledger.submit({"D": "secret", "K": "A", "S": "sig_A"}, "A")
        deletion = ledger.request_deletion(receipt.reference, "A")
        assert deletion.approved and deletion.globally_effective
        for i in range(12):
            ledger.submit({"D": f"fill {i}", "K": "B", "S": "sig_B"}, "B")
        assert ledger.find_entry(receipt.reference) is None

    def test_tick_produces_idle_block_after_interval(self):
        config = ChainConfig(sequence_length=3, empty_block_interval=5)
        ledger = LocalLedgerClient(Blockchain(config))
        assert ledger.tick(1) is False
        assert ledger.tick(10) is True


class TestRemoteClient:
    def build(self, anchors=3):
        simulator = NetworkSimulator(anchor_count=anchors, config=paper_config())
        return simulator, simulator.ledger_client()

    def test_submission_replicates_and_reference_resolves(self):
        simulator, ledger = self.build()
        receipt = ledger.submit({"D": "Login A", "K": "A", "S": "sig_A"}, "A")
        assert receipt.ok
        simulator.kernel.run()
        for node in simulator.anchors.values():
            assert node.chain.find_entry(receipt.reference) is not None
        record = ledger.find_entry(receipt.reference)
        assert record is not None and record.data["D"] == "Login A"

    def test_submission_via_replica_is_forwarded(self):
        simulator = NetworkSimulator(anchor_count=3, config=paper_config())
        via_replica = simulator.ledger_client(simulator.anchor_ids[2])
        receipt = via_replica.submit({"D": "x", "K": "A", "S": "sig_A"}, "A")
        assert receipt.ok
        assert simulator.producer.chain.find_entry(receipt.reference) is not None

    def test_remote_deletion_and_tick(self):
        simulator, ledger = self.build()
        receipt = ledger.submit({"D": "secret", "K": "A", "S": "sig_A"}, "A")
        deletion = ledger.request_deletion(receipt.reference, "A")
        assert deletion.approved
        ticked = ledger.tick(10 ** 6)  # force the idle interval
        assert isinstance(ticked, bool)
        stats = ledger.statistics()
        assert stats["deletions"]["approved"] == 1

    def test_an_ecdsa_client_signs_with_the_key_of_its_identity(self):
        """Regression: a light client under ECDSA signed with no key pair and
        raised ``ValueError`` before anything reached the wire."""
        simulator = NetworkSimulator(config=ChainConfig(signature_scheme="ecdsa"))
        ledger = RemoteLedgerClient(simulator.transport, simulator.producer_id, scheme_name="ecdsa")
        receipt = ledger.submit({"D": "x"}, "ALPHA")
        assert receipt.ok
        _, stored = simulator.producer.chain.find_entry(receipt.reference)
        assert stored.public_key == KeyPair.from_seed("ALPHA").public_key_hex
        deletion = ledger.request_deletion(receipt.reference, "ALPHA")
        assert deletion.ok and deletion.approved
        assert deletion.reason == "requester key matches the stored entry key"

    def test_error_response_becomes_receipt_error(self):
        simulator, ledger = self.build()
        simulator.take_offline(simulator.anchor_ids[0])
        receipt = ledger.submit({"D": "x", "K": "A", "S": "sig_A"}, "A")
        assert not receipt.ok
        assert receipt.reference is None

    @pytest.mark.parametrize(
        "payload, names_the_entry",
        [
            ({}, False),
            ({"block_number": 4}, False),
            ({"block_number": "four", "entry_number": 1}, False),
            ({"block_number": 4, "entry_number": 1}, True),
            ({"block_number": "four", "entry_number": 1, "deletion_status": "approved"}, False),
        ],
        ids=["empty", "no-entry-number", "wrong-typed", "no-decision", "decision-wrong-typed-block"],
    )
    def test_ack_that_does_not_name_the_sealed_entry_is_a_typed_error(self, payload, names_the_entry):
        """Regression: such an ``ACK`` used to read as an accepted receipt
        with ``reference=None`` (the shape of the deleted "queued" reply) —
        and, to ``request_deletion``, as a processed rejection, which an
        ``ACK`` without a decision still did after PR 23."""
        transport = InMemoryTransport()
        transport.register(
            "anchor", lambda message: message.reply(MessageKind.ACK, "anchor", payload)
        )
        ledger = RemoteLedgerClient(transport, "anchor")
        receipt = ledger.submit({"D": "x", "K": "A", "S": "sig_A"}, "A")
        assert receipt.ok == names_the_entry
        if not names_the_entry:
            assert receipt.error.startswith("malformed ACK: ")
            assert receipt.reference is None and receipt.block_number is None
        deletion = ledger.request_deletion((1, 1), "A")
        assert not deletion.ok and not deletion.approved
        assert deletion.error.startswith("malformed ACK: ")
        assert deletion.block_number is None


class TestRemoteFailoverSweep:
    """Every protocol op must survive a scheduled outage of its bound anchor.

    Regression: PR 3 added write-path failover, but ``find_entry`` and
    ``statistics`` kept talking to the bound anchor directly and raised
    ``LedgerError`` the moment that one replica dropped — even though any
    converged replica answers reads identically.  This drives the full
    protocol surface across a transport-scheduled outage of the bound
    (query) anchor and requires every op to reach a surviving node.
    """

    def build(self):
        from repro.network.kernel import EventKernel

        kernel = EventKernel(seed=11)
        simulator = NetworkSimulator(
            anchor_count=3, config=paper_config(), kernel=kernel
        )
        # Bound to a replica: reads hit it first, writes forward from it.
        ledger = simulator.ledger_client(simulator.anchor_ids[1])
        return simulator, kernel, ledger

    def test_all_ops_fail_over_across_a_scheduled_outage(self):
        simulator, kernel, ledger = self.build()
        kept = ledger.submit({"D": "keep", "K": "A", "S": "sig_A"}, "A")
        target = ledger.submit({"D": "secret", "K": "A", "S": "sig_A"}, "A")
        assert kept.ok and target.ok
        kernel.run()  # replicate everywhere before the outage
        assert simulator.replicas_identical()

        simulator.transport.schedule_offline(simulator.anchor_ids[1], kernel.now + 5.0)
        kernel.run_until(kernel.now + 10.0)
        baseline_failovers = ledger.failovers

        # Read path: raised LedgerError before the fix.
        record = ledger.find_entry(target.reference)
        assert record is not None and record.data["D"] == "secret"
        stats = ledger.statistics()
        assert stats["living_blocks"] >= 1

        # Write path: forwarded through a surviving anchor.
        deletion = ledger.request_deletion(target.reference, "A")
        assert deletion.ok and deletion.approved
        receipt = ledger.submit({"D": "after", "K": "A", "S": "sig_A"}, "A")
        assert receipt.ok

        assert ledger.failovers > baseline_failovers

    def test_reads_raise_only_when_every_anchor_is_down(self):
        simulator, kernel, ledger = self.build()
        receipt = ledger.submit({"D": "x", "K": "A", "S": "sig_A"}, "A")
        assert receipt.ok
        kernel.run()
        for anchor_id in simulator.anchor_ids:
            simulator.take_offline(anchor_id)
        from repro.service import LedgerError

        with pytest.raises(LedgerError):
            ledger.find_entry(receipt.reference)
        with pytest.raises(LedgerError):
            ledger.statistics()


class TestBaselineAdapter:
    def test_references_mirror_chain_numbering(self):
        chain_ledger = LocalLedgerClient(Blockchain(paper_config()))
        baseline_ledger = BaselineLedgerClient(OffChainStore(), sequence_length=3)
        for i in range(5):
            ours = baseline_ledger.submit({"D": f"r{i}", "K": "A", "S": "s"}, "A")
            theirs = chain_ledger.submit({"D": f"r{i}", "K": "A", "S": "s"}, "A")
            assert ours.reference == theirs.reference

    def test_erasure_fidelity_per_baseline(self):
        immutable = BaselineLedgerClient(ImmutableChain())
        receipt = immutable.submit({"D": "r", "K": "A", "S": "s"}, "A")
        outcome = immutable.request_deletion(receipt.reference, "A")
        assert not outcome.approved and not outcome.globally_effective
        assert immutable.find_entry(receipt.reference) is not None

        pruning = BaselineLedgerClient(LocalPruningNode(keep_recent=50))
        receipt = pruning.submit({"D": "r", "K": "A", "S": "s"}, "A")
        outcome = pruning.request_deletion(receipt.reference, "A")
        # Locally accepted but *not* globally effective — the distinction
        # the comparison table is about.
        assert outcome.approved and not outcome.globally_effective

    def test_unknown_target_is_rejected(self):
        ledger = BaselineLedgerClient(OffChainStore())
        outcome = ledger.request_deletion(EntryReference(40, 1), "A")
        assert not outcome.approved

    def test_statistics_expose_uniform_keys(self):
        ledger = BaselineLedgerClient(ImmutableChain())
        ledger.submit({"D": "r", "K": "A", "S": "s"}, "A")
        stats = ledger.statistics()
        for key in ("living_blocks", "byte_size", "total_blocks_created"):
            assert key in stats
        assert stats["total_blocks_created"] == 1

    def test_workload_replays_against_baseline(self):
        result = replay(
            LoginAuditWorkload(num_events=30, num_users=3, deletion_rate=0.2, seed=2),
            BaselineLedgerClient(ImmutableChain()),
        )
        assert result.entries > 0
        assert result.deletions > 0
        assert result.deletions_approved == 0  # immutable chains cannot erase


class TestSharedSigningPath:
    def test_chain_and_client_signatures_are_identical(self):
        """One signing helper serves the chain façade and the light clients."""
        scheme = new_scheme("simplified")
        entry = Entry(data={"D": "Login A", "K": "A", "S": "sig_A"}, author="A", signature="")
        signed = sign_entry(scheme, entry, "A")

        chain = Blockchain(paper_config())
        via_chain = chain.add_entry({"D": "Login A", "K": "A", "S": "sig_A"}, "A")
        assert via_chain.signature == signed.signature

        simulator = NetworkSimulator(anchor_count=1, config=paper_config())
        remote = simulator.ledger_client()
        receipt = remote.submit({"D": "Login A", "K": "A", "S": "sig_A"}, "A")
        located = simulator.producer.chain.find_entry(receipt.reference)
        assert located is not None
        assert located[1].signature == signed.signature


class TestProtocolSurface:
    def test_every_client_satisfies_the_protocol(self, tmp_path):
        clients = [
            LocalLedgerClient(Blockchain(paper_config())),
            NetworkSimulator(anchor_count=1, config=paper_config()).ledger_client(),
            BaselineLedgerClient(ImmutableChain()),
        ]
        for client in clients:
            assert isinstance(client, LedgerClient)
            receipt = client.submit({"D": "r", "K": "A", "S": "s"}, "A")
            assert receipt.ok
            stats = client.statistics()
            assert {"living_blocks", "byte_size", "total_blocks_created"} <= set(stats)

    def test_a_client_implementing_neither_form_of_an_operation_is_refused(self):
        # submit and submit_process default to each other; a backend that
        # implements neither would recurse on its first call.
        with pytest.raises(TypeError, match="tick or tick_process"):

            class HalfClient(LedgerClient):
                def submit(self, data, author, *, expires_at_time=None, expires_at_block=None):
                    raise NotImplementedError

                def request_deletion_process(self, target, author, *, reason=""):
                    raise NotImplementedError

                def find_entry(self, reference):
                    return None

                def statistics(self):
                    return {}
