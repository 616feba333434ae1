"""Cross-module integration tests.

These scenarios wire several subsystems together the way a deployment would:
real ECDSA signatures on the chain, proof-of-authority sealing in the
multi-node network, quorum voting on marker shifts, persistent storage across
restarts, and the Merkle-reference summary mode backed by the off-chain store.
"""

from repro.baselines import OffChainStore
from repro.consensus import ProofOfAuthority, ProofOfWork, Quorum, ValidatorSet
from repro.core import (
    Blockchain,
    ChainConfig,
    EntryReference,
    LengthUnit,
    RetentionPolicy,
    ShrinkStrategy,
    SummaryMode,
)
from repro.crypto.keys import KeyPair
from repro.network import AnchorNode, InMemoryTransport
from repro.service.remote import ClientNode
from repro.storage import JournalBlockStore, load_snapshot, save_snapshot


def login(user, detail=""):
    record = f"Login {user}" if not detail else f"Login {user} {detail}"
    return {"D": record, "K": user, "S": f"sig_{user}"}


class TestEcdsaChain:
    """The full deletion path with real asymmetric signatures."""

    def test_only_the_key_holder_can_delete(self):
        config = ChainConfig.from_dict(
            {**ChainConfig.paper_evaluation().to_dict(), "signature_scheme": "ecdsa"}
        )
        chain = Blockchain(config)
        alpha = KeyPair.from_seed("alpha")
        bravo = KeyPair.from_seed("bravo")
        chain.add_entry_block(login("ALPHA"), "ALPHA", key_pair=alpha)
        chain.add_entry_block(login("BRAVO"), "BRAVO", key_pair=bravo)

        # BRAVO cannot delete ALPHA's entry even when claiming the same name,
        # because the public keys differ.
        decision = chain.request_deletion(EntryReference(1, 1), "ALPHA", key_pair=bravo)
        assert not decision.is_approved
        # The real key holder can.
        decision = chain.request_deletion(EntryReference(1, 1), "ALPHA", key_pair=alpha)
        assert decision.is_approved
        chain.seal_block()
        chain.validate(verify_signatures=True)

    def test_signature_survives_summarisation(self):
        config = ChainConfig.from_dict(
            {**ChainConfig.paper_evaluation().to_dict(), "signature_scheme": "ecdsa"}
        )
        chain = Blockchain(config)
        alpha = KeyPair.from_seed("alpha")
        for i in range(8):
            chain.add_entry_block(login("ALPHA", f"#{i}"), "ALPHA", key_pair=alpha)
        assert chain.genesis_marker > 0
        # Copies in summary blocks keep the original signature and still verify.
        chain.validate(verify_signatures=True)


class TestPoaNetwork:
    """Proof-of-authority sealing across a replicated anchor-node network."""

    def test_sealed_blocks_replicate_and_stay_in_sync(self):
        transport = InMemoryTransport()
        config = ChainConfig.paper_evaluation()
        keys = {f"anchor-{i}": KeyPair.from_seed(f"anchor-{i}") for i in range(3)}
        validator_set = ValidatorSet.from_key_pairs(keys)
        ids = list(keys)
        nodes = {}
        for node_id in ids:
            engine = ProofOfAuthority(validator_set, node_id, keys[node_id])
            nodes[node_id] = AnchorNode(
                node_id,
                Blockchain(config),
                transport,
                engine=engine,
                is_producer=(node_id == ids[0]),
                producer_id=ids[0],
            )
        for node in nodes.values():
            node.connect(ids)

        client = ClientNode("ALPHA", transport)
        for i in range(5):
            response = client.submit_entry(ids[0], login("ALPHA", f"#{i}"))
            assert not response.is_error
        transport.kernel.run()  # let the one-way announcements land

        report = nodes[ids[0]].sync.sync_check()
        assert report.in_sync
        heads = {node.chain.head.block_hash for node in nodes.values()}
        assert len(heads) == 1
        # Every replicated normal block carries a valid authority seal.
        for block in nodes[ids[1]].chain.blocks:
            if not block.is_summary and block.block_number > 0:
                verdict = nodes[ids[1]].engine.validate_block(block, None)
                assert verdict.accepted

    def test_unauthorized_block_rejected_by_replicas(self):
        transport = InMemoryTransport()
        config = ChainConfig.paper_evaluation()
        keys = {f"anchor-{i}": KeyPair.from_seed(f"anchor-{i}") for i in range(2)}
        validator_set = ValidatorSet.from_key_pairs(keys)
        ids = list(keys)
        # The producer is NOT part of the validator set -> its seals are invalid.
        rogue_keys = dict(keys)
        rogue_keys["rogue"] = KeyPair.from_seed("rogue")
        rogue_set = ValidatorSet.from_key_pairs(rogue_keys)
        producer = AnchorNode(
            "rogue",
            Blockchain(config),
            transport,
            engine=ProofOfAuthority(rogue_set, "rogue", rogue_keys["rogue"]),
            is_producer=True,
        )
        replica = AnchorNode(
            ids[0],
            Blockchain(config),
            transport,
            engine=ProofOfAuthority(validator_set, ids[0], keys[ids[0]]),
            is_producer=False,
            producer_id="rogue",
        )
        producer.connect(["rogue", ids[0]])
        replica.connect(["rogue", ids[0]])
        client = ClientNode("ALPHA", transport)
        client.submit_entry("rogue", login("ALPHA"))
        # The replica refused the unauthorized block.
        assert replica.announce.rejected_blocks
        assert replica.chain.length < producer.chain.length


class TestQuorumMarkerShift:
    """Quorum voting around the marker shift (Section IV-C)."""

    def test_marker_shift_requires_majority(self):
        chain = Blockchain(ChainConfig.paper_evaluation())
        quorum = Quorum([f"anchor-{i}" for i in range(5)])
        for user in ("ALPHA", "BRAVO", "CHARLIE", "ALPHA", "BRAVO"):
            chain.add_entry_block(login(user), user)
        # The deterministic shift already happened locally; the quorum ratifies it.
        proposal_id = f"marker-{chain.genesis_marker}"
        outcome = quorum.decide_unanimously(
            proposal_id, "marker-shift", {"new_marker": chain.genesis_marker}
        )
        assert outcome.decided
        assert quorum.proposal(proposal_id).payload["new_marker"] == chain.genesis_marker

    def test_rejected_shift_is_recorded(self):
        quorum = Quorum(["a", "b", "c"])
        quorum.propose("shift-99", "marker-shift", {"new_marker": 99})
        quorum.vote("shift-99", "a", False)
        quorum.vote("shift-99", "b", False)
        assert quorum.statistics()["rejected"] == 1


class TestPersistentDeployment:
    """Journal + snapshots through a full scenario with restarts."""

    def test_chain_survives_restart_via_snapshot(self, tmp_path):
        path = tmp_path / "snapshots" / "chain.json"
        chain = Blockchain(ChainConfig.paper_evaluation())
        for i in range(4):
            chain.add_entry_block(login("ALPHA", f"#{i}"), "ALPHA")
            save_snapshot(chain, path)
        # "Restart": restore from the latest snapshot and keep going.
        restored = load_snapshot(path)
        restored.request_deletion(EntryReference(restored.blocks[1].block_number, 1), "ALPHA")
        restored.seal_block()
        for i in range(6):
            restored.add_entry_block(login("BRAVO", f"#{i}"), "BRAVO")
        restored.validate()
        assert restored.head.block_number > chain.head.block_number

    def test_journal_tracks_marker_shifts(self, tmp_path):
        store = JournalBlockStore(tmp_path / "chain.journal")
        chain = Blockchain(ChainConfig.paper_evaluation(), store=store)
        for i in range(10):
            chain.add_entry_block(login("ALPHA", f"#{i}"), "ALPHA")
        assert chain.genesis_marker > 0
        assert len(store) == chain.length
        assert store.head().block_number == chain.head.block_number
        store.compact()
        reloaded = JournalBlockStore(tmp_path / "chain.journal")
        assert len(reloaded) == chain.length
        assert reloaded.head().block_number == chain.head.block_number


class TestMerkleReferenceWithOffChainStore:
    """Summary Merkle references combined with an erasable off-chain store."""

    def test_off_chain_payloads_verify_and_erase(self):
        config = ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=2),
            shrink_strategy=ShrinkStrategy.ALL_OLD,
            summary_mode=SummaryMode.MERKLE_REFERENCE,
        )
        chain = Blockchain(config)
        store = OffChainStore()
        refs = []
        for i in range(8):
            payload = login("ALPHA", f"#{i}")
            chain.add_entry_block(payload, "ALPHA")
            refs.append(store.append_record(payload, "ALPHA"))
        # Summary blocks carry only references, the chain stays small, and the
        # off-chain payloads still verify against their hash pointers.
        merging = [b for b in chain.blocks if b.is_summary and b.merged_sequences]
        assert merging and all(block.entry_count == 0 for block in merging)
        assert all(store.verify_payload(ref) for ref in refs)
        # Erasing an off-chain payload completes the GDPR story for this mode.
        store.request_erasure(refs[0], "ALPHA")
        assert not store.record_retrievable(refs[0])
        chain.validate()


class TestRoleControlledNetwork:
    """The quorum's master signature in the replicated deployment."""

    def test_admin_deletion_propagates_to_replicas(self):
        transport = InMemoryTransport()
        config = ChainConfig.paper_evaluation()
        ids = ["anchor-0", "anchor-1"]
        nodes = {}
        for node_id in ids:
            chain = Blockchain(config, admins=("AUTHORITY",))
            nodes[node_id] = AnchorNode(
                node_id,
                chain,
                transport,
                is_producer=(node_id == ids[0]),
                producer_id=ids[0],
            )
        for node in nodes.values():
            node.connect(ids)
        alpha = ClientNode("ALPHA", transport)
        authority = ClientNode("AUTHORITY", transport)
        alpha.submit_entry(ids[0], login("ALPHA"))
        response = authority.request_deletion(ids[0], EntryReference(1, 1))
        assert response.payload["deletion_status"] == "approved"
        transport.kernel.run()
        for node in nodes.values():
            assert node.chain.registry.approved_count == 1


class TestPowChainEndToEnd:
    def test_mined_chain_with_deletion(self):
        engine = ProofOfWork(difficulty_bits=4)
        chain = Blockchain(ChainConfig.paper_evaluation(), block_finalizer=engine.prepare_block)
        for user in ("ALPHA", "BRAVO", "CHARLIE"):
            chain.add_entry_block(login(user), user)
        chain.request_deletion(EntryReference(3, 1), "BRAVO")
        chain.seal_block()
        chain.add_entry_block(login("ALPHA"), "ALPHA")
        assert chain.genesis_marker == 6
        assert chain.find_entry(EntryReference(3, 1)) is None
        for block in chain.blocks:
            if not block.is_summary:
                assert engine.meets_difficulty(block)
        chain.validate(verify_signatures=True)
