"""Unit tests for the consensus layer (engines and quorum voting)."""

import pytest

from repro.consensus import (
    NullConsensus,
    ProofOfAuthority,
    ProofOfWork,
    Proposal,
    ProposalState,
    Quorum,
    ValidatorSet,
)
from repro.core import Blockchain, ChainConfig
from repro.core.block import Block, make_genesis_block
from repro.core.errors import ConsensusError
from repro.crypto.keys import KeyPair


def fresh_block(number=1, previous_hash="aa"):
    return Block(block_number=number, timestamp=number, previous_hash=previous_hash)


class TestNullConsensus:
    def test_accepts_everything(self):
        engine = NullConsensus()
        block = fresh_block()
        assert engine.prepare_block(block) is block
        assert engine.validate_block(block, None).accepted
        assert "null" in engine.describe()


class TestProofOfWork:
    def test_mining_meets_difficulty(self):
        engine = ProofOfWork(difficulty_bits=8)
        block = engine.prepare_block(fresh_block())
        assert engine.meets_difficulty(block)
        assert engine.validate_block(block, None).accepted

    def test_unmined_block_rejected_with_high_probability(self):
        engine = ProofOfWork(difficulty_bits=16)
        block = fresh_block()
        # A fresh block almost surely misses a 16-bit target; if it happens to
        # meet it the test is vacuous but not wrong.
        decision = engine.validate_block(block, None)
        assert decision.accepted == engine.meets_difficulty(block)

    def test_expected_attempts(self):
        assert ProofOfWork(difficulty_bits=10).expected_attempts() == 1024
        assert ProofOfWork(difficulty_bits=0).expected_attempts() == 1
        assert ProofOfWork(difficulty_bits=6).work_per_block() == 64.0

    def test_mining_failure_raises(self):
        engine = ProofOfWork(difficulty_bits=40, max_attempts=10)
        with pytest.raises(ConsensusError):
            engine.prepare_block(fresh_block())

    def test_invalid_parameters(self):
        with pytest.raises(ConsensusError):
            ProofOfWork(difficulty_bits=-1)
        with pytest.raises(ConsensusError):
            ProofOfWork(max_attempts=0)

    def test_zero_difficulty_accepts_anything(self):
        engine = ProofOfWork(difficulty_bits=0)
        assert engine.validate_block(fresh_block(), None).accepted


class TestProofOfAuthority:
    @pytest.fixture
    def validators(self):
        keys = {name: KeyPair.from_seed(name) for name in ("anchor-0", "anchor-1", "anchor-2")}
        return keys, ValidatorSet.from_key_pairs(keys)

    def test_seal_and_validate(self, validators):
        keys, validator_set = validators
        engine = ProofOfAuthority(validator_set, "anchor-0", keys["anchor-0"])
        block = engine.prepare_block(fresh_block())
        assert engine.validate_block(block, None).accepted

    def test_missing_seal_rejected(self, validators):
        keys, validator_set = validators
        engine = ProofOfAuthority(validator_set, "anchor-0", keys["anchor-0"])
        assert not engine.validate_block(fresh_block(), None).accepted

    def test_unauthorized_sealer_rejected(self, validators):
        keys, validator_set = validators
        outsider_keys = {"mallory": KeyPair.from_seed("mallory"), **keys}
        rogue_set = ValidatorSet.from_key_pairs(outsider_keys)
        rogue = ProofOfAuthority(rogue_set, "mallory", outsider_keys["mallory"])
        block = rogue.prepare_block(fresh_block())
        honest = ProofOfAuthority(validator_set, "anchor-0", keys["anchor-0"])
        assert not honest.validate_block(block, None).accepted

    def test_tampered_seal_rejected(self, validators):
        keys, validator_set = validators
        engine = ProofOfAuthority(validator_set, "anchor-1", keys["anchor-1"])
        block = engine.prepare_block(fresh_block())
        for reference in block.summary_references:
            if reference.get("kind") == "poa-seal":
                reference["signature"] = "00" * 64
        block.set_nonce(block.nonce)
        assert not engine.validate_block(block, None).accepted

    def test_strict_round_robin(self, validators):
        keys, validator_set = validators
        engine = ProofOfAuthority(validator_set, "anchor-1", keys["anchor-1"], strict_round_robin=True)
        block = engine.prepare_block(fresh_block(number=1))
        assert engine.validate_block(block, None).accepted  # 1 % 3 == 1 -> anchor-1
        wrong_slot = engine.prepare_block(fresh_block(number=2))
        assert not engine.validate_block(wrong_slot, None).accepted

    def test_constructor_rejects_non_member(self, validators):
        keys, validator_set = validators
        with pytest.raises(ConsensusError):
            ProofOfAuthority(validator_set, "mallory", KeyPair.from_seed("mallory"))

    def test_validator_set_helpers(self, validators):
        _, validator_set = validators
        assert len(validator_set) == 3
        assert validator_set.expected_sealer(4) == "anchor-1"
        assert validator_set.is_validator("anchor-2")
        with pytest.raises(ConsensusError):
            validator_set.public_key_of("nobody")
        with pytest.raises(ConsensusError):
            ValidatorSet().expected_sealer(0)


class TestQuorum:
    def test_majority_acceptance(self):
        quorum = Quorum(["a", "b", "c"])
        quorum.propose("p1", "marker-shift", {"new_marker": 6})
        assert not quorum.vote("p1", "a", True).decided
        outcome = quorum.vote("p1", "b", True)
        assert outcome.state is ProposalState.ACCEPTED
        assert outcome.yes_votes == 2

    def test_rejection_when_majority_impossible(self):
        quorum = Quorum(["a", "b", "c"])
        quorum.propose("p1", "deletion", {})
        quorum.vote("p1", "a", False)
        outcome = quorum.vote("p1", "b", False)
        assert outcome.state is ProposalState.REJECTED

    def test_votes_after_decision_are_ignored(self):
        quorum = Quorum(["a", "b", "c"])
        quorum.propose("p1", "x", {})
        quorum.vote("p1", "a", True)
        quorum.vote("p1", "b", True)
        outcome = quorum.vote("p1", "c", False)
        assert outcome.state is ProposalState.ACCEPTED

    def test_non_member_cannot_vote(self):
        quorum = Quorum(["a", "b"])
        quorum.propose("p1", "x", {})
        with pytest.raises(ConsensusError):
            quorum.vote("p1", "zz", True)

    def test_unknown_proposal(self):
        with pytest.raises(ConsensusError):
            Quorum(["a"]).proposal("nope")

    def test_propose_is_idempotent_but_kind_checked(self):
        quorum = Quorum(["a", "b", "c"])
        first = quorum.propose("p1", "x", {})
        assert quorum.propose("p1", "x", {}) is first
        with pytest.raises(ConsensusError):
            quorum.propose("p1", "different-kind", {})

    def test_required_votes_and_thresholds(self):
        assert Quorum(["a", "b", "c"]).required_votes() == 2
        assert Quorum(["a", "b", "c", "d"]).required_votes() == 3
        assert Quorum(["a", "b", "c"], threshold=0.66).required_votes() == 2
        with pytest.raises(ConsensusError):
            Quorum([])
        with pytest.raises(ConsensusError):
            Quorum(["a"], threshold=1.5)

    def test_decide_unanimously_and_statistics(self):
        quorum = Quorum(["a", "b", "c", "d", "e"])
        outcome = quorum.decide_unanimously("shift-6", "marker-shift", {"marker": 6})
        assert outcome.state is ProposalState.ACCEPTED
        stats = quorum.statistics()
        assert stats["accepted"] == 1 and stats["proposals"] == 1
        assert quorum.open_proposals() == []

    def test_record_votes_applies_a_round_in_member_order(self):
        quorum = Quorum(["a", "b", "c", "d", "e"])
        quorum.propose("p1", "x", {})
        outcome = quorum.record_votes("p1", {"e": True, "d": False, "c": True, "b": False, "a": True})
        assert outcome.state is ProposalState.ACCEPTED
        assert (outcome.yes_votes, outcome.no_votes, outcome.member_count) == (3, 2, 5)

    def test_record_votes_stops_tallying_once_decided(self):
        quorum = Quorum(["a", "b", "c"])
        quorum.propose("p1", "x", {})
        outcome = quorum.record_votes("p1", {"c": True, "a": False, "b": False})
        assert outcome.state is ProposalState.REJECTED
        assert quorum.proposal("p1").votes == {"a": False, "b": False}

    def test_record_votes_of_an_empty_round_leaves_the_proposal_open(self):
        quorum = Quorum(["a", "b", "c"])
        quorum.propose("p1", "x", {})
        outcome = quorum.record_votes("p1", {})
        assert outcome.state is ProposalState.OPEN and not outcome.decided
        with pytest.raises(ConsensusError):
            quorum.record_votes("missing", {"a": True})

    def test_proposal_counters(self):
        proposal = Proposal(proposal_id="p", kind="k", payload=None, votes={"a": True, "b": False})
        assert proposal.yes_votes == 1 and proposal.no_votes == 1


class TestConsensusChainIntegration:
    def test_chain_with_pow_finalizer_produces_valid_blocks(self):
        engine = ProofOfWork(difficulty_bits=6)
        chain = Blockchain(
            ChainConfig.paper_evaluation(), block_finalizer=engine.prepare_block
        )
        for i in range(5):
            block = chain.add_entry_block({"D": f"e{i}", "K": "A", "S": "s"}, "A")
            assert engine.meets_difficulty(block)
        chain.validate()

    def test_summary_blocks_not_mined(self):
        engine = ProofOfWork(difficulty_bits=6)
        chain = Blockchain(ChainConfig.paper_evaluation(), block_finalizer=engine.prepare_block)
        chain.add_entry_block({"D": "e", "K": "A", "S": "s"}, "A")
        summary = chain.block_by_number(2)
        assert summary.is_summary
        assert summary.nonce == 0

    def test_genesis_helper(self):
        assert make_genesis_block().block_number == 0
