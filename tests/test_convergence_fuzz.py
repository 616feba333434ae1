"""Stateful convergence fuzzing: random interleavings must converge.

A Hypothesis rule-based state machine drives a three-anchor deployment on
its transport's own kernel (logical chain clocks) through random
interleavings of the operations a real deployment sees — submit, delete,
multi-entry seal, partition, heal, sync — and, in
the adversarial variant, one byzantine actor from :mod:`repro.adversary`
weaving its attacks (equivocation, forged deletions, spoofed digests) into
the same interleaving.  The property under test is the paper's core
replication claim (Section IV-B): whatever the interleaving, after the
partition heals and a repair round runs, every honest replica holds a
byte-identical chain.

Profiles (pick with ``REPRO_FUZZ_PROFILE``, default ``quick``):

* ``determinism`` — 500 examples, long interleavings (nightly CI),
* ``standard``   — 100 examples (nightly CI),
* ``quick``      —  20 examples (push-time CI).

All profiles run derandomized so a CI failure reproduces locally.
"""

import json
import os

from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.adversary import DeletionForger, DigestSpoofer, EquivocatingProducer
from repro.core import ChainConfig
from repro.core.entry import EntryReference
from repro.network import NetworkSimulator

_PROFILES = {
    "determinism": {"max_examples": 500, "stateful_step_count": 30},
    "standard": {"max_examples": 100, "stateful_step_count": 25},
    "quick": {"max_examples": 20, "stateful_step_count": 15},
}
for _name, _values in _PROFILES.items():
    settings.register_profile(
        _name,
        deadline=None,
        derandomize=True,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
        **_values,
    )
settings.load_profile(os.environ.get("REPRO_FUZZ_PROFILE", "quick"))

USERS = ("ALPHA", "BRAVO")


def _chain_bytes(simulator: NetworkSimulator, anchor_id: str) -> str:
    """Canonical serialisation of one replica's living chain."""
    chain = simulator.anchors[anchor_id].chain
    return json.dumps(
        {
            "genesis_marker": chain.genesis_marker,
            "blocks": [block.to_dict() for block in chain.blocks],
        },
        sort_keys=True,
    )


class ConvergenceMachine(RuleBasedStateMachine):
    """Honest interleavings of submit / delete / seal / partition / heal / sync."""

    references: Bundle = Bundle("references")

    def __init__(self) -> None:
        super().__init__()
        # Keep-every-block config: incremental catch-up must always be
        # structurally possible, so teardown convergence is a *protocol*
        # property, not an artifact of retention settings.
        self.simulator = NetworkSimulator(
            anchor_count=3, config=ChainConfig(sequence_length=3)
        )
        for user in USERS:
            self.simulator.add_client(user)
        self.counter = 0
        self.pending = 0
        self.partitioned = False
        self.authors: dict[tuple[int, int], str] = {}

    # ------------------------------------------------------------------ #
    # Honest operations
    # ------------------------------------------------------------------ #

    @rule(target=references, user=st.sampled_from(USERS))
    def submit(self, user):
        self.counter += 1
        response = self.simulator.submit_entry(
            user,
            {"D": f"Record #{self.counter}", "K": user, "S": f"sig_{user}"},
            anchor_id=self.simulator.producer_id,
        )
        assert not response.is_error
        reference = EntryReference(
            block_number=int(response.payload["block_number"]),
            entry_number=int(response.payload["entry_number"]),
        )
        self.authors[(reference.block_number, reference.entry_number)] = user
        return reference

    @rule(user=st.sampled_from(USERS))
    def submit_deferred(self, user):
        # Multi-entry blocks are the core's (``add_entry`` ×N + ``seal_block``
        # on the producer chain); replication is the bus subscription's job.
        self.counter += 1
        self.simulator.producer.chain.add_entry(
            {"D": f"Deferred #{self.counter}", "K": user, "S": f"sig_{user}"}, user
        )
        self.pending += 1

    @precondition(lambda self: self.pending > 0)
    @rule()
    def seal(self):
        self.simulator.producer.chain.seal_block()
        self.pending = 0

    @rule(reference=references)
    def delete(self, reference):
        author = self.authors[(reference.block_number, reference.entry_number)]
        response = self.simulator.submit_deletion(
            author, reference, anchor_id=self.simulator.producer_id, reason="fuzz"
        )
        # Approved, or typed-rejected (e.g. repeat deletion of the same
        # target) — never an error and never a crash.
        assert not response.is_error
        assert response.payload["deletion_status"] in ("approved", "rejected", "executed")

    @precondition(lambda self: not self.partitioned)
    @rule()
    def partition(self):
        ids = self.simulator.anchor_ids
        self.simulator.transport.partition([ids[0]], list(ids[1:]))
        self.partitioned = True

    @precondition(lambda self: self.partitioned)
    @rule()
    def heal(self):
        self.simulator.transport.heal_partition()
        self.partitioned = False

    @rule()
    def sync(self):
        # A repair round any time: merely-lagging replicas catch up, forked
        # ones (adversarial variants) bootstrap.  Unreachable peers are
        # skipped gracefully.
        self.simulator.repair_divergent_replicas()

    # ------------------------------------------------------------------ #
    # Safety invariant and final convergence property
    # ------------------------------------------------------------------ #

    @invariant()
    def producer_never_regresses(self):
        head = self.simulator.producer.chain.head
        assert head.block_number >= 0
        assert self.simulator.producer.chain.blocks[-1].block_hash == head.block_hash

    def teardown(self):
        if self.partitioned:
            self.simulator.transport.heal_partition()
        # Two repair rounds: the first may bootstrap a forked replica, the
        # second converges anyone who lagged behind the first round's pulls.
        self.simulator.repair_divergent_replicas()
        self.simulator.repair_divergent_replicas()
        serialised = {
            anchor_id: _chain_bytes(self.simulator, anchor_id)
            for anchor_id in self.simulator.anchor_ids
        }
        assert len(set(serialised.values())) == 1, (
            "honest replicas diverged after heal+repair: "
            f"heads={self.simulator.all_heads()}"
        )


class AdversarialConvergenceMachine(ConvergenceMachine):
    """The same interleavings with one byzantine actor woven in.

    The actor kind is part of the fuzzed input: equivocating producer,
    deletion forger, or digest spoofer (clock skew needs virtual-time chain
    clocks, i.e. a caller's kernel, and is exercised by the ``clock-skew``
    scenario instead).
    Honest replicas must *still* end byte-identical, and the forger's
    unauthorized deletions must never be approved.
    """

    @initialize(kind=st.sampled_from(["equivocate", "forge", "spoof"]))
    def inject(self, kind):
        self.adversary_kind = kind
        transport = self.simulator.transport
        if kind == "equivocate":
            self.adversary = self.simulator.inject_adversary(
                EquivocatingProducer("FUZZ-BYZ", transport)
            )
        elif kind == "forge":
            self.adversary = self.simulator.inject_adversary(
                DeletionForger("FUZZ-MALLORY", transport)
            )
        else:
            self.adversary = self.simulator.inject_adversary(
                DigestSpoofer("FUZZ-SPOOFER", transport)
            )

    @precondition(lambda self: getattr(self, "adversary_kind", None) == "equivocate")
    @rule()
    def attack_equivocate(self):
        victims = [
            peer
            for peer in self.simulator.anchor_ids
            if peer != self.simulator.producer_id
        ]
        self.adversary.equivocate(
            victims, head=self.simulator.producer.chain.head, variants=2
        )

    @precondition(
        lambda self: getattr(self, "adversary_kind", None) == "forge" and self.authors
    )
    @rule()
    def attack_forge(self):
        block_number, entry_number = sorted(self.authors)[0]
        self.adversary.forge(
            self.simulator.producer_id,
            EntryReference(block_number=block_number, entry_number=entry_number),
            reason="fuzzed takedown",
        )

    @precondition(lambda self: getattr(self, "adversary_kind", None) == "spoof")
    @rule(lead=st.integers(min_value=1, max_value=5))
    def attack_spoof(self, lead):
        self.adversary.spoof_round(
            list(self.simulator.anchor_ids),
            fake_head=self.simulator.producer.chain.head.block_number + lead,
        )

    @invariant()
    def forgeries_never_approved(self):
        if getattr(self, "adversary_kind", None) == "forge":
            assert self.adversary.stats.get("approved", 0) == 0


TestHonestConvergence = ConvergenceMachine.TestCase
TestAdversarialConvergence = AdversarialConvergenceMachine.TestCase
