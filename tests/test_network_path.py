"""The network path encodes a block once and decodes only what it keeps.

* **Snapshot composition.**  ``snapshot_payload`` joins each block's
  canonical text (built from its entry memos) and each registry decision
  (built around its request's memo) instead of serialising a ``to_dict()``
  tree.  A Hypothesis oracle pins the bytes to the old formula under both
  summary modes, every redundancy policy, ECDSA entries, snapshot-restored
  registries, a replica's registry and JSON-hostile data and reasons.
* **Verify-then-decode.**  A gossip hop hashes the announced bytes first and
  drops a block it has already seen before ``Block.from_dict``; the producer
  counts its own announcement as seen.  Clock-free cost guards count calls.
* **BlockFrame.**  The producer's announcement carries ``to_dict()`` plus
  its canonical text; the safety tests show a receiver applies only what
  ``Block.from_dict`` verified, and only when it is what was hashed.

Examples per ``REPRO_FUZZ_PROFILE``: quick 20 (tier-1), standard 100 (nightly).
"""

import json
import os

from hypothesis import given, settings, strategies as st

from repro.core import (
    Blockchain,
    ChainConfig,
    EntryReference,
    LengthUnit,
    RedundancyPolicy,
    RetentionPolicy,
    SummaryMode,
)
from repro.core.block import Block, canonical_text_hash
from repro.crypto.hashing import canonical_json
from repro.crypto.keys import KeyPair
from repro.network import (
    AnchorNode,
    EventKernel,
    GossipOverlay,
    GossipTopology,
    InMemoryTransport,
    LatencyModel,
    Message,
    MessageKind,
    NetworkSimulator,
)
from repro.network.message import BlockFrame
from repro.storage.snapshot import WIRE_AUDIT_WINDOW, chain_from_payload, snapshot_payload

FUZZ_EXAMPLES = {"quick": 20, "standard": 100, "determinism": 500}[
    os.environ.get("REPRO_FUZZ_PROFILE", "quick")
]

USERS = ("ALPHA", 'BR"AVO é')
KEYS = {user: KeyPair.from_seed(user) for user in USERS}


def old_formula(chain: Blockchain) -> str:
    """The reference: ``json.dumps`` of ``to_dict()`` with the audit trail cut."""
    state = chain.to_dict()
    state["events"] = state["events"][-WIRE_AUDIT_WINDOW:]
    return json.dumps(state, sort_keys=True, separators=(",", ":"))


def frame_of(block: Block) -> BlockFrame:
    return BlockFrame(block.to_dict(), block.__canonical_json__())


# --------------------------------------------------------------------- #
# Snapshot byte-identity oracle
# --------------------------------------------------------------------- #

#: Text that exercises JSON escaping: non-ASCII, quotes and backslashes.
tricky_text = st.text(
    alphabet=st.one_of(
        st.characters(blacklist_categories=("Cs",)), st.sampled_from('"\\\né漢\U0001f600')
    ),
    max_size=8,
)
steps = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "temporary", "delete", "delete", "seal", "seal", "idle", "restore"]),
        tricky_text,
        st.integers(0, 10**6),
    ),
    min_size=10,
    max_size=40,
)


def replay_into(replica: Blockchain, chain: Blockchain) -> None:
    """Hand the replica every normal block past its head, decoded from a dict."""
    for block in chain.blocks:
        if not block.is_summary and block.block_number > replica.head.block_number:
            replica.receive_block(Block.from_dict(block.to_dict()))


@settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True)
@given(
    mode=st.sampled_from(SummaryMode),
    redundancy=st.sampled_from(RedundancyPolicy),
    ecdsa=st.booleans(),
    steps=steps,
)
def test_snapshot_payload_is_byte_identical_to_json_dumps(mode, redundancy, ecdsa, steps):
    config = ChainConfig(
        sequence_length=3,
        retention=RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=7),
        summary_mode=mode,
        redundancy=redundancy,
        empty_block_interval=2,
        signature_scheme="ecdsa" if ecdsa else "simplified",
    )
    chain = Blockchain(config)
    replica = Blockchain(config)
    keys = KEYS if ecdsa else {user: None for user in USERS}
    issued: list[tuple[EntryReference, str]] = []
    for kind, text, number in steps:
        user = USERS[number % 2]
        if kind == "add":
            chain.add_entry({"D": text, text: number}, user, key_pair=keys[user])
        elif kind == "temporary":
            bound = chain.next_block_number + number % 6
            chain.add_entry({"D": text}, user, key_pair=keys[user], expires_at_block=bound)
        elif kind == "delete" and issued:
            reference, author = issued[number % len(issued)]
            requester = author if number % 3 else USERS[(USERS.index(author) + 1) % 2]
            chain.request_deletion(reference, requester, key_pair=keys[requester], reason=text)
        elif kind == "seal":
            block = chain.seal_block()
            issued.extend((entry.reference_in(block.block_number), entry.author) for entry in block.data_entries())
        elif kind == "idle":
            chain.clock.advance(number % 4)
            chain.idle_tick()
        elif kind == "restore" and not chain.pending_entries:
            chain = chain_from_payload(snapshot_payload(chain))
        replay_into(replica, chain)
        assert snapshot_payload(chain) == old_formula(chain)
    assert snapshot_payload(replica) == old_formula(replica)


def test_a_long_audit_trail_is_cut_to_the_wire_window():
    chain = summary_chain()
    for index in range(WIRE_AUDIT_WINDOW):
        chain.request_deletion(EntryReference(10**6, 1), "ALPHA", reason=f"missing #{index}")
    assert len(chain.events) > WIRE_AUDIT_WINDOW
    payload = snapshot_payload(chain)
    assert payload == old_formula(chain)
    assert len(json.loads(payload)["events"]) == WIRE_AUDIT_WINDOW


# --------------------------------------------------------------------- #
# Clock-free cost guards
# --------------------------------------------------------------------- #


def count_calls(monkeypatch, owner, name) -> list[int]:
    """Count calls of ``owner.name`` (a classmethod or a method)."""
    calls = [0]
    original = getattr(owner, name)
    if isinstance(owner.__dict__[name], classmethod):

        def counted(cls, *args, **kwargs):
            calls[0] += 1
            return original.__func__(cls, *args, **kwargs)

        monkeypatch.setattr(owner, name, classmethod(counted))
    else:

        def counted(self, *args, **kwargs):
            calls[0] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    return calls


def test_a_gossip_deployment_decodes_each_block_once_per_replica(monkeypatch):
    """Three anchors on a clique: duplicate hops and the producer's own block
    coming back are dropped by hash, so decodes equal fresh ingests."""
    decodes = count_calls(monkeypatch, Block, "from_dict")
    ingested = []
    ingest = AnchorNode._ingest_announced_block

    def counted_ingest(self, block):
        fresh = ingest(self, block)
        ingested.append(fresh)
        return fresh

    monkeypatch.setattr(AnchorNode, "_ingest_announced_block", counted_ingest)
    ids = ["anchor-0", "anchor-1", "anchor-2"]
    simulator = NetworkSimulator(
        anchor_count=3,
        config=ChainConfig(sequence_length=3),
        latency=LatencyModel(minimum_ms=5.0, maximum_ms=15.0, seed=3),
        kernel=EventKernel(seed=3),
        gossip=GossipOverlay(GossipTopology.fully_connected(ids), fanout=2, seed=3),
    )
    simulator.add_client("ALPHA")
    for index in range(12):
        simulator.submit_entry("ALPHA", {"D": f"event {index}"}, anchor_id=simulator.producer_id)
        simulator.kernel.run()
    assert simulator.replicas_identical()
    sealed = sum(1 for block in simulator.producer.chain.blocks if not block.is_summary) - 1
    assert sealed == 12
    assert all(ingested) and len(ingested) == 2 * sealed
    assert decodes[0] == len(ingested)
    # Every replica forwards once to both others: the producer gets its own
    # block back and each replica the other's copy, all dropped undecoded.
    announcements = [
        message
        for message in simulator.transport.message_log
        if message.kind is MessageKind.BLOCK_ANNOUNCE
    ]
    assert len(announcements) == 3 * decodes[0]


def summary_chain() -> Blockchain:
    """A chain with carried summaries, redundancy copies and a registry."""
    chain = Blockchain(
        ChainConfig(
            sequence_length=3,
            retention=RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=9),
            redundancy=RedundancyPolicy.MIDDLE_FULL_COPY,
        )
    )
    references = []
    for index in range(40):
        block = chain.add_entry_block({"D": f"Login é{index}"}, USERS[index % 2])
        references.append((EntryReference(block.block_number, 1), USERS[index % 2]))
        if index % 4 == 3:
            reference, author = references.pop(0)
            chain.request_deletion(reference, author, reason='"erase" me')
            chain.seal_block()
    assert any(block.redundancy and block.redundancy[0].entries for block in chain.blocks)
    assert chain.registry.decision_count > 0
    return chain


def test_serving_a_snapshot_never_calls_block_to_dict(monkeypatch):
    node = AnchorNode("server", summary_chain(), InMemoryTransport())
    to_dicts = count_calls(monkeypatch, Block, "to_dict")
    for payload in ({"probe": True}, {"chunk": 0}, {"chunk": 1}):
        response = node.handle_message(Message(kind=MessageKind.SNAPSHOT_REQUEST, sender="peer", payload=payload))
        assert response.kind is MessageKind.SNAPSHOT_CHUNK
    assert to_dicts[0] == 0


def test_composing_a_snapshot_keeps_no_new_memo():
    chain = summary_chain()
    restored = chain_from_payload(snapshot_payload(chain))
    for subject in (chain, restored):
        memoised = []
        for block in subject.blocks:
            for record in block.redundancy:
                memoised.append(record)
                memoised.extend(record.entries)
            memoised.extend(block.entries)
        memoised.extend(decision.request for decision in subject.registry.decisions)
        before = [item._canonical_cache for item in memoised]
        assert any(memo is None for memo in before)  # the registry's unnumbered originals
        snapshot_payload(subject)
        assert [item._canonical_cache for item in memoised] == before


# --------------------------------------------------------------------- #
# Safety of the hash-first path
# --------------------------------------------------------------------- #


def gossip_replica() -> tuple[AnchorNode, Blockchain, Block, Block, list[Message]]:
    """A replica on a gossip overlay, the producer's chain with its first
    block, a rival for the same slot, and the announcements the replica
    forwards."""
    transport = InMemoryTransport()
    forwarded: list[Message] = []
    transport.register("peer", forwarded.append)
    overlay = GossipOverlay(GossipTopology.fully_connected(["replica", "peer"]), fanout=1)
    config = ChainConfig(sequence_length=5)
    replica = AnchorNode("replica", Blockchain(config), transport, producer_id="peer", gossip=overlay)
    producer = Blockchain(config)
    first = producer.add_entry_block({"D": "first"}, "ALPHA")
    rival = Blockchain(config).add_entry_block({"D": "rival"}, "ALPHA")
    assert first.block_number == rival.block_number and first.block_hash != rival.block_hash
    return replica, producer, first, rival, forwarded


def announce(payload, *, gossip: bool = True) -> Message:
    block_hash = payload["block_hash"] if isinstance(payload, dict) else payload.fields["block_hash"]
    meta = {"gossip": {"item": block_hash, "hops": 0}} if gossip else {}
    return Message(kind=MessageKind.BLOCK_ANNOUNCE, sender="peer", payload={"block": payload, **meta})


def test_a_frame_whose_text_and_fields_disagree_is_never_applied_or_forwarded():
    for gossip in (True, False):
        replica, _, first, rival, forwarded = gossip_replica()
        head = replica.chain.head.block_hash
        mixed = BlockFrame(rival.to_dict(), first.__canonical_json__())
        response = replica.handle_message(announce(mixed, gossip=gossip))
        assert response is not None and response.is_error
        assert "does not match its fields" in response.payload["reason"]
        replica.transport.kernel.run()
        assert replica.chain.head.block_hash == head and not forwarded
        assert not replica._seen_announcements
    # The text of a block already seen with the fields of the next one: the
    # hop is dropped by its hash, and the next block waits for its own frame.
    replica, producer, first, _, forwarded = gossip_replica()
    kernel = replica.transport.kernel
    assert replica.handle_message(announce(frame_of(first))) is None
    kernel.run()
    assert replica.chain.head.block_hash == first.block_hash and len(forwarded) == 1
    second = producer.add_entry_block({"D": "second"}, "ALPHA")
    assert replica.handle_message(announce(BlockFrame(second.to_dict(), first.__canonical_json__()))) is None
    kernel.run()
    assert replica.chain.head.block_hash == first.block_hash and len(forwarded) == 1
    assert replica.handle_message(announce(frame_of(second))) is None
    kernel.run()
    assert replica.chain.head.block_hash == second.block_hash and len(forwarded) == 2
    assert forwarded[-1].payload["block"].text == second.__canonical_json__()


def test_a_tampered_dict_claiming_a_seen_hash_is_not_applied():
    replica, _, first, rival, forwarded = gossip_replica()
    replica._remember_announcement(first.block_hash)
    tampered = rival.to_dict()
    tampered["block_hash"] = first.block_hash
    for payload in (tampered, BlockFrame(tampered, json.dumps(tampered, sort_keys=True, separators=(",", ":")))):
        response = replica.handle_message(announce(payload))
        assert response is not None and response.is_error
        assert response.payload["reason"] == f"stored hash of block {rival.block_number} does not match its content"
        assert replica.chain.head.block_number == 0 and not forwarded
    # Without a claimed hash, from_dict verifies nothing: not applied either.
    unclaimed = rival.to_dict()
    del unclaimed["block_hash"]
    gossip = {"item": rival.block_hash, "hops": 0}
    response = replica.handle_message(
        Message(kind=MessageKind.BLOCK_ANNOUNCE, sender="peer", payload={"block": unclaimed, "gossip": gossip})
    )
    assert response is not None and response.is_error
    assert replica.chain.head.block_number == 0 and not forwarded


def test_a_hash_mismatched_block_sent_directly_keeps_its_reason():
    replica, _, first, _, _ = gossip_replica()
    tampered = first.to_dict()
    tampered["entries"][0]["data"]["D"] = "tampered"
    response = replica.transport.send("replica", announce(tampered, gossip=False))
    assert response.is_error
    assert response.payload["reason"] == f"stored hash of block {first.block_number} does not match its content"
    assert replica.chain.head.block_number == 0


def test_frame_text_hash_equals_the_block_hash_for_summary_content():
    """Redundancy copies and carried entries hash the same from the frame
    text, from a plain dict's encoding and after decoding."""
    chain = summary_chain()
    summary = next(block for block in chain.blocks if block.redundancy and block.redundancy[0].entries)
    assert canonical_text_hash(canonical_json(frame_of(summary))) == summary.block_hash
    assert canonical_text_hash(canonical_json(summary.to_dict())) == summary.block_hash
    assert Block.from_dict(frame_of(summary).fields).block_hash == summary.block_hash


def test_a_frame_message_has_the_wire_size_of_its_dict():
    chain = summary_chain()
    for block in chain.blocks[-4:]:
        framed, plain = announce(frame_of(block)), announce(block.to_dict())
        assert framed.wire_size == plain.wire_size == len(canonical_json(plain.to_dict()).encode("utf-8"))
        assert len(canonical_json(framed.to_dict())) == framed.wire_size
