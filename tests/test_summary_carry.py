"""Differential oracle for the summary cycle's carry-by-block path.

A summary merges an older summary's entries by block: only keys approved
since that summary's watermark and its watched temporaries are checked again,
the rest ride along with their memos (``Summarizer._carry``).  Here a
Hypothesis driver runs random operations — entries for two authors,
temporary entries with a τ or α bound, deletions by the author or a foreign
author, seals, idle ticks and a mid-run snapshot or restart, after which the
loaded summaries derive their record from the block alone — and after every
summary recomputes the carried/dropped split from scratch with
:func:`entry_survives` over the same expiring views.  Carried entries (by
identity where already copied, in order), drops with their reasons, the block
hash, and ``find_entry`` against ``legacy_find_entry`` for every reference
ever issued must all agree.  Every summary the chain builds also carries its
entries' location keys (``CarryRecord.keys``, again after a reload), its
streamed hash and size match the plain ``json.dumps`` bytes, and
``Block.find_copy_of`` answers like a scan of the entries — in ``FULL_COPY``
and in ``MERKLE_REFERENCE`` mode.

Examples per ``REPRO_FUZZ_PROFILE``: quick 20 (tier-1), standard 100 and
determinism 500 (nightly CI).
"""

import hashlib
import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

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
from repro.core.block import Block, BlockType, CarryRecord
from repro.core.deletion import DeletionRegistry, build_deletion_request
from repro.core.entry import Entry
from repro.core.index import legacy_find_entry
from repro.core.retention import entry_survives
from repro.core.sequence import SequenceView
from repro.core.summarizer import _SEARCHES_PER_SCAN, Summarizer
from repro.storage.memstore import MemoryBlockStore
from repro.storage.snapshot import chain_from_payload, snapshot_payload
from repro.storage.wal import JournalBlockStore

FUZZ_EXAMPLES = {"quick": 20, "standard": 100, "determinism": 500}[
    os.environ.get("REPRO_FUZZ_PROFILE", "quick")
]

USERS = ("ALPHA", "BRAVO")

CONFIGS = {
    f"{strategy.value}/{redundancy.value}": ChainConfig(
        sequence_length=3,
        retention=RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=7),
        shrink_strategy=strategy,
        summary_mode=SummaryMode.FULL_COPY,
        redundancy=redundancy,
        empty_block_interval=2,
    )
    for strategy in ShrinkStrategy
    for redundancy in (RedundancyPolicy.NONE, RedundancyPolicy.MIDDLE_MERKLE_ROOT)
}
CONFIGS["merkle_reference"] = replace(
    CONFIGS["all_old/none"], summary_mode=SummaryMode.MERKLE_REFERENCE
)

#: One step: (kind, number, flag).  ``temporary`` bounds by τ when the flag
#: is set (else α), ``delete`` asks as a foreign author, ``reload`` goes
#: through a snapshot (else a restart on the same block objects).
operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "temporary", "temporary", "delete", "delete",
                         "seal", "seal", "seal", "idle", "reload"]),
        st.integers(0, 10**6),
        st.booleans(),
    ),
    min_size=40,
    max_size=80,
)


def _dumps(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def from_scratch(expiring, registry, *, current_time, current_block):
    """Every entry of the expiring views through ``entry_survives``."""
    carried, dropped = [], []
    for view in expiring:
        for block in view.blocks:
            for entry in block.entries:
                kept, reason = entry_survives(
                    entry,
                    containing_block_number=block.block_number,
                    registry=registry,
                    current_time=current_time,
                    current_block=current_block,
                )
                if kept:
                    copy = entry.as_copy(origin_block_number=block.block_number, origin_timestamp=block.timestamp)
                    carried.append((copy, copy is entry))
                else:
                    dropped.append((block.block_number, entry, reason))
    return carried, dropped


class CheckedSummarizer(Summarizer):
    """Checks every summary it builds against :func:`from_scratch`."""

    def __init__(self, config: ChainConfig, built: list[int]) -> None:
        super().__init__(config)
        self.built = built

    def build_summary_block(self, **kwargs):
        result = super().build_summary_block(**kwargs)
        carried, dropped = from_scratch(
            result.expired_sequences,
            kwargs["registry"],
            current_time=kwargs["current_time"],
            current_block=kwargs["next_block_number"],
        )
        assert len(result.carried_entries) == len(carried)
        for ours, (theirs, same_object) in zip(result.carried_entries, carried):
            assert ours is theirs if same_object else ours == theirs
        assert [(d.block_number, d.reason) for d in result.dropped_entries] == [
            (number, reason) for number, _, reason in dropped
        ]
        assert all(d.entry is entry for d, (_, entry, _) in zip(result.dropped_entries, dropped))
        block = result.block
        full_copy = self.config.summary_mode is SummaryMode.FULL_COPY
        assert block.entries == ([copy for copy, _ in carried] if full_copy else [])
        assert block.block_hash == hashlib.sha256(_dumps(block.content_dict()).encode("utf-8")).hexdigest()
        assert block.compute_hash() == block.block_hash
        assert block.byte_size() == len(_dumps(block.to_dict()).encode("utf-8"))
        assert block.__canonical_json__() == _dumps(block.to_dict())
        if full_copy:
            assert block._carry.keys == [entry.location_key(block.block_number) for entry in block.entries]
        else:
            assert block._carry is None
        self.built.append(block.block_number)
        return result


def scanned_copy_of(block, key):
    """:meth:`Block.find_copy_of` by a scan: the first copy under ``key``."""
    for entry in block.entries:
        if entry.origin_block_number is not None and (entry.origin_block_number, entry.origin_entry_number) == key:
            return entry
    return None


def assert_lookups_match(chain: Blockchain, issued) -> None:
    blocks = chain.blocks
    for reference, _ in issued:
        ours = chain.find_entry(reference)
        theirs = legacy_find_entry(blocks, chain.genesis_marker, reference)
        assert (ours is None) == (theirs is None), reference
        if ours is not None:
            assert ours[0] is theirs[0] and ours[1] is theirs[1], reference
        key = (reference.block_number, reference.entry_number)
        for block in blocks:
            if block.is_summary:
                assert block.find_copy_of(*key) is scanned_copy_of(block, key), (block.block_number, key)


def run(config: ChainConfig, steps) -> int:
    """Drive one chain through ``steps``; returns the number of summaries checked."""
    built: list[int] = []

    def checked(chain: Blockchain) -> Blockchain:
        chain.summarizer = CheckedSummarizer(chain.config, built)
        return chain

    chain = checked(Blockchain(config))
    issued: list[tuple[EntryReference, str]] = []

    def seal():
        block = chain.seal_block()
        issued.extend((entry.reference_in(block.block_number), entry.author) for entry in block.data_entries())

    for kind, number, flag in steps:
        user = USERS[number % 2]
        if kind == "add":
            chain.add_entry({"D": f"Login {user} #{number}"}, user)
        elif kind == "temporary":
            bound = number % 8
            if flag:
                chain.add_entry({"D": f"temp {user}"}, user, expires_at_time=chain.clock.peek() + bound)
            else:
                chain.add_entry({"D": f"temp {user}"}, user, expires_at_block=chain.next_block_number + bound)
        elif kind == "delete" and issued:
            reference, author = issued[number % len(issued)]
            chain.request_deletion(reference, USERS[(USERS.index(author) + flag) % 2])
        elif kind == "seal":
            seal()
        elif kind == "idle":
            chain.idle_tick()
        elif kind == "reload":
            if chain.pending_entries:
                seal()
            if flag:
                chain = checked(chain_from_payload(snapshot_payload(chain)))
            else:
                store = MemoryBlockStore()
                for block in chain.blocks:
                    store.append(block)
                chain = checked(Blockchain(config, store=store))
        assert_lookups_match(chain, issued)
    for _ in range(2 * config.sequence_length):
        seal()
    assert_lookups_match(chain, issued)
    return len(built)


@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True)
@given(steps=operations)
def test_carry_by_block_matches_entry_by_entry(config_name, steps):
    assert run(CONFIGS[config_name], steps) >= 2


def test_bounded_state_after_300_cycles():
    """No index structure and no carry record holds a block that was cut."""
    chain = Blockchain(ChainConfig.paper_evaluation())
    issued = []
    while chain.next_block_number < 900:
        number = chain.next_block_number
        if number % 7 == 0 and issued:
            chain.request_deletion(issued.pop(0), "ALPHA")
        expiry = {"expires_at_block": number + 12} if number % 5 == 0 else {}
        block = chain.add_entry_block({"D": f"Login {number}"}, "ALPHA", **expiry)
        issued.append(EntryReference(block.block_number, 1))
    assert chain.statistics()["deletions"]["executed"] > 0

    def same(ours, theirs) -> bool:
        return len(ours) == len(theirs) and all(mine is living for mine, living in zip(ours, theirs))

    living = chain.blocks
    index = chain._index
    assert same(list(index._blocks.values()), living)
    assert same(index._summaries, [block for block in living if block.is_summary and block.entries])
    assert same([block for view in index._views for block in view.blocks], living)
    # A record holds memo strings, positions, a count and the registry: no
    # block, so nothing it keeps can outlive a cut.
    for summary in index._summaries:
        record = summary._carry
        assert record.registry is chain.registry
        assert record.watermark <= chain.registry.decision_count
        assert len(record.memos) == summary.entry_count
        assert all(type(memo) is str for memo in record.memos)
        assert all(type(position) is int for position in record.watch)


def _erasing_chain(config: ChainConfig, store=None, *, blocks: int = 60) -> Blockchain:
    """A chain sealing one record per block; every fourth block asks to
    erase the oldest not yet erased record of a block numbered 3k."""
    chain = Blockchain(config, store=store)
    issued = []
    while chain.next_block_number < blocks:
        if issued and chain.next_block_number % 4 == 0:
            chain.request_deletion(issued.pop(0), "ALPHA")
        block = chain.add_entry_block({"D": f"Login {chain.next_block_number}"}, "ALPHA")
        if block.block_number % 3 == 0:
            issued.append(block.data_entries()[0].reference_in(block.block_number))
    return chain


def _heavily_erased_chain(config: ChainConfig, *, blocks: int) -> Blockchain:
    """Ten records per block; each block erases nine of the ten records of
    the fourth newest one in one burst — more fresh marks than a merged
    summary's keys are searched for one by one."""
    chain = Blockchain(config)
    sealed = []
    while chain.next_block_number < blocks:
        if len(sealed) > 3:
            for entry in sealed[-4][1][:9]:
                chain.request_deletion(entry.reference_in(sealed[-4][0]), "ALPHA")
        for record in range(10):
            chain.add_entry({"D": f"Login {chain.next_block_number}.{record}"}, "ALPHA")
        block = chain.seal_block()
        sealed.append((block.block_number, block.data_entries()))
    return chain


@pytest.mark.parametrize("erasing", ["one at a time", "90 % in bursts"])
def test_summaries_built_by_the_chain_never_scan_for_locations(monkeypatch, erasing):
    """Fresh marks and lookups search the keys a summary carries: no
    summary the chain built derives its :meth:`Block.location_keys`."""
    calls, derived, fresh = [], [], []
    location_keys = Block.location_keys

    def counted_keys(block):
        memo = block._keys
        keys = location_keys(block)
        calls.append(block.block_number)
        if memo is None and block._keys is not None:
            derived.append(block.block_number)
        return keys

    monkeypatch.setattr(Block, "location_keys", counted_keys)
    approved_since = DeletionRegistry.approved_since

    def counted(registry, watermark):
        since = approved_since(registry, watermark)
        fresh.append(len(since))
        return since

    monkeypatch.setattr(DeletionRegistry, "approved_since", counted)
    if erasing == "one at a time":
        chain = _erasing_chain(ChainConfig.paper_evaluation(), blocks=150)
    else:
        chain = _heavily_erased_chain(ChainConfig.paper_evaluation(), blocks=60)
        assert max(fresh) > _SEARCHES_PER_SCAN
    assert chain.statistics()["deletions"]["executed"] > 0
    chain.verify_index()
    assert calls and derived == []


def _copy(label, origin, number=1, origin_entry=True):
    """An entry of block ``origin`` numbered ``number``, copied into a summary
    (without its origin entry number unless ``origin_entry``)."""
    entry = Entry(data={"D": label}, author="ALPHA", signature="s", entry_number=number)
    copy = entry.as_copy(origin_block_number=origin, origin_timestamp=0)
    return copy if origin_entry else replace(copy, origin_entry_number=None)


#: Hand-built summary 9's entries and the keys approved for erasure, for the
#: shapes no summary the chain builds has: a key held twice, an entry that is
#: no copy (keyed by summary 9 itself, colliding with a copy of block 9) and a
#: copy without its origin entry number (keyed by its own entry number).
HAND_BUILT = {
    "repeated key": ([_copy("a", 1), _copy("b", 1), _copy("c", 2)], [(1, 1)]),
    "non-copy entry": (
        [Entry(data={"D": "n"}, author="ALPHA", signature="s", entry_number=1), _copy("m", 9), _copy("c", 2, 2)],
        [(9, 1), (2, 2)],
    ),
    "copy without origin entry number": ([_copy("a", 1), _copy("u", 2, 3, False), _copy("c", 2)], [(2, 3)]),
}


@pytest.mark.parametrize("fresh", ["searched", "scanned"])
@pytest.mark.parametrize("record", ["hand-built", "foreign registry"])
@pytest.mark.parametrize("shape", sorted(HAND_BUILT))
def test_summaries_without_carried_keys_carry_and_resolve_like_a_scan(shape, record, fresh):
    """A summary the chain did not build derives its location keys: the carry
    drops exactly what :func:`entry_survives` drops, ``find_copy_of`` answers
    like :func:`scanned_copy_of`, and a new record keeps keys only if every
    entry is a copy (a non-copy entry's key changes with its block)."""
    entries, marked = HAND_BUILT[shape]
    if fresh == "scanned":  # more marks than are searched for one by one
        marked = marked + [(100, number) for number in range(1, _SEARCHES_PER_SCAN + 1)]
    everyone_copied = all(entry.is_copy for entry in entries)
    carry = None
    if record == "foreign registry":  # built by another chain's summarizer
        built = Block(9, 8, "aa", entries, block_type=BlockType.SUMMARY)
        keys = built.location_keys() if everyone_copied else None
        carry = CarryRecord(built.entry_memos(), keys, DeletionRegistry(), 0, ())
    block = Block(9, 8, "aa", entries, block_type=BlockType.SUMMARY, _carry=carry)
    registry = DeletionRegistry()
    for key in marked:
        request = build_deletion_request(EntryReference(*key), author="ALPHA", signature="s")
        registry.record_request(request, approved=True)

    carried, dropped, new_record = Summarizer(ChainConfig())._carry(
        [SequenceView(index=3, blocks=[block])], registry, current_time=9, current_block=10
    )
    survivors, reasons = [], []
    for entry in block.entries:
        kept, reason = entry_survives(
            entry, containing_block_number=9, registry=registry, current_time=9, current_block=10
        )
        (survivors if kept else reasons).append(entry if kept else reason)
    assert len(carried) == len(survivors) and all(ours is theirs for ours, theirs in zip(carried, survivors))
    assert [d.reason for d in dropped] == reasons and dropped
    assert (new_record.keys is not None) == everyone_copied
    for key in {entry.location_key(9) for entry in entries} | {(9, 2)}:
        assert block.find_copy_of(*key) is scanned_copy_of(block, key), key


@pytest.mark.parametrize("reopen", ["snapshot", "journal"])
def test_summaries_carry_keys_again_after_a_reload(reopen, tmp_path):
    config = ChainConfig.paper_evaluation()
    path = tmp_path / "chain.journal"
    chain = _erasing_chain(config, JournalBlockStore(path))
    if reopen == "snapshot":
        chain = chain_from_payload(snapshot_payload(chain))
    else:
        chain = Blockchain(config, store=JournalBlockStore(path))
    loaded = [block for block in chain.blocks if block.is_summary and block.entries]
    # A reload carries no keys; a journal replay keeps the entries' memos alone.
    memos_only = (None, None, 0, ())
    assert loaded and all(
        block._carry is None if reopen == "snapshot"
        else (block._carry.keys, block._carry.registry, block._carry.watermark, block._carry.runs) == memos_only
        for block in loaded
    )
    for number in range(3 * config.sequence_length):
        chain.add_entry_block({"D": f"after {number}"}, "ALPHA")
    built = [block for block in chain.blocks if block.is_summary and block.entries]
    assert built and built[0].block_number > loaded[-1].block_number
    for block in built:
        assert block._carry.keys == [entry.location_key(block.block_number) for entry in block.entries]
    chain.verify_index()
