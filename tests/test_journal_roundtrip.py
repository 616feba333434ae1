"""Round trip of the journal's runs: what the writer holds, a reopening holds.

A Hypothesis driver runs random operations on a chain over a
:class:`JournalBlockStore` — entries for two authors, temporary entries,
erasures by the author or a foreign author, seals, compactions and
reopenings — under every summary mode and redundancy policy.  At each
reopening, and at the end, a chain replayed from the file must have the
writer's head hash, ``statistics()`` and ``find_entry`` answer for every
reference ever issued (the two figures a restart rebuilds from the living
blocks alone are compared with a restart from memory); every run the replay reads must yield the very
``Entry`` objects its source block holds.  After every seal, a store
reopened from the file alone must hold the writer's head.  A reopening sometimes takes over
as the writer, so runs whose source was itself replayed are written too.
Each drive runs twice: at the journal's own rewrite floor, and at a floor of
0, where the journal rewrites itself whenever its file has doubled — right
after the commit of the step that grew it, outside any commit scope.

Examples per ``REPRO_FUZZ_PROFILE``: quick 10 per configuration (tier-1),
standard 100 and determinism 500 (nightly CI).
"""

import json
import os
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core import Blockchain, ChainConfig, RedundancyPolicy, SummaryMode
from repro.storage import wal
from repro.storage.memstore import MemoryBlockStore
from repro.storage.wal import JournalBlockStore

FUZZ_EXAMPLES = {"quick": 10, "standard": 100, "determinism": 500}[
    os.environ.get("REPRO_FUZZ_PROFILE", "quick")
]

USERS = ("ALPHA", "BRAVO")

CONFIGS = {
    f"{mode.value}/{redundancy.value}": replace(
        ChainConfig.paper_evaluation(), summary_mode=mode, redundancy=redundancy
    )
    for mode in SummaryMode
    for redundancy in RedundancyPolicy
}

#: One step: (kind, number, flag).  ``delete`` asks as a foreign author when
#: the flag is set; ``reopen`` hands the writing over to the reopened chain.
operations = st.lists(
    st.tuples(
        st.sampled_from(["add", "add", "add", "temporary", "delete", "delete",
                         "seal", "seal", "seal", "compact", "reopen"]),
        st.integers(0, 10**6),
        st.booleans(),
    ),
    min_size=20,
    max_size=60,
)


ORIGINAL_DECODE = wal._decode_record


def checked_decode(line, stored):
    """``wal._decode_record``, asserting each run yields its source's objects."""
    decoded = ORIGINAL_DECODE(line, stored)
    record = json.loads(line)
    if record["kind"] == "block":
        position = 0
        for item in record["block"]["entries"]:
            if isinstance(item, list):
                source, start, stop = item
                held = stored[source].entries[start:stop]
                assert all(mine is theirs for mine, theirs in zip(decoded.entries[position:], held))
                position += stop - start
            else:
                position += 1
        assert position == decoded.entry_count
    return decoded


def adopted(writer: Blockchain) -> Blockchain:
    """The writer's blocks adopted from memory: a restart without the journal."""
    store = MemoryBlockStore()
    for block in writer.blocks:
        store.append(block)
    return Blockchain(writer.config, store=store)


def assert_same_chain(reopened: Blockchain, writer: Blockchain, issued) -> None:
    assert reopened.head.block_hash == writer.head.block_hash
    # A restart rebuilds the dropped-entry count and the registry from the
    # living blocks alone (see ``Blockchain._adopt_stored_blocks``): those
    # two figures are compared with a restart from memory, the rest with
    # the writer.
    ours = reopened.statistics()
    assert ours == adopted(writer).statistics()
    theirs = writer.statistics()
    for restarted in ("dropped_entries", "deletions"):
        del ours[restarted], theirs[restarted]
    assert ours == theirs
    for reference in issued:
        ours, theirs = reopened.find_entry(reference), writer.find_entry(reference)
        assert (ours is None) == (theirs is None), reference
        if ours is not None:
            assert ours[0].block_number == theirs[0].block_number
            assert ours[1].__canonical_json__() == theirs[1].__canonical_json__()


def run(config: ChainConfig, steps, path) -> int:
    """Drive one journalled chain through ``steps``; returns the runs written."""
    chain = Blockchain(config, store=JournalBlockStore(path))
    issued = []

    def seal():
        block = chain.seal_block()
        issued.extend(entry.reference_in(block.block_number) for entry in block.data_entries())
        # An acknowledged step is durable: the file alone yields the head.
        assert JournalBlockStore(path).head().block_hash == chain.head.block_hash

    def reopen() -> Blockchain:
        reopened = Blockchain(config, store=JournalBlockStore(path))
        assert_same_chain(reopened, chain, issued)
        reopened.validate()
        return reopened

    for kind, number, flag in steps:
        user = USERS[number % 2]
        if kind == "add":
            chain.add_entry({"D": f"Login {user} #{number}"}, user)
        elif kind == "temporary":
            chain.add_entry({"D": f"temp {user}"}, user, expires_at_block=chain.next_block_number + number % 8)
        elif kind == "delete" and issued:
            reference = issued[number % len(issued)]
            author = chain.find_entry(reference)
            if author is not None:
                chain.request_deletion(reference, USERS[(USERS.index(author[1].author) + flag) % 2])
        elif kind == "seal":
            seal()
        elif kind == "compact":
            chain.store.compact()
        elif kind == "reopen":
            if chain.pending_entries:
                seal()
            reopened = reopen()
            if flag:
                chain = reopened
    for _ in range(3 * config.sequence_length):
        seal()
    reopen()
    return sum(
        isinstance(item, list)
        for line in path.read_bytes().splitlines()
        for item in json.loads(line).get("block", {}).get("entries", ())
    )


#: The journal's rewrite floor per drive: its own, and 0 (a rewrite whenever
#: the file has doubled since the last one).
FLOORS = {"appending": wal.REWRITE_FLOOR, "rewriting": 0}


@pytest.mark.parametrize("floor", sorted(FLOORS))
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
@settings(max_examples=FUZZ_EXAMPLES, deadline=None, derandomize=True)
@given(steps=operations)
def test_a_reopened_journal_holds_the_writers_chain(config_name, floor, steps, tmp_path_factory):
    path = tmp_path_factory.mktemp("journal") / "chain.journal"
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wal, "_decode_record", checked_decode)
        patch.setattr(wal, "REWRITE_FLOOR", FLOORS[floor])
        run(CONFIGS[config_name], steps, path)


@pytest.mark.parametrize("floor", sorted(FLOORS))
def test_the_driver_writes_runs(tmp_path, monkeypatch, floor):
    """The property is not vacuous: a long ``FULL_COPY`` drive writes runs,
    and at a floor of 0 its journal is rewritten again and again (the last
    rewrite may leave a file with none)."""
    rewrites = []
    replace_durably = wal.replace_durably

    def counted(path, *args, **kwargs):
        rewrites.append(path)
        return replace_durably(path, *args, **kwargs)

    monkeypatch.setattr(wal, "REWRITE_FLOOR", FLOORS[floor])
    monkeypatch.setattr(wal, "replace_durably", counted)
    steps = [("add", n, False) for n in range(4)] + [("seal", 0, False)] * 30
    written = run(CONFIGS["full_copy/none"], steps, tmp_path / "chain.journal")
    if floor == "appending":
        assert written > 0 and not rewrites
    else:
        assert len(rewrites) >= 5
