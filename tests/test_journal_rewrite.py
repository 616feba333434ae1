"""The journal rewrites itself behind the marker, and a crash anywhere in a
rewrite reopens on the last committed head.

A :class:`JournalBlockStore` compacts itself once its file has grown past its
last rewrite by that size, and by at least ``wal.REWRITE_FLOOR`` — the
doubling rule; opening counts as a rewrite to nothing.  These tests pin the
floor, the rule and its bound on the seed-7 GDPR erasure plan (1,200 records,
erasure probability 0.25), in one session and reopened every 97 steps, the
absence of every executed erasure's body from the file after the next
rewrite, and three crash points of a rewrite:

* the rewrite was written (whole or in part) but not renamed;
* the rewrite was renamed, but the directory was not yet fsynced;
* the first commit after a rewrite tore, at every byte.

Torn-commit cuts per ``REPRO_FUZZ_PROFILE``: quick takes every 17th byte
after the first and the last rewrite of the drive (tier-1); standard and
determinism take every byte after every rewrite (nightly CI).
"""

import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import pytest

from repro.core import Blockchain, ChainConfig, EntryReference, EventType
from repro.core.errors import SelectiveDeletionError
from repro.service.client import LocalLedgerClient
from repro.storage import wal
from repro.storage.wal import JournalBlockStore
from repro.workloads.gdpr import GdprErasureWorkload

PROFILE = os.environ.get("REPRO_FUZZ_PROFILE", "quick")

CONFIG = ChainConfig.paper_evaluation()


def test_the_rewrite_floor_is_64_kib():
    assert wal.REWRITE_FLOOR == 64 * 1024


# --------------------------------------------------------------------- #
# The doubling rule and the erasure bound on the seed-7 GDPR plan
# --------------------------------------------------------------------- #

RECORD_MARKER = re.compile(rb"\(record \d+\)")


def gdpr_plan(seed=7, num_records=1200):
    """The GDPR erasure stream as one list of steps: ``("submit", record,
    data, author)``, and ``("erase", record, None, subject)`` at the stream
    position its erasure falls due."""
    workload = GdprErasureWorkload(
        num_records=num_records, num_subjects=50, erasure_probability=0.25, min_delay=5, max_delay=50, seed=seed
    )
    cases = workload.cases()
    schedule = workload.erasure_schedule()
    plan = []
    for position, event in enumerate(workload.events()):
        plan.append(("submit", cases[position].record_index, event.data, event.author))
        plan.extend(("erase", due, None, cases[due].subject) for due in schedule.get(position, ()) if due <= position)
    return plan


@pytest.mark.parametrize("reopen_every", [None, 97], ids=["one session", "reopened every 97 steps"])
def test_the_journal_keeps_to_the_doubling_rule_and_forgets_executed_erasures(tmp_path, monkeypatch, reopen_every):
    """After every step the file is below its last rewrite's size plus the
    larger of that size and the floor — it reached at most one step more
    just before each rewrite — and, once rewrites outgrow the floor, within
    twice the living bytes.  The first rewrite after an erasure executes
    takes its body out of the file.  Opening counts as a rewrite to nothing,
    so a journal reopened every few steps keeps the same bound: the first
    step after each reopen rewrites it."""
    rewrites = []  # (file bytes just before the rewrite, step index)
    replace_durably = wal.replace_durably

    def observed(path, *args, **kwargs):
        rewrites.append((path.read_bytes(), step))
        return replace_durably(path, *args, **kwargs)

    monkeypatch.setattr(wal, "replace_durably", observed)
    path = tmp_path / "chain.journal"
    executed = []

    def open_chain():
        chain = Blockchain(CONFIG, store=JournalBlockStore(path))
        chain.bus.subscribe(
            lambda event: executed.append(EntryReference.from_dict(event.payload["reference"])),
            types=(EventType.DELETION_EXECUTED,),
        )
        return chain, chain.store, LocalLedgerClient(chain)

    step = -1
    chain, store, client = open_chain()
    references, marker_of = {}, {}
    rewritten = 0  # the file's size after its last rewrite; 0 at open
    removed = 0  # executed erasures whose body a rewrite took out of the file
    reopens = 0
    for step, (kind, record, data, author) in enumerate(gdpr_plan()):
        opened = reopen_every and step and step % reopen_every == 0
        if opened:
            head = chain.head.block_hash
            chain, store, client = open_chain()
            assert chain.head.block_hash == head
            rewritten, reopens = 0, reopens + 1
        seen = len(rewrites)
        if kind == "submit":
            references[record] = client.submit(data, author).reference
            marker_of[references[record]] = f"(record {record})".encode()
        elif record in references:
            client.request_deletion(references[record], author)
        size = store.file_size()
        if len(rewrites) > seen:
            before, at = rewrites[-1]
            assert at == step and len(rewrites) == seen + 1
            # This step's commit took the file past the rule; the last one had not.
            assert len(before) - rewritten >= max(rewritten, wal.REWRITE_FLOOR)
            rewritten = size
            erased = {marker_of[reference] for reference in executed}
            assert not erased.intersection(RECORD_MARKER.findall(path.read_bytes()))
            removed += len(erased.intersection(RECORD_MARKER.findall(before)))
        else:
            assert not (opened and size >= wal.REWRITE_FLOOR)
        assert size - rewritten < max(rewritten, wal.REWRITE_FLOOR)
        if rewritten >= wal.REWRITE_FLOOR:
            assert size <= 2 * chain.statistics()["byte_size"]
        assert store.counters["failed_rewrites"] == 0
    assert len(rewrites) >= 10 and reopens == (15 if reopen_every else 0)
    # Every executed erasure's body was taken out by a rewrite, or waits on
    # file for the next one: executed since the last rewrite.
    waiting = {marker_of[reference] for reference in executed}.intersection(RECORD_MARKER.findall(path.read_bytes()))
    assert len(executed) == 296 and removed + len(waiting) == 296 and removed > 200
    reopened = Blockchain(CONFIG, store=JournalBlockStore(path))
    assert reopened.head.block_hash == chain.head.block_hash


# --------------------------------------------------------------------- #
# Crash points of a rewrite
# --------------------------------------------------------------------- #


@dataclass
class Rewrite:
    """One rewrite of a drive, as the disk saw it."""

    #: The journal just before the rewrite, and the rewrite written beside it.
    before: bytes
    rewrite: bytes
    #: The head hash of the last committed step (the one that grew the file).
    head: str
    #: The journal right after the rename.
    after: bytes = b""
    #: The records of the next step's commit, and the head it committed.
    next_commit: bytes = b""
    next_head: Optional[str] = None


@pytest.fixture(scope="module")
def rewrites(tmp_path_factory):
    """A 40-entry ``paper_evaluation`` drive on a journal whose floor is 0,
    so it rewrites itself each time its file has doubled."""
    path = tmp_path_factory.mktemp("rewrites") / "chain.journal"
    found: list[Rewrite] = []
    real_replace = Path.replace

    def replace(self, target):
        if Path(target) == path:
            found.append(Rewrite(path.read_bytes(), self.read_bytes(), store.head().block_hash))
        return real_replace(self, target)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(wal, "REWRITE_FLOOR", 0)
        patch.setattr(Path, "replace", replace)
        store = JournalBlockStore(path)
        chain = Blockchain(CONFIG, store=store)
        pending: Optional[Rewrite] = None
        for i in range(40):
            if found and found[-1].after == b"":
                pending = found[-1]
                pending.after = path.read_bytes()
            seen = len(found)
            chain.add_entry_block({"D": f"login {i}", "K": "A", "S": "s"}, "A")
            if pending is not None:
                # The file after this step's commit: before its own rewrite, if it made one.
                committed = found[seen].before if len(found) > seen else path.read_bytes()
                assert committed.startswith(pending.after)
                pending.next_commit, pending.next_head = committed[len(pending.after):], chain.head.block_hash
                pending = None
    assert len(found) >= 6 and all(rewrite.next_commit for rewrite in found[:-1])
    return found[:-1] if found[-1].next_head is None else found


def reopen(path: Path, journal: bytes, leftover: Optional[bytes] = None):
    """Open a chain on ``journal`` (with ``leftover`` as an unfinished
    rewrite beside it): its head hash, or the name of the typed error."""
    path.write_bytes(journal)
    beside = path.with_suffix(path.suffix + ".compact")
    if leftover is not None:
        beside.write_bytes(leftover)
    try:
        chain = Blockchain(CONFIG, store=JournalBlockStore(path))
    except SelectiveDeletionError as error:
        return type(error).__name__
    finally:
        assert not beside.exists()
    chain.validate()
    return chain.head.block_hash


def test_a_rewrite_written_but_not_renamed_is_discarded_at_open(rewrites, tmp_path):
    """The journal is the authority; a leftover rewrite — however much of it
    reached the disk — is deleted, never read."""
    for rewrite in rewrites:
        assert reopen(tmp_path / "chain.journal", rewrite.before) == rewrite.head
        length = len(rewrite.rewrite)
        for cut in sorted({0, 1, length // 2, length - 1, length}):
            assert reopen(tmp_path / "chain.journal", rewrite.before, rewrite.rewrite[:cut]) == rewrite.head


def test_a_rewrite_renamed_before_the_directory_fsync_reopens_either_way(rewrites, tmp_path):
    """Until the directory is fsynced a crash may keep either name binding:
    the old journal beside the finished rewrite, or the rewrite alone."""
    for rewrite in rewrites:
        assert rewrite.after == rewrite.rewrite
        assert reopen(tmp_path / "chain.journal", rewrite.before, rewrite.rewrite) == rewrite.head
        assert reopen(tmp_path / "chain.journal", rewrite.after) == rewrite.head


def test_a_commit_torn_right_after_a_rewrite_never_reaches_into_it(rewrites, tmp_path):
    """Every cut of the first commit after a rewrite reopens on the rewrite's
    head (nothing of the commit), on a valid chain (whole records, with or
    without the last newline) or fails typed; the whole commit reopens on
    its own head."""
    chosen = rewrites if PROFILE != "quick" else [rewrites[0], rewrites[-1]]
    stride = 1 if PROFILE != "quick" else 17
    for rewrite in chosen:
        commit = rewrite.next_commit
        ends = {0}
        for line in commit.splitlines(keepends=True):
            ends.add(max(ends) + len(line))
        whole = ends | {end - 1 for end in ends if end}
        cuts = set(range(0, len(commit) + 1, stride)) | whole
        for cut in sorted(cuts):
            outcome = reopen(tmp_path / "chain.journal", rewrite.after + commit[:cut])
            if cut in whole:
                assert not outcome.endswith("Error"), (cut, outcome)
            else:
                assert outcome == "StorageError", cut
        assert reopen(tmp_path / "chain.journal", rewrite.after) == rewrite.head
        assert reopen(tmp_path / "chain.journal", rewrite.after + commit) == rewrite.next_head
