"""Figs. 6–8 — the evaluation's three console dumps, regenerated.

* **Fig. 6**: Genesis Block 0 with previous hash ``DEADB``, the first two
  summary blocks empty, one login each for ALPHA, BRAVO and CHARLIE in
  blocks 1, 3 and 4, nothing deleted yet.
* **Fig. 7**: BRAVO's deletion request for (block 3, entry 1) lands in block
  6, the first two sequences merge into the summary block at 8 without the
  deleted entry, the genesis marker moves to block 6 and every earlier block
  is physically removed.
* **Fig. 8**: one cycle on, the deletion request itself is gone (deletion
  entries are never copied into summaries) while every other login survives
  as a summary copy.

Each benchmark times the full scenario (entry signing, sealing, automatic
summary creation) and asserts the exact block layout of its figure.
"""

from repro.analysis import render_chain
from repro.core import EntryReference
from repro.crypto.hashing import GENESIS_PREVIOUS_HASH
from repro.workloads import PaperScenarioWorkload, replay

from conftest import login, make_paper_chain


def run_fig6_scenario():
    chain = make_paper_chain()
    for user in ("ALPHA", "BRAVO", "CHARLIE"):
        chain.add_entry_block(login(user), user)
    return chain


def run_fig7_scenario():
    chain = run_fig6_scenario()
    chain.request_deletion(EntryReference(3, 1), "BRAVO")
    chain.seal_block()                                   # block 6
    chain.add_entry_block(login("ALPHA", "(cycle 1)"), "ALPHA")  # block 7 -> summary 8
    return chain


def run_fig8_scenario():
    chain = make_paper_chain()
    replay(PaperScenarioWorkload(extra_cycles=2), chain)
    return chain


def regenerate(benchmark, scenario, figure):
    chain = benchmark(scenario)
    chain.validate(verify_signatures=True)
    print()
    print(render_chain(chain, header=f"{figure} regenerated"))
    return chain


def test_fig6_three_logins(benchmark):
    chain = regenerate(benchmark, run_fig6_scenario, "Fig. 6")

    assert chain.blocks[0].block_number == 0
    assert chain.blocks[0].previous_hash == GENESIS_PREVIOUS_HASH
    assert chain.block_by_number(1).entries[0].author == "ALPHA"
    assert chain.block_by_number(3).entries[0].author == "BRAVO"
    assert chain.block_by_number(4).entries[0].author == "CHARLIE"
    assert chain.block_by_number(2).is_summary and chain.block_by_number(2).entry_count == 0
    assert chain.block_by_number(5).is_summary and chain.block_by_number(5).entry_count == 0
    assert chain.genesis_marker == 0
    assert chain.deleted_block_count == 0


def test_fig7_selective_deletion(benchmark):
    chain = regenerate(benchmark, run_fig7_scenario, "Fig. 7")

    assert chain.registry.approved_count == 1
    assert chain.genesis_marker == 6
    assert chain.deleted_block_count == 6
    summary = chain.block_by_number(8)
    assert summary.is_summary
    assert summary.merged_sequences == [0, 1]
    assert summary.find_copy_of(3, 1) is None
    assert summary.find_copy_of(1, 1) is not None
    assert summary.find_copy_of(4, 1) is not None
    assert chain.find_entry(EntryReference(3, 1)) is None


def test_fig8_deletion_request_forgotten(benchmark):
    chain = regenerate(benchmark, run_fig8_scenario, "Fig. 8")

    assert chain.genesis_marker >= 12
    assert all(not entry.is_deletion_request for _, entry in chain.iter_entries())
    assert chain.find_entry(EntryReference(3, 1)) is None
    assert chain.find_entry(EntryReference(1, 1)) is not None
    assert chain.find_entry(EntryReference(4, 1)) is not None
    assert chain.registry.executed_count == 1
