"""Direct timed calls into single layers, on fixed seeded inputs.

Each probe reports the median of its samples.  A sample is one call, or the
mean of one batch of calls where a single call is too quick for the clock.
A probe stops at ``Budget.samples`` samples or ``Budget.seconds`` seconds,
whichever comes first.  Inputs never depend on ``--seed``: probes compare
two versions of the code, not two inputs.
"""

from __future__ import annotations

import itertools
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

from repro.core.block import Block
from repro.core.chain import Blockchain
from repro.core.config import ChainConfig
from repro.core.entry import Entry, EntryReference
from repro.core.sequence import is_summary_slot
from repro.crypto.ecdsa import ecdsa_sign
from repro.crypto.hashing import canonical_json, hash_hex
from repro.crypto.keys import KeyPair, verify_with_public_key
from repro.crypto.merkle import merkle_root
from repro.network.kernel import EventKernel
from repro.network.message import Message, MessageKind
from repro.network.node import AnchorNode
from repro.network.transport import InMemoryTransport
from repro.service.sharding import shard_of_author
from repro.storage.snapshot import chain_from_payload, snapshot_payload
from repro.storage.wal import JournalBlockStore
from repro.workloads.fleet import derive_client_seed, fleet_timeline
from repro.workloads.logging import LoginAuditWorkload

from ledgerbench.timing import median, wall
from ledgerbench.workloads import WORK_ROOT

PROBE_SEED = 7


@dataclass(frozen=True)
class Budget:
    """When a probe has sampled enough."""

    samples: int
    seconds: float
    #: Linear size of the probes' fixtures (living entries, kernel events / 100).
    scale: int


FULL = Budget(samples=1000, seconds=0.5, scale=1000)
SMOKE = Budget(samples=20, seconds=0.02, scale=50)


def _sample(
    budget: Budget,
    step: Callable[[Any], Any],
    *,
    prepare: Optional[Callable[[], Any]] = None,
    batch: int = 1,
) -> float:
    """Median seconds per call of ``step``.

    ``prepare`` runs untimed before every sample and hands its result to
    ``step``; returning ``None`` from it ends the probe (inputs used up).
    """
    readings: list[float] = []
    started = wall()
    while len(readings) < budget.samples and wall() - started < budget.seconds:
        argument = prepare() if prepare is not None else None
        if prepare is not None and argument is None:
            break
        before = wall()
        for _ in range(batch):
            step(argument)
        readings.append((wall() - before) / batch)
    return median(readings)


def _record(index: int) -> dict[str, str]:
    author = f"SUBJECT{index % 50:03d}"
    return {"D": f"personal data of {author} (record {index})", "K": author, "S": f"sig_{author}"}


def _entry(index: int) -> Entry:
    record = _record(index)
    return Entry(data=record, author=record["K"], signature=record["S"])


def _block_of(entries: int, number: int = 1, previous_hash: str = "aa") -> Block:
    return Block(
        block_number=number,
        timestamp=number,
        previous_hash=previous_hash,
        entries=[_entry(index) for index in range(entries)],
    )


def _living_chain(living: int) -> Blockchain:
    """A paper-configuration chain whose summary block carries ``living`` entries."""
    chain = Blockchain(ChainConfig.paper_evaluation())
    for index in range(living):
        record = _record(index)
        chain.add_entry(record, record["K"])
    chain.seal_block()
    while chain.genesis_marker == 0:
        chain.seal_block()
    return chain


def _short_lived(chain: Blockchain, index: int) -> None:
    """Queue one entry that the next summary drops, so the chain stays put."""
    chain.add_entry(
        {"D": f"tick {index}", "K": "system", "S": "sig_system"},
        "system",
        expires_at_block=chain.next_block_number,
    )


def _summary_follows(block_number: int) -> bool:
    """True when appending block ``block_number`` makes a summary block due."""
    return is_summary_slot(block_number + 1, ChainConfig.paper_evaluation().sequence_length)


def _quiet_only(
    numbered: Iterable[tuple[int, Any]], apply_untimed: Callable[[Any], Any]
) -> Callable[[], Optional[Any]]:
    """A ``prepare`` that hands out only items whose block triggers no summary.

    The items in between are applied untimed, so the receiver stays in step.
    """
    remaining = iter(numbered)

    def prepare() -> Optional[Any]:
        for block_number, item in remaining:
            if not _summary_follows(block_number):
                return item
            apply_untimed(item)
        return None

    return prepare


class _Sealer:
    """Seals one short-lived entry per call and knows which seal summarises."""

    def __init__(self, chain: Blockchain) -> None:
        self.chain = chain
        self.index = 0

    def queue(self, *, summarising: bool) -> "_Sealer":
        """Advance (untimed) until the next seal is of the wanted kind."""
        while _summary_follows(self.chain.next_block_number) != summarising:
            self.seal()
        self.index += 1
        _short_lived(self.chain, self.index)
        return self

    def seal(self, _argument: Any = None) -> Block:
        if not self.chain.pending_entries:
            self.index += 1
            _short_lived(self.chain, self.index)
        return self.chain.seal_block()


def _announced_blocks(count: int) -> list[Block]:
    """Normal blocks a producer sealed, one short-lived entry each."""
    producer = _Sealer(Blockchain(ChainConfig.paper_evaluation()))
    return [producer.seal() for _ in range(count)]


def _linked_blocks(count: int, *, entries: int) -> list[Block]:
    """Consecutively numbered, hash-linked blocks (what a block store takes)."""
    blocks: list[Block] = []
    previous = "aa"
    for number in range(1, count + 1):
        blocks.append(_block_of(entries, number=number, previous_hash=previous))
        previous = blocks[-1].block_hash
    return blocks


def run_probes(budget: Budget) -> dict[str, float]:
    """Every ``probe.*`` metric, by name."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK_ROOT))
    try:
        return _run_probes(budget, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run_probes(budget: Budget, workdir: Path) -> dict[str, float]:
    results: dict[str, float] = {}
    us, ms = 1e6, 1e3

    # --- crypto -------------------------------------------------------- #
    block = _block_of(32)
    payload = block.to_dict()
    results["probe.crypto.canonical_json_block_cold_us"] = us * _sample(
        budget, canonical_json, prepare=lambda: Block.from_dict(payload)
    )
    canonical_json(block)
    results["probe.crypto.canonical_json_block_warm_us"] = us * _sample(
        budget, lambda _: canonical_json(block), batch=1000
    )
    record = _record(0)
    results["probe.crypto.hash_hex_us"] = us * _sample(budget, lambda _: hash_hex(record), batch=100)

    key = KeyPair.from_seed("ledger-bench-probe")
    messages = iter(f"message-{index}".encode("utf-8") for index in range(budget.samples))
    results["probe.crypto.ecdsa_sign_us"] = us * _sample(
        budget, lambda message: ecdsa_sign(key.private_key, message), prepare=lambda: next(messages, None)
    )
    signed = [
        (message, ecdsa_sign(key.private_key, message).encode())
        for message in (f"signed-{index}".encode("utf-8") for index in range(16))
    ]
    pairs = itertools.cycle(signed)
    results["probe.crypto.ecdsa_verify_us"] = us * _sample(
        budget,
        lambda pair: verify_with_public_key(key.public_key_hex, pair[0], pair[1]),
        prepare=lambda: next(pairs),
    )
    leaves = [_entry(index) for index in range(256)]
    results["probe.crypto.merkle_root_256_us"] = us * _sample(budget, lambda _: merkle_root(leaves))

    # --- core ---------------------------------------------------------- #
    results["probe.core.block_from_dict_us"] = us * _sample(budget, lambda _: Block.from_dict(payload))
    results["probe.core.block_to_dict_us"] = us * _sample(budget, lambda _: block.to_dict())

    sealer = _Sealer(Blockchain(ChainConfig.paper_evaluation()))
    results["probe.core.seal_block_us"] = us * _sample(
        budget, sealer.seal, prepare=lambda: sealer.queue(summarising=False)
    )
    living = _living_chain(budget.scale)
    cycler = _Sealer(living)
    results["probe.core.summary_cycle_ms"] = ms * _sample(
        budget, cycler.seal, prepare=lambda: cycler.queue(summarising=True)
    )

    announced = _announced_blocks(2 * budget.samples)
    replica = Blockchain(ChainConfig.paper_evaluation())
    results["probe.core.receive_block_us"] = us * _sample(
        budget,
        replica.receive_block,
        prepare=_quiet_only(((sealed.block_number, sealed) for sealed in announced), replica.receive_block),
    )

    held = [candidate for candidate in living.blocks if candidate.is_summary and candidate.entries][-1]
    references = [
        EntryReference(entry.origin_block_number, entry.origin_entry_number) for entry in held.entries[:256]
    ]
    wanted = itertools.cycle(references)
    results["probe.core.find_entry_us"] = us * _sample(
        budget, lambda _: living.find_entry(next(wanted)), batch=100
    )
    state = living.to_dict()
    results["probe.core.chain_from_dict_ms"] = ms * _sample(budget, lambda _: Blockchain.from_dict(state))

    # --- storage ------------------------------------------------------- #
    store = JournalBlockStore(workdir / "append.journal")
    small = iter(_linked_blocks(budget.samples, entries=1))
    results["probe.storage.wal_append_us"] = us * _sample(
        budget, store.append, prepare=lambda: next(small, None)
    )
    wide_path = workdir / "wide.journal"
    wide = JournalBlockStore(wide_path)
    for fat in _linked_blocks(max(2, budget.scale // 10), entries=32):
        wide.append(fat)
    megabytes = wide.file_size() / 1e6
    results["probe.storage.wal_reopen_ms_per_mb"] = (
        ms * _sample(budget, lambda _: JournalBlockStore(wide_path)) / megabytes
    )
    results["probe.storage.snapshot_payload_ms"] = ms * _sample(budget, lambda _: snapshot_payload(living))
    wire = snapshot_payload(living)
    results["probe.storage.chain_from_payload_ms"] = ms * _sample(budget, lambda _: chain_from_payload(wire))

    # --- network ------------------------------------------------------- #
    events = budget.scale * 100

    def drain_kernel(_: Any) -> None:
        kernel = EventKernel(seed=PROBE_SEED)
        for index in range(events):
            kernel.schedule(index * 0.001, _noop)
        kernel.run()

    results["probe.network.kernel_events_per_s"] = events / _sample(budget, drain_kernel)

    kernel = EventKernel(seed=PROBE_SEED)
    transport = InMemoryTransport(kernel=kernel)
    transport.register("sink", lambda message: None)
    ping = Message(kind=MessageKind.ACK, sender="source", payload={"head": 1})

    def drained() -> bool:
        kernel.run()
        transport.message_log.clear()
        return True

    results["probe.network.transport_post_us"] = us * _sample(
        budget, lambda _: transport.post("sink", ping), prepare=drained, batch=100
    )

    node = AnchorNode("replica", Blockchain(ChainConfig.paper_evaluation()), InMemoryTransport())
    announcements = (
        (
            sealed.block_number,
            Message(kind=MessageKind.BLOCK_ANNOUNCE, sender="producer", payload={"block": sealed.to_dict()}),
        )
        for sealed in announced
    )
    results["probe.network.handle_block_announce_us"] = us * _sample(
        budget, node.handle_message, prepare=_quiet_only(announcements, node.handle_message)
    )

    # --- service, workloads --------------------------------------------- #
    authors = itertools.cycle(f"T{index:03d}:ALPHA" for index in range(256))
    results["probe.service.shard_of_author_us"] = us * _sample(
        budget, lambda _: shard_of_author(next(authors), 4), batch=100
    )
    clients = max(2, budget.scale // 5)
    fleet = [
        LoginAuditWorkload(
            num_events=6, num_users=3, deletion_rate=0.0,
            seed=derive_client_seed(PROBE_SEED + 61, client),
        )
        for client in range(clients)
    ]
    results["probe.workloads.fleet_timeline_ms"] = ms * _sample(
        budget, lambda _: fleet_timeline(fleet, mean_gap_ms=400.0, start_at_ms=20.0)
    )
    return results


def _noop() -> None:
    return None
