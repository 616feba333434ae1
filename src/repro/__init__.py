"""repro — reproduction of "Selective Deletion in a Blockchain" (ICDCS 2020).

The package implements the paper's concept of a fully transactional
blockchain: regular summary blocks partition the chain into sequences, old
sequences are merged into new summary blocks, a shifting genesis marker lets
the chain forget its beginning, and signed deletion requests cause individual
entries to be left out of future summary blocks (delayed selective deletion).

Quickstart::

    from repro import Blockchain, ChainConfig

    chain = Blockchain(ChainConfig.paper_evaluation())
    chain.add_entry_block({"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"}, "ALPHA")
    block = chain.head
    chain.request_deletion((block.block_number, 1), "ALPHA")

Subpackages
-----------
``repro.core``
    The paper's contribution: chain, summary blocks, deletion, retention.
``repro.crypto``
    Hashing, Merkle trees, ECDSA signatures, chameleon hashes.
``repro.consensus``
    Pluggable consensus (PoA, simplified PoW) and quorum voting.
``repro.network``
    Anchor-node / client simulation replacing the paper's CORBA prototype.
``repro.authz``
    Bell-LaPadula semantic-cohesion checking (the authorization rule itself
    is ``repro.core.authorize_deletion``).
``repro.storage``
    In-memory, append-only file and snapshot storage backends.
``repro.baselines``
    Comparison systems: immutable chain, pruning, hard fork, chameleon
    redaction, off-chain storage.
``repro.workloads``
    Workload generators (logging, supply chain, vehicles, coins, GDPR).
``repro.analysis``
    Metrics, 51 %-attack model and console/report rendering.
"""

from repro.core import (
    Block,
    Blockchain,
    BlockType,
    ChainConfig,
    DeletionDecision,
    DeletionRegistry,
    DeletionStatus,
    Entry,
    EntryKind,
    EntryReference,
    EntrySchema,
    EventBus,
    EventType,
    LengthUnit,
    LogicalClock,
    RedundancyPolicy,
    RetentionPolicy,
    SelectiveDeletionError,
    SequenceView,
    ShrinkStrategy,
    SummaryMode,
    default_log_schema,
)
from repro.crypto import KeyPair, MerkleTree, merkle_root
from repro.service import (
    BaselineLedgerClient,
    DeletionReceipt,
    LedgerClient,
    LedgerRecord,
    LocalLedgerClient,
    RemoteLedgerClient,
    SubmitReceipt,
)

__version__ = "1.0.0"

__all__ = [
    "Block",
    "Blockchain",
    "BlockType",
    "ChainConfig",
    "DeletionDecision",
    "DeletionRegistry",
    "DeletionStatus",
    "Entry",
    "EntryKind",
    "EntryReference",
    "EntrySchema",
    "EventBus",
    "EventType",
    "LengthUnit",
    "LogicalClock",
    "RedundancyPolicy",
    "RetentionPolicy",
    "SelectiveDeletionError",
    "SequenceView",
    "ShrinkStrategy",
    "SummaryMode",
    "default_log_schema",
    "KeyPair",
    "MerkleTree",
    "merkle_root",
    "BaselineLedgerClient",
    "DeletionReceipt",
    "LedgerClient",
    "LedgerRecord",
    "LocalLedgerClient",
    "RemoteLedgerClient",
    "SubmitReceipt",
    "__version__",
]
