"""Core of the selective-deletion blockchain: the paper's primary contribution.

This package contains the data model (entries, blocks, summary blocks,
sequences), the chain façade with the shifting genesis marker, the
summarisation and retention machinery, deletion requests with delayed
execution, temporary entries, and chain validation.
"""

from repro.core.block import Block, BlockType, RedundancyRecord, make_genesis_block
from repro.core.chain import Blockchain, ChainEvent
from repro.core.clock import LogicalClock, SimulationClock, SystemClock
from repro.core.config import (
    ChainConfig,
    LengthUnit,
    RedundancyPolicy,
    RetentionPolicy,
    ShrinkStrategy,
    SummaryMode,
)
from repro.core.deletion import (
    DeletionDecision,
    DeletionRegistry,
    DeletionStatus,
    build_deletion_request,
    default_authorizer,
)
from repro.core.entry import Entry, EntryKind, EntryReference
from repro.core.events import AUDIT_EVENT_TYPES, EventBus, EventType, Subscription
from repro.core.index import ChainIndex, SequenceAggregate
from repro.core.errors import (
    AuthorizationError,
    ChainIntegrityError,
    ConfigurationError,
    ConsensusError,
    DeletionError,
    SchemaError,
    SelectiveDeletionError,
    StorageError,
    SynchronisationError,
)
from repro.core.schema import EntrySchema, FieldSpec, default_log_schema
from repro.core.sequence import SequenceView, partition_into_sequences
from repro.core.summarizer import DroppedEntry, Summarizer, SummaryResult
from repro.core.validation import (
    deletion_is_effective,
    is_traceable_extension,
    validate_block_signatures,
    validate_chain,
    verify_summary_determinism,
)

__all__ = [
    "Block",
    "BlockType",
    "RedundancyRecord",
    "make_genesis_block",
    "Blockchain",
    "ChainEvent",
    "LogicalClock",
    "SimulationClock",
    "SystemClock",
    "ChainConfig",
    "LengthUnit",
    "RedundancyPolicy",
    "RetentionPolicy",
    "ShrinkStrategy",
    "SummaryMode",
    "DeletionDecision",
    "DeletionRegistry",
    "DeletionStatus",
    "build_deletion_request",
    "default_authorizer",
    "Entry",
    "EntryKind",
    "EntryReference",
    "AUDIT_EVENT_TYPES",
    "EventBus",
    "EventType",
    "Subscription",
    "ChainIndex",
    "SequenceAggregate",
    "AuthorizationError",
    "ChainIntegrityError",
    "ConfigurationError",
    "ConsensusError",
    "DeletionError",
    "SchemaError",
    "SelectiveDeletionError",
    "StorageError",
    "SynchronisationError",
    "EntrySchema",
    "FieldSpec",
    "default_log_schema",
    "SequenceView",
    "partition_into_sequences",
    "DroppedEntry",
    "Summarizer",
    "SummaryResult",
    "deletion_is_effective",
    "is_traceable_extension",
    "validate_block_signatures",
    "validate_chain",
    "verify_summary_determinism",
]
