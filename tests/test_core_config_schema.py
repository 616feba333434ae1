"""Unit tests for configuration, retention policies, schemas and clocks."""

import pytest

from repro.core.clock import LogicalClock, SystemClock
from repro.core.config import (
    ChainConfig,
    LengthUnit,
    RedundancyPolicy,
    RetentionPolicy,
    ShrinkStrategy,
    SummaryMode,
)
from repro.core.errors import ConfigurationError, SchemaError
from repro.core.schema import (
    EntrySchema,
    FieldSpec,
    default_log_schema,
)


class TestRetentionPolicy:
    def test_defaults(self):
        policy = RetentionPolicy()
        assert policy.max_length is None
        assert policy.unit is LengthUnit.BLOCKS

    def test_rejects_non_positive_max(self):
        with pytest.raises(ConfigurationError):
            RetentionPolicy(max_length=0)

    def test_rejects_negative_minimums(self):
        with pytest.raises(ConfigurationError):
            RetentionPolicy(min_length=-1)

    def test_rejects_min_above_max(self):
        with pytest.raises(ConfigurationError):
            RetentionPolicy(max_length=5, min_length=9)

    def test_time_unit_allows_min_above_max(self):
        # In the TIME unit min_length counts blocks while max_length counts
        # ticks, so the cross-check is skipped.
        RetentionPolicy(unit=LengthUnit.TIME, max_length=5, min_length=9)

    def test_roundtrip(self):
        policy = RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=4, min_summary_blocks=2)
        assert RetentionPolicy.from_dict(policy.to_dict()) == policy


class TestChainConfig:
    def test_defaults_are_valid(self):
        config = ChainConfig()
        assert config.sequence_length == 3
        assert config.summary_mode is SummaryMode.FULL_COPY

    def test_rejects_tiny_sequence_length(self):
        with pytest.raises(ConfigurationError):
            ChainConfig(sequence_length=1)

    def test_rejects_non_positive_idle_interval(self):
        with pytest.raises(ConfigurationError):
            ChainConfig(empty_block_interval=0)

    def test_rejects_block_limit_below_sequence(self):
        with pytest.raises(ConfigurationError):
            ChainConfig(
                sequence_length=5,
                retention=RetentionPolicy(unit=LengthUnit.BLOCKS, max_length=3),
            )

    def test_roundtrip(self):
        config = ChainConfig(
            sequence_length=4,
            retention=RetentionPolicy(unit=LengthUnit.SEQUENCES, max_length=3),
            shrink_strategy=ShrinkStrategy.SINGLE_SEQUENCE,
            summary_mode=SummaryMode.MERKLE_REFERENCE,
            redundancy=RedundancyPolicy.MIDDLE_MERKLE_ROOT,
            empty_block_interval=7,
            signature_scheme="ecdsa",
            allow_foreign_deletion_by_admin=False,
        )
        assert ChainConfig.from_dict(config.to_dict()) == config

    def test_paper_evaluation_profile(self):
        config = ChainConfig.paper_evaluation()
        assert config.sequence_length == 3
        assert config.retention.unit is LengthUnit.SEQUENCES
        assert config.retention.max_length == 2
        assert config.shrink_strategy is ShrinkStrategy.ALL_OLD


class TestFieldSpec:
    def test_type_validation(self):
        spec = FieldSpec(name="D", type_name="str")
        spec.validate("ok")
        with pytest.raises(SchemaError):
            spec.validate(13)

    def test_bool_is_not_int(self):
        spec = FieldSpec(name="count", type_name="int")
        with pytest.raises(SchemaError):
            spec.validate(True)

    def test_max_length(self):
        spec = FieldSpec(name="D", type_name="str", max_length=3)
        spec.validate("abc")
        with pytest.raises(SchemaError):
            spec.validate("abcd")

    def test_unknown_type_rejected(self):
        with pytest.raises(SchemaError):
            FieldSpec(name="x", type_name="complex")

    def test_empty_name_rejected(self):
        with pytest.raises(SchemaError):
            FieldSpec(name="")

    def test_non_positive_max_length_rejected(self):
        with pytest.raises(SchemaError):
            FieldSpec(name="x", max_length=0)


class TestEntrySchema:
    def test_default_log_schema_accepts_paper_entries(self):
        schema = default_log_schema()
        schema.validate({"D": "Login ALPHA", "K": "ALPHA", "S": "sig_ALPHA"})

    def test_missing_required_field(self):
        schema = default_log_schema()
        with pytest.raises(SchemaError):
            schema.validate({"D": "Login", "K": "ALPHA"})

    def test_extra_fields_controlled(self):
        strict = EntrySchema(name="strict", fields=(FieldSpec(name="D", type_name="str"),))
        with pytest.raises(SchemaError):
            strict.validate({"D": "x", "extra": 1})
        relaxed = EntrySchema(
            name="relaxed", fields=(FieldSpec(name="D", type_name="str"),), allow_extra_fields=True
        )
        relaxed.validate({"D": "x", "extra": 1})

    def test_optional_field_may_be_absent(self):
        schema = EntrySchema(
            name="s",
            fields=(FieldSpec(name="D", type_name="str"), FieldSpec(name="note", required=False)),
        )
        schema.validate({"D": "x"})

    def test_non_mapping_rejected(self):
        with pytest.raises(SchemaError):
            default_log_schema().validate(["not", "a", "mapping"])

    def test_is_valid_boolean_form(self):
        schema = default_log_schema()
        assert schema.is_valid({"D": "x", "K": "A", "S": "s"})
        assert not schema.is_valid({})

    def test_field_names_and_to_dict(self):
        schema = default_log_schema()
        assert schema.field_names() == ["D", "K", "S"]
        assert schema.to_dict()["name"] == "login-log"


class TestClocks:
    def test_logical_clock_monotonic(self):
        clock = LogicalClock()
        assert [clock.now() for _ in range(3)] == [0, 1, 2]

    def test_logical_clock_peek_and_advance(self):
        clock = LogicalClock(start=5)
        assert clock.peek() == 5
        clock.advance(10)
        assert clock.now() == 15

    def test_logical_clock_rejects_negative(self):
        with pytest.raises(ValueError):
            LogicalClock(step=-1)
        with pytest.raises(ValueError):
            LogicalClock().advance(-1)

    def test_system_clock_returns_int(self):
        assert isinstance(SystemClock().now(), int)

    def test_every_clock_supports_passive_peek(self):
        assert isinstance(SystemClock().peek(), int)
        clock = LogicalClock(start=2)
        assert clock.peek() == 2
        assert clock.peek() == 2  # peeking never advances

    def test_passive_chain_reads_do_not_age_the_clock(self):
        """Regression: LogicalClock advances on every now(), so any passive
        read (statistics, rendering, idle checks, sequence views) routed
        through now() would silently age the chain — earlier idle blocks,
        earlier temporary-entry expiry — without a single block sealed."""
        from repro.analysis.report import render_chain, render_statistics
        from repro.core import Blockchain, ChainConfig, EntryReference

        chain = Blockchain(ChainConfig(sequence_length=3, empty_block_interval=50))
        chain.add_entry_block({"D": "a", "K": "A", "S": "s"}, "A")
        before = chain.clock.peek()
        chain.statistics()
        chain.sequences()
        chain.sequence_statistics()
        chain.find_entry(EntryReference(1, 1))
        chain.entry_count()
        chain.byte_size()
        render_chain(chain)
        render_statistics(chain)
        assert chain.idle_tick() is None  # idle check itself is passive
        assert chain.clock.peek() == before

    def test_consecutive_seals_get_consecutive_timestamps(self):
        from repro.core import Blockchain, ChainConfig

        chain = Blockchain(ChainConfig(sequence_length=4))
        first = chain.add_entry_block({"D": "a", "K": "A", "S": "s"}, "A")
        second = chain.add_entry_block({"D": "b", "K": "A", "S": "s"}, "A")
        # Only block creation consumes clock ticks (genesis took tick 0).
        assert (first.timestamp, second.timestamp) == (1, 2)
