"""Protocol-consistency rule tests.

Two layers: synthetic projects prove each ``REPRO-P2xx`` rule fires on the
drift it exists for (including the acceptance case — registering a new
message kind without a dispatch branch fails the lint), and real-tree
checks prove the extraction accounts for every kind the live protocol
registers."""

from __future__ import annotations

import pytest

from repro.lint import rules_protocol
from repro.lint.engine import run_lint
from repro.lint.project import Project
from repro.lint.rules_protocol import (
    EventSubscriptionRule,
    SentWithoutHandlerRule,
    SilentDropRule,
    TaxonomyRule,
    UnaccountedKindRule,
    build_protocol_model,
)

def protocol_sources(**overrides: str) -> dict[str, str]:
    """A miniature repo with a consistent two-kind protocol."""
    sources = {
        "src/repro/network/message.py": (
            '"""Message registry.\n'
            "\n"
            "``PING``     client   anchor   {}   replies PONG\n"
            "``PONG``     anchor   client   {}   reply\n"
            "``GOSSIP``   anchor   anchor   {}   one-way\n"
            '"""\n'
            "class MessageKind:\n"
            '    PING = "ping"\n'
            '    PONG = "pong"\n'
            '    GOSSIP = "gossip"\n'
        ),
        "src/repro/network/node.py": (
            "from repro.network.message import Message, MessageKind\n"
            "class Node:\n"
            "    def handlers(self):\n"
            "        return {\n"
            "            MessageKind.PING: self._handle_ping,\n"
            "            MessageKind.GOSSIP: self._handle_gossip,\n"
            "        }\n"
            "    def _handle_ping(self, message):\n"
            "        return message.reply(MessageKind.PONG, self.node_id, {})\n"
            "    def _handle_gossip(self, message):\n"
            "        return None\n"
            "    def ping(self, peer):\n"
            "        return self.transport.send(\n"
            "            peer, Message(kind=MessageKind.PING, sender=self.node_id)\n"
            "        )\n"
        ),
    }
    sources.update(overrides)
    return sources


class TestUnaccountedKind:
    def test_consistent_protocol_passes(self):
        report = run_lint(
            Project.from_sources(protocol_sources()), rules=[UnaccountedKindRule]
        )
        assert not report.findings

    def test_new_kind_without_handler_fails_the_lint(self):
        # The acceptance case: register a kind, forget the handler.
        sources = protocol_sources()
        sources["src/repro/network/message.py"] = sources[
            "src/repro/network/message.py"
        ].replace('    GOSSIP = "gossip"\n', '    GOSSIP = "gossip"\n    NEW_KIND = "new_kind"\n')
        report = run_lint(Project.from_sources(sources), rules=[UnaccountedKindRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-P201"]
        assert "NEW_KIND" in report.findings[0].message
        assert report.exit_code == 1

    def test_one_lint_run_builds_the_model_once(self, monkeypatch):
        calls = []

        def counting(project):
            calls.append(project)
            return build_protocol_model(project)

        monkeypatch.setattr(rules_protocol, "build_protocol_model", counting)
        run_lint(Project.from_sources(protocol_sources()))
        assert len(calls) == 1

    def test_reply_only_kind_is_accounted(self):
        # PONG has no dispatch branch but is produced via .reply() — fine.
        model = build_protocol_model(Project.from_sources(protocol_sources()))
        assert "PONG" in model.accounted and "PONG" not in model.handled


class TestSentWithoutHandler:
    def test_sending_unhandled_kind_flagged(self):
        sources = protocol_sources()
        sources["src/repro/service/pusher.py"] = (
            "from repro.network.message import Message, MessageKind\n"
            "def push(transport, peer):\n"
            "    transport.send(peer, Message(kind=MessageKind.PONG, sender='svc'))\n"
        )
        report = run_lint(Project.from_sources(sources), rules=[SentWithoutHandlerRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-P202"]
        assert report.findings[0].path == "src/repro/service/pusher.py"

    def test_sending_handled_kind_passes(self):
        report = run_lint(
            Project.from_sources(protocol_sources()), rules=[SentWithoutHandlerRule]
        )
        assert not report.findings


class TestSilentDrop:
    def test_one_way_handler_may_return_none(self):
        report = run_lint(Project.from_sources(protocol_sources()), rules=[SilentDropRule])
        assert not report.findings

    def test_two_way_handler_returning_none_flagged(self):
        sources = protocol_sources()
        sources["src/repro/network/node.py"] = sources["src/repro/network/node.py"].replace(
            "    def _handle_ping(self, message):\n"
            "        return message.reply(MessageKind.PONG, self.node_id, {})\n",
            "    def _handle_ping(self, message):\n"
            "        if message.payload.get('quiet'):\n"
            "            return None\n"
            "        return message.reply(MessageKind.PONG, self.node_id, {})\n",
        )
        report = run_lint(Project.from_sources(sources), rules=[SilentDropRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-P203"]
        assert "_handle_ping" in report.findings[0].message


class TestTaxonomy:
    def test_member_without_table_row_flagged(self):
        sources = protocol_sources()
        sources["src/repro/network/message.py"] = sources[
            "src/repro/network/message.py"
        ].replace('    GOSSIP = "gossip"\n', '    GOSSIP = "gossip"\n    NEW_KIND = "new_kind"\n')
        report = run_lint(Project.from_sources(sources), rules=[TaxonomyRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-P204"]
        assert "NEW_KIND" in report.findings[0].message

    def test_table_row_without_member_flagged(self):
        sources = protocol_sources()
        sources["src/repro/network/message.py"] = sources[
            "src/repro/network/message.py"
        ].replace(
            "``GOSSIP``   anchor   anchor   {}   one-way\n",
            "``GOSSIP``   anchor   anchor   {}   one-way\n"
            "``GHOST``    anchor   anchor   {}   one-way\n",
        )
        report = run_lint(Project.from_sources(sources), rules=[TaxonomyRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-P204"]
        assert "GHOST" in report.findings[0].message


class TestEventSubscriptions:
    def event_sources(self, subscribe_line: str) -> dict[str, str]:
        return {
            "src/repro/core/events.py": (
                "class EventType:\n"
                '    BLOCK_SEALED = "block_sealed"\n'
                '    NEVER_PUBLISHED = "never_published"\n'
            ),
            "src/repro/core/chain.py": (
                "from repro.core.events import EventType\n"
                "def seal(bus):\n"
                "    bus.publish(EventType.BLOCK_SEALED, {})\n"
            ),
            "src/repro/analysis/probe.py": (
                "from repro.core.events import EventType\n"
                "def attach(bus, fn):\n"
                f"    {subscribe_line}\n"
            ),
        }

    def test_subscription_to_published_type_passes(self):
        sources = self.event_sources(
            "bus.subscribe(fn, types=(EventType.BLOCK_SEALED,))"
        )
        report = run_lint(Project.from_sources(sources), rules=[EventSubscriptionRule])
        assert not report.findings

    def test_subscription_to_unpublished_type_flagged(self):
        sources = self.event_sources(
            "bus.subscribe(fn, types=(EventType.NEVER_PUBLISHED,))"
        )
        report = run_lint(Project.from_sources(sources), rules=[EventSubscriptionRule])
        assert [f.rule_id for f in report.findings] == ["REPRO-P205"]
        assert "NEVER_PUBLISHED" in report.findings[0].message


class TestRealProtocol:
    """The live tree, as the protocol rules see it."""

    @pytest.fixture
    def model(self, repo_project):
        return repo_project.derive(build_protocol_model)

    def test_every_registered_kind_is_accounted_for(self, model):
        assert len(model.members) == 17
        assert set(model.members) == {
            "SUBMIT_ENTRY", "SUBMIT_DELETION", "IDLE_TICK", "FIND_ENTRY",
            "QUERY_STATISTICS", "BLOCK_ANNOUNCE", "SUMMARY_HASH", "SYNC_REQUEST",
            "SYNC_RESPONSE", "SYNC_DIGEST", "SNAPSHOT_REQUEST", "SNAPSHOT_CHUNK",
            "VOTE_REQUEST", "VOTE_RESPONSE", "PRODUCER_CHANGE", "ACK", "ERROR",
        }
        unaccounted = set(model.members) - model.accounted
        assert not unaccounted, f"kinds with no handler or reply site: {sorted(unaccounted)}"

    def test_taxonomy_table_matches_registry(self, model):
        assert set(model.members) == model.documented

    def test_one_way_kinds_are_declared(self, model):
        assert "SYNC_DIGEST" in model.one_way

    def test_node_dispatch_table_extracted(self, model):
        assert model.node_handlers.get("FIND_ENTRY") == "_handle_find_entry"
        assert len(model.node_handlers) >= 10
