"""Per-rule fixture tests: bad snippets flagged, good snippets pass,
pragmas honoured — all on synthetic projects, never the working tree."""

from __future__ import annotations

import ast
import inspect
import json

from repro.lint.base import ENGINE_CHECKS, Finding, LintReport, rule_catalogue, rule_ids
from repro.lint.engine import run_lint
from repro.lint.project import Project
from repro.lint.reporters import render_json, render_text
from repro.lint.rules_determinism import (
    HashIdRule,
    UnseededRandomRule,
    UnsortedIterationRule,
    WallClockRule,
)
from repro.lint.rules_frozen import FrozenSetattrRule, MissingCanonicalHookRule
from repro.lint.rules_perf import UnboundedListGrowthRule, UncachedDecodeRule
from repro.lint.rules_surface import UnreachedDefinitionRule, UnusedImportRule
from repro.network import transport as transport_module


def lint_snippet(source: str, rule, rel_path: str = "src/repro/demo.py"):
    """Run one rule over one snippet; return unsuppressed findings."""
    project = Project.from_sources({rel_path: source})
    return run_lint(project, rules=[rule]).findings


class TestWallClockRule:
    def test_module_call_flagged(self):
        findings = lint_snippet("import time\nstamp = time.time()\n", WallClockRule)
        assert [f.rule_id for f in findings] == ["REPRO-D101"]
        assert findings[0].line == 2

    def test_from_import_flagged(self):
        source = "from time import monotonic\nvalue = monotonic()\n"
        assert lint_snippet(source, WallClockRule)

    def test_datetime_now_flagged(self):
        source = "import datetime\nwhen = datetime.datetime.now()\n"
        assert lint_snippet(source, WallClockRule)

    def test_clock_module_exempt(self):
        source = "import time\nstamp = int(time.time())\n"
        assert not lint_snippet(source, WallClockRule, "src/repro/core/clock.py")

    def test_injected_clock_passes(self):
        source = "def seal(clock):\n    return clock.now()\n"
        assert not lint_snippet(source, WallClockRule)


class TestUnseededRandomRule:
    def test_module_level_random_flagged(self):
        source = "import random\ndelay = random.uniform(1, 20)\n"
        findings = lint_snippet(source, UnseededRandomRule)
        assert [f.rule_id for f in findings] == ["REPRO-D102"]

    def test_bare_random_constructor_flagged(self):
        source = "import random\nrng = random.Random()\n"
        assert lint_snippet(source, UnseededRandomRule)

    def test_os_urandom_flagged(self):
        source = "import os\nnonce = os.urandom(16)\n"
        assert lint_snippet(source, UnseededRandomRule)

    def test_seeded_random_passes(self):
        source = "import random\nrng = random.Random(7)\nvalue = rng.uniform(1, 20)\n"
        assert not lint_snippet(source, UnseededRandomRule)

    def test_crypto_package_exempt(self):
        source = "import os\nkey = os.urandom(32)\n"
        assert not lint_snippet(source, UnseededRandomRule, "src/repro/crypto/keys.py")


class TestHashIdRule:
    def test_hash_call_flagged(self):
        source = "def order(nodes):\n    return sorted(nodes, key=lambda n: hash(n))\n"
        findings = lint_snippet(source, HashIdRule)
        assert [f.rule_id for f in findings] == ["REPRO-D103"]

    def test_id_call_flagged(self):
        source = "def count(items):\n    return len({id(item) for item in items})\n"
        assert lint_snippet(source, HashIdRule)

    def test_dunder_hash_exempt(self):
        source = (
            "class Point:\n"
            "    def __hash__(self):\n"
            "        return hash((self.x, self.y))\n"
        )
        assert not lint_snippet(source, HashIdRule)

    def test_call_after_dunder_hash_still_flagged(self):
        source = (
            "class Point:\n"
            "    def __hash__(self):\n"
            "        return hash((self.x, self.y))\n"
            "    def order_key(self):\n"
            "        return hash(self.x)\n"
        )
        findings = lint_snippet(source, HashIdRule)
        assert [f.line for f in findings] == [5]


class TestUnsortedIterationRule:
    def test_set_into_sink_flagged(self):
        source = "def digest(peers, hash_many):\n    return hash_many(set(peers))\n"
        findings = lint_snippet(source, UnsortedIterationRule)
        assert [f.rule_id for f in findings] == ["REPRO-D104"]

    def test_generator_over_set_flagged(self):
        source = (
            "def digest(peers, hash_many):\n"
            "    return hash_many(p for p in set(peers))\n"
        )
        assert lint_snippet(source, UnsortedIterationRule)

    def test_loop_over_values_into_sink_flagged(self):
        source = (
            "def reschedule(kernel, handlers):\n"
            "    for handler in handlers.values():\n"
            "        kernel.schedule(1, handler)\n"
        )
        assert lint_snippet(source, UnsortedIterationRule)

    def test_sorted_wrapper_passes(self):
        source = "def digest(peers, hash_many):\n    return hash_many(sorted(set(peers)))\n"
        assert not lint_snippet(source, UnsortedIterationRule)

    def test_plain_list_passes(self):
        source = "def digest(peers, hash_many):\n    return hash_many(list(peers))\n"
        assert not lint_snippet(source, UnsortedIterationRule)


class TestFrozenRules:
    def test_setattr_outside_post_init_flagged(self):
        source = (
            "def prune(block, entries):\n"
            "    object.__setattr__(block, 'entries', entries)\n"
        )
        findings = lint_snippet(source, FrozenSetattrRule)
        assert [f.rule_id for f in findings] == ["REPRO-F301"]

    def test_post_init_exempt(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Block:\n"
            "    def __post_init__(self):\n"
            "        object.__setattr__(self, 'digest', 'x')\n"
        )
        assert not lint_snippet(source, FrozenSetattrRule)

    def test_core_type_without_hook_flagged(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Reference:\n"
            "    block_number: int\n"
            "    def to_dict(self):\n"
            "        return {'block_number': self.block_number}\n"
        )
        findings = lint_snippet(source, MissingCanonicalHookRule, "src/repro/core/ref.py")
        assert [f.rule_id for f in findings] == ["REPRO-F302"]

    def test_core_type_with_hook_passes(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Reference:\n"
            "    block_number: int\n"
            "    def to_dict(self):\n"
            "        return {'block_number': self.block_number}\n"
            "    def __canonical_json__(self):\n"
            "        return '{}'\n"
        )
        assert not lint_snippet(source, MissingCanonicalHookRule, "src/repro/core/ref.py")

    def test_non_core_module_out_of_scope(self):
        source = (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Row:\n"
            "    def to_dict(self):\n"
            "        return {}\n"
        )
        assert not lint_snippet(source, MissingCanonicalHookRule, "src/repro/analysis/rows.py")


class TestUncachedDecodeRule:
    def test_curve_point_decode_flagged(self):
        source = "point = CurvePoint.decode(key_hex)\n"
        findings = lint_snippet(source, UncachedDecodeRule)
        assert [f.rule_id for f in findings] == ["REPRO-PERF501"]
        assert "decode_point" in findings[0].message

    def test_signature_decode_flagged(self):
        source = "sig = EcdsaSignature.decode(encoded)\n"
        findings = lint_snippet(source, UncachedDecodeRule)
        assert [f.rule_id for f in findings] == ["REPRO-PERF501"]
        assert "decode_signature" in findings[0].message

    def test_cached_wrappers_pass(self):
        source = (
            "from repro.crypto import decode_point, decode_signature\n"
            "point = decode_point(key_hex)\n"
            "sig = decode_signature(encoded)\n"
        )
        assert not lint_snippet(source, UncachedDecodeRule)

    def test_crypto_package_exempt(self):
        source = "point = CurvePoint.decode(encoded)\n"
        assert not lint_snippet(
            source, UncachedDecodeRule, "src/repro/crypto/keys.py"
        )

    def test_unrelated_decode_passes(self):
        source = "text = codec.decode(raw)\nbody = payload.decode('utf-8')\n"
        assert not lint_snippet(source, UncachedDecodeRule)

    def test_pragma_suppresses(self):
        source = (
            "# repro: allow[REPRO-PERF501] exercises the raw classmethod\n"
            "point = CurvePoint.decode(key_hex)\n"
        )
        assert not lint_snippet(source, UncachedDecodeRule)


class TestUnboundedListGrowthRule:
    TRANSPORT = "src/repro/network/transport.py"

    def test_re_added_unbounded_message_log_flagged(self):
        # The shipped transport with its window turned back into a list.
        source = inspect.getsource(transport_module)
        bounded = "deque(maxlen=MESSAGE_LOG_LIMIT)"
        assert bounded in source
        unbounded = source.replace(bounded, "[]")
        findings = lint_snippet(unbounded, UnboundedListGrowthRule, self.TRANSPORT)
        assert [f.rule_id for f in findings] == ["REPRO-PERF502"]
        assert "InMemoryTransport.message_log" in findings[0].message
        assert "_account_delivery()" in findings[0].message
        assert not lint_snippet(source, UnboundedListGrowthRule, self.TRANSPORT)

    def test_list_grown_outside_init_flagged(self):
        source = (
            "class Peer:\n"
            "    def __init__(self):\n"
            "        self.seen: list[str] = []\n"
            "        self.pending = list()\n"
            "    def hear(self, item):\n"
            "        self.seen.append(item)\n"
            "        self.pending.extend([item])\n"
        )
        findings = lint_snippet(source, UnboundedListGrowthRule, "src/repro/sync/peer.py")
        assert [f.line for f in findings] == [6, 7]

    def test_deque_window_and_init_growth_pass(self):
        source = (
            "from collections import deque\n"
            "class Peer:\n"
            "    def __init__(self, ids):\n"
            "        self.seen = deque(maxlen=8)\n"
            "        self.ids = []\n"
            "        self.ids.extend(ids)\n"
            "    def hear(self, item):\n"
            "        self.seen.append(item)\n"
        )
        assert not lint_snippet(source, UnboundedListGrowthRule, "src/repro/network/peer.py")

    def test_other_packages_out_of_scope(self):
        source = (
            "class Log:\n"
            "    def __init__(self):\n"
            "        self.rows = []\n"
            "    def add(self, row):\n"
            "        self.rows.append(row)\n"
        )
        assert not lint_snippet(source, UnboundedListGrowthRule, "src/repro/core/log.py")

    def test_pragma_suppresses(self):
        source = (
            "class Registry:\n"
            "    def __init__(self):\n"
            "        self.actors = []\n"
            "    def add(self, actor):\n"
            "        # repro: allow[REPRO-PERF502] one per actor, placed at setup\n"
            "        self.actors.append(actor)\n"
        )
        assert not lint_snippet(source, UnboundedListGrowthRule, "src/repro/network/registry.py")


class TestUnusedImportRule:
    def test_a_planted_unused_import_is_found(self):
        source = "import json\nfrom typing import Any, Optional\n\n\ndef f(x: Optional[int]) -> int:\n    return 1\n"
        findings = lint_snippet(source, UnusedImportRule)
        assert [(f.rule_id, f.line, f.message.split()[0]) for f in findings] == [
            ("REPRO-S602", 1, "json"), ("REPRO-S602", 2, "Any")
        ]

    def test_all_and_type_strings_count_as_uses_and_noqa_exempts_nothing(self):
        source = '''"""Optional in a docstring is not a use."""
from typing import Callable, Optional, Sequence
import os.path
import sys  # noqa: F401
from .workload import Workload, Runner
from .other import Exported

__all__ = ["Exported"]


def run(items: "Sequence[Workload]", hook: Callable[["Runner"], None]) -> None:
    os.path.join("a", "b")
'''
        findings = lint_snippet(source, UnusedImportRule)
        assert [(f.line, f.message.split()[0]) for f in findings] == [(2, "Optional"), (4, "sys")]


class TestUnreachedDefinitionRule:
    CLI = "from repro import lib\nfrom repro.lib import aliased as renamed, used\nused(); renamed(); getattr(lib, 'by_name')()\n"
    LIB = (
        "def used(): return helper()\ndef helper(): pass\ndef aliased(): pass\ndef by_name(): pass\n"
        "@register\nclass Registered: pass\ndef only_tested(): pass\ndef _private(): pass\n"
    )

    def lint(self, lib=LIB, complete=True):
        tests = "from repro.lib import only_tested\nonly_tested()\n"
        project = Project.from_sources({"src/repro/cli.py": self.CLI, "src/repro/lib.py": lib, "tests/test_lib.py": tests})
        project.complete = complete
        return run_lint(project, rules=[UnreachedDefinitionRule])

    def test_a_public_definition_only_tests_reach_is_found(self):
        (finding,) = self.lint().findings
        assert (finding.rule_id, finding.path, finding.line) == ("REPRO-S601", "src/repro/lib.py", 7)
        assert "only_tested" in finding.message

    def test_an_exception_on_a_reached_definition_is_stale(self):
        report = self.lint("# repro: allow[REPRO-S601] kept on purpose\n" + self.LIB)
        assert sorted(f.rule_id for f in report.findings) == ["REPRO-A002", "REPRO-S601"]

    def test_a_run_over_named_paths_proves_nothing(self):
        lib = self.LIB.replace("def only_tested", "# repro: allow[REPRO-S601] kept on purpose\ndef only_tested")
        report = self.lint(lib, complete=False)
        assert not report.findings and not report.suppressed
        assert report.rules_run == len(ENGINE_CHECKS)


class TestPragmas:
    def test_same_line_pragma_with_reason_suppresses(self):
        source = "import time\nstamp = time.time()  # repro: allow[REPRO-D101] fixture needs real time\n"
        project = Project.from_sources({"src/repro/demo.py": source})
        report = run_lint(project, rules=[WallClockRule])
        assert not report.findings
        assert [f.rule_id for f in report.suppressed] == ["REPRO-D101"]
        assert report.suppressed[0].suppression_reason == "fixture needs real time"

    def test_line_above_pragma_suppresses(self):
        source = (
            "import time\n"
            "# repro: allow[REPRO-D101] fixture needs real time\n"
            "stamp = time.time()\n"
        )
        report = run_lint(
            Project.from_sources({"src/repro/demo.py": source}), rules=[WallClockRule]
        )
        assert not report.findings and report.suppressed

    def test_pragma_without_reason_rejected(self):
        source = "import time\nstamp = time.time()  # repro: allow[REPRO-D101]\n"
        report = run_lint(
            Project.from_sources({"src/repro/demo.py": source}), rules=[WallClockRule]
        )
        ids = sorted(f.rule_id for f in report.findings)
        # The hazard stays visible AND the bare pragma is itself a finding.
        assert ids == ["REPRO-A001", "REPRO-D101"]

    def test_stale_pragma_reported(self):
        source = "value = 1  # repro: allow[REPRO-D101] no clock read here\n"
        report = run_lint(
            Project.from_sources({"src/repro/demo.py": source}), rules=[WallClockRule]
        )
        assert [f.rule_id for f in report.findings] == ["REPRO-A002"]

    def test_pragma_for_other_rule_does_not_suppress(self):
        source = "import time\nstamp = time.time()  # repro: allow[REPRO-D102] wrong rule\n"
        report = run_lint(
            Project.from_sources({"src/repro/demo.py": source}),
            rules=[WallClockRule, UnseededRandomRule],
        )
        ids = sorted(f.rule_id for f in report.findings)
        assert "REPRO-D101" in ids and "REPRO-A002" in ids

    def test_stale_pragma_for_inactive_rule_not_judged(self):
        # A partial run (rule subset) must not flag pragmas belonging to
        # families that did not run.
        source = "value = 1  # repro: allow[REPRO-D102] belongs to another family\n"
        report = run_lint(
            Project.from_sources({"src/repro/demo.py": source}), rules=[WallClockRule]
        )
        assert not report.findings

    def test_pragma_in_string_literal_ignored(self):
        source = 'EXAMPLE = "x = 1  # repro: allow[REPRO-D101] not a real pragma"\n'
        report = run_lint(
            Project.from_sources({"src/repro/demo.py": source}), rules=[WallClockRule]
        )
        assert not report.findings and not report.suppressed


class TestEngine:
    def test_syntax_error_is_a_finding(self):
        report = run_lint(
            Project.from_sources({"src/repro/broken.py": "def broken(:\n"}), rules=[]
        )
        assert [f.rule_id for f in report.findings] == ["REPRO-A000"]

    def test_rule_ids_unique_and_catalogued(self):
        ids = rule_ids()
        assert len(ids) == len(set(ids))
        assert {cls.rule_id for cls in rule_catalogue()} <= set(ids)
        for cls in rule_catalogue():
            assert cls.title and cls.rationale and cls.example, cls.rule_id

    def test_exit_code_semantics(self):
        clean = run_lint(Project.from_sources({"src/repro/ok.py": "value = 1\n"}))
        assert clean.exit_code == 0 and clean.clean
        dirty = run_lint(
            Project.from_sources({"src/repro/bad.py": "import time\nt = time.time()\n"}),
            rules=[WallClockRule],
        )
        assert dirty.exit_code == 1 and not dirty.clean

    def test_node_index_answers_what_a_walk_would(self):
        ctx = Project.from_sources({"src/repro/demo.py": inspect.getsource(transport_module)}).files[0]
        parents = {child: node for node in ast.walk(ctx.tree) for child in ast.iter_child_nodes(node)}
        for function in [ctx.tree, *ctx.nodes(ast.FunctionDef)]:
            walked = [n for n in ast.walk(function) if isinstance(n, (ast.Call, ast.FunctionDef))]
            assert set(ctx.nodes(ast.Call, ast.FunctionDef, within=function)) == set(walked)
        for call in ctx.nodes(ast.Call):
            ancestor = parents[call]
            while ancestor in parents and not isinstance(ancestor, (ast.FunctionDef, ast.ClassDef)):
                ancestor = parents[ancestor]
            assert ctx.enclosing(call, ast.FunctionDef, ast.ClassDef) is (ancestor if ancestor in parents else None)

    def test_findings_sorted_by_position(self):
        source = "import time\nb = time.time()\na = time.time()\n"
        report = run_lint(
            Project.from_sources({"src/repro/demo.py": source}), rules=[WallClockRule]
        )
        assert [f.line for f in report.findings] == [2, 3]


class TestReporters:
    @staticmethod
    def report():
        return LintReport(
            findings=[
                Finding("REPRO-D101", "src/repro/a.py", 3, "wall clock"),
                Finding("REPRO-D101", "src/repro/b.py", 1, "wall clock"),
                Finding("REPRO-P501", "src/repro/a.py", 9, "uncached decode"),
            ],
            suppressed=[
                Finding("REPRO-P502", "src/repro/c.py", 2, "growth", True, "bounded by setup")
            ],
            files_scanned=4,
            rules_run=7,
        )

    def test_by_rule_counts_only_unsuppressed_findings(self):
        assert self.report().by_rule() == {"REPRO-D101": 2, "REPRO-P501": 1}
        assert LintReport().by_rule() == {}

    def test_sort_key_orders_by_file_then_line_then_rule(self):
        findings = [
            Finding("REPRO-B", "b.py", 1, ""),
            Finding("REPRO-B", "a.py", 2, ""),
            Finding("REPRO-A", "a.py", 2, ""),
            Finding("REPRO-C", "a.py", 1, ""),
        ]
        ordered = sorted(findings, key=lambda finding: finding.sort_key)
        assert [(f.path, f.line, f.rule_id) for f in ordered] == [
            ("a.py", 1, "REPRO-C"),
            ("a.py", 2, "REPRO-A"),
            ("a.py", 2, "REPRO-B"),
            ("b.py", 1, "REPRO-B"),
        ]

    def test_text_lists_each_finding_and_a_per_rule_summary(self):
        lines = render_text(self.report()).splitlines()
        assert lines == [
            "src/repro/a.py:3: REPRO-D101 wall clock",
            "src/repro/b.py:1: REPRO-D101 wall clock",
            "src/repro/a.py:9: REPRO-P501 uncached decode",
            "3 finding(s) [REPRO-D101×2, REPRO-P501×1] — 4 files, 7 checks, 1 suppressed",
        ]

    def test_text_shows_suppressions_only_on_request(self):
        report = LintReport(suppressed=self.report().suppressed, files_scanned=2, rules_run=5)
        assert render_text(report) == "clean — 2 files, 5 checks, 1 suppressed"
        assert render_text(report, show_suppressed=True).splitlines() == [
            "src/repro/c.py:2: REPRO-P502 suppressed (bounded by setup): growth",
            "clean — 2 files, 5 checks, 1 suppressed",
        ]

    def test_json_is_the_report_document(self):
        report = self.report()
        payload = json.loads(render_json(report))
        assert payload == report.to_dict()
        assert payload["clean"] is False
        assert payload["suppressed"][0]["suppression_reason"] == "bounded by setup"
