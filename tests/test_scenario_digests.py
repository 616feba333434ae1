"""Golden digests: every catalogue scenario pinned against a stored value.

``--check-determinism`` only compares a run with a second run of the *same*
code, so a refactor that changes scenario output consistently passes it.
This module pins ``sha256(canonical JSON of run_scenario(name, seed=s))``
against ``tests/golden/scenario_digests.json`` — all catalogue scenarios at
seeds 7 and 23 with default parameters, plus points that sit on the far side
of a parameter-dependent code path (an open-loop fleet, a one-shard sharded
fleet, a larger lossy deployment, and four overloaded runs where arrivals
outpace the round trip and backlog or shedding carries the result).

Beside each ``sha256`` the file stores a 16-hex sub-digest per top-level key
of the result (``report`` expanded one level: ``report.transport``,
``report.kernel``, …), so a moved digest names the sections that moved.

A digest that moves means scenario output changed.  If that is intended,
regenerate the file and say why in the commit::

    PYTHONPATH=src python tests/test_scenario_digests.py > tests/golden/scenario_digests.json
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.network.scenarios import run_scenario, scenario_names

GOLDEN_PATH = Path(__file__).parent / "golden" / "scenario_digests.json"

SEEDS = (7, 23)
FORK_SENSITIVE = [
    ("gdpr-erasure", 23, {"n_clients": 3}),
    ("sharded-fleet", 7, {"shards": 1}),
    ("vehicle-telemetry", 7, {"vehicles": 60, "anchors": 6}),
    # The backlog regime: arrivals far faster than the round trip.
    ("gdpr-erasure", 9, {"mean_gap_ms": 0.5, "records": 200}),
    ("coin-economy", 9, {"mean_gap_ms": 0.5, "transfers": 150}),
    ("vehicle-telemetry", 2, {"mean_gap_ms": 2.0, "vehicles": 60, "anchors": 6}),
    (
        "fleet-saturation",
        17,
        {"in_flight_budget": 1, "overload_policy": "shed", "mean_gap_ms": 30.0},
    ),
]


def points():
    return [(name, seed, {}) for name in scenario_names() for seed in SEEDS] + FORK_SENSITIVE


def point_id(name, seed, params):
    suffix = "".join(f" {key}={params[key]}" for key in sorted(params))
    return f"{name} @{seed}{suffix}"


def _sha256(value):
    canonical = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def scenario_digest(name, seed, params):
    result = run_scenario(name, seed=seed, **params)
    sections = {}
    for key, value in result.items():
        if key == "report":
            sections.update({f"report.{sub}": _sha256(value[sub])[:16] for sub in value})
        else:
            sections[key] = _sha256(value)[:16]
    return {"sha256": _sha256(result), "sections": sections}


def test_golden_file_covers_exactly_the_pinned_points():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(point_id(*point) for point in points())


@pytest.mark.parametrize(
    "name, seed, params", points(), ids=[point_id(*point) for point in points()]
)
def test_scenario_output_matches_its_golden_digest(name, seed, params):
    golden = json.loads(GOLDEN_PATH.read_text())[point_id(name, seed, params)]
    actual = scenario_digest(name, seed, params)
    moved = sorted(
        section
        for section in golden["sections"].keys() | actual["sections"].keys()
        if golden["sections"].get(section) != actual["sections"].get(section)
    )
    assert actual == golden, (
        f"scenario {name!r} at seed {seed} (overrides {params}) no longer produces "
        f"its golden output; sections that moved: {moved} — see the module "
        f"docstring to regenerate"
    )


if __name__ == "__main__":
    print(json.dumps({point_id(*point): scenario_digest(*point) for point in points()}, indent=2))
