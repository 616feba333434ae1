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

Before regenerating, list what moved against any git revision's golden file
(one line per moved point, naming its moved sections)::

    PYTHONPATH=src python tests/test_scenario_digests.py --diff HEAD
"""

import argparse
import hashlib
import json
import subprocess
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


def moved_sections(golden, actual):
    """Names of the sections whose sub-digests differ between two points."""
    return sorted(
        section
        for section in golden["sections"].keys() | actual["sections"].keys()
        if golden["sections"].get(section) != actual["sections"].get(section)
    )


def print_diff(revision):
    """Print every point whose digest differs from ``revision``'s golden file."""
    root = Path(__file__).resolve().parent.parent
    golden = json.loads(
        subprocess.run(
            ["git", "show", f"{revision}:{GOLDEN_PATH.relative_to(root).as_posix()}"],
            cwd=root,
            capture_output=True,
            text=True,
            check=True,
        ).stdout
    )
    ids = [point_id(*point) for point in points()]
    for stale in sorted(golden.keys() - set(ids)):
        print(f"{stale}: not pinned any more")
    moved = 0
    for point, pid in zip(points(), ids):
        if pid not in golden:
            print(f"{pid}: new point")
            continue
        actual = scenario_digest(*point)
        if actual != golden[pid]:
            moved += 1
            print(f"{pid}: {', '.join(moved_sections(golden[pid], actual))}")
    print(f"{moved} of {len(ids)} points moved against {revision}")


def test_golden_file_covers_exactly_the_pinned_points():
    golden = json.loads(GOLDEN_PATH.read_text())
    assert sorted(golden) == sorted(point_id(*point) for point in points())


@pytest.mark.parametrize(
    "name, seed, params", points(), ids=[point_id(*point) for point in points()]
)
def test_scenario_output_matches_its_golden_digest(name, seed, params):
    golden = json.loads(GOLDEN_PATH.read_text())[point_id(name, seed, params)]
    actual = scenario_digest(name, seed, params)
    moved = moved_sections(golden, actual)
    assert actual == golden, (
        f"scenario {name!r} at seed {seed} (overrides {params}) no longer produces "
        f"its golden output; sections that moved: {moved} — see the module "
        f"docstring to regenerate"
    )


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Print the golden scenario digests.")
    parser.add_argument(
        "--diff",
        metavar="REV",
        help="instead, list the points that moved against REV's golden file",
    )
    arguments = parser.parse_args()
    if arguments.diff is None:
        digests = {point_id(*point): scenario_digest(*point) for point in points()}
        print(json.dumps(digests, indent=2))
    else:
        print_diff(arguments.diff)
