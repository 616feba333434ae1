"""What each catalogue scenario alone exercises: the census behind a catalogue cut.

A scenario keeps its place only if it carries something no other scenario
does (ROADMAP item 9).  For every scenario, at smoke and at default size,
this prints the ``src/`` lines it alone reaches (``sys.settrace``), the
message kinds it alone delivers and the result sections it alone produces,
then the location of every unique line outside ``scenarios.py``.  The
catalogue first runs once untraced, so process-global caches are warm and no
cache fill is credited to whichever scenario happens to run first.

    PYTHONPATH=src python benchmarks/scenario_census.py [--smoke]

Every run uses seed 7.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.network.scenarios import run_scenario, scenario_names
from repro.network.transport import InMemoryTransport

SRC = str(Path(__file__).resolve().parent.parent / "src") + "/"
SEED = 7


def trace(name: str, smoke: bool) -> tuple[set, set, set]:
    """The ``src/`` lines, delivered kinds and result sections of one run."""
    lines: set[tuple[str, int]] = set()
    kinds: set[str] = set()
    account = InMemoryTransport._account_delivery

    def counting(self, message, latency_ms):
        kinds.add(message.kind.value)
        account(self, message, latency_ms)

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(SRC):
            return None
        if event == "line":
            lines.add((filename[len(SRC) :], frame.f_lineno))
        return tracer

    previous = sys.gettrace()
    InMemoryTransport._account_delivery = counting
    sys.settrace(tracer)
    try:
        result = run_scenario(name, seed=SEED, smoke=smoke)
    finally:
        sys.settrace(previous)
        InMemoryTransport._account_delivery = account
    report = result.pop("report", {})
    return lines, kinds, set(result) | {f"report.{key}" for key in report}


def spans(lines: list[tuple[str, int]]) -> str:
    """``a.py:3-5,9; b.py:2`` for sorted ``(path, line)`` pairs."""
    runs: dict[str, list[list[int]]] = {}
    for path, number in lines:
        ranges = runs.setdefault(path, [])
        if ranges and ranges[-1][1] == number - 1:
            ranges[-1][1] = number
        else:
            ranges.append([number, number])
    return "; ".join(
        f"{path}:" + ",".join(f"{a}-{b}" if a < b else f"{a}" for a, b in ranges)
        for path, ranges in runs.items()
    )


def census(smoke: bool) -> None:
    for name in scenario_names():
        run_scenario(name, seed=SEED, smoke=smoke)
    runs = {name: trace(name, smoke) for name in scenario_names()}
    print(f"\n{'smoke' if smoke else 'default'} size, seed {SEED}\n")
    print("| scenario | unique lines (outside scenarios.py) | kinds delivered (only here) "
          "| sections (only here) |\n| --- | --- | --- | --- |")
    outside = []
    for name, facets in runs.items():
        others = [runs[other] for other in runs if other != name]
        only = [facet - set().union(*(run[i] for run in others)) for i, facet in enumerate(facets)]
        away = sorted(line for line in only[0] if not line[0].endswith("network/scenarios.py"))
        if away:
            outside.append(f"{name}: {spans(away)}")
        print(f"| `{name}` | {len(only[0])} ({len(away)}) | {len(facets[1])} "
              f"({', '.join(sorted(only[1])) or '-'}) | {len(facets[2])} "
              f"({', '.join(sorted(only[2])) or '-'}) |")
    print(f"\n{len(set().union(*(run[0] for run in runs.values())))} distinct src/ lines")
    print("\n".join(outside))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true", help="smoke size only")
    arguments = parser.parse_args()
    for smoke in (True,) if arguments.smoke else (True, False):
        census(smoke)
