"""The one sweep harness behind every committed ``BENCH_*.json``.

A sweep file keeps its constants, one ``measure(value) -> row`` per axis and
its shape checks; reading the environment, choosing the file, serialising
JSON, printing the rows and deciding whether a run is wide enough for shape
assertions happen here and nowhere else.  There is one switch:

* ``BENCH_SMOKE=1`` measures each axis's ``smoke`` prefix, writes nothing and
  holds the regenerated rows against the committed ones — key by key on the
  ``"wall"`` clock, value by value on the other two: ``"virtual"`` (kernel
  time, deterministic model outputs) and ``"logical"`` (blocks, bytes, counts,
  seeded-model probabilities).  Sections computed from the whole axis are
  left alone: a prefix cannot reproduce them.
* Otherwise it measures ``full`` and rewrites the committed file, stamped
  with its clock; ``git diff`` is then the comparison.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent


@dataclass(frozen=True)
class Axis:
    key: str  # where the file lists the axis values ("fleet_sizes")
    section: str  # where it keeps one row per value ("trajectory")
    full: tuple
    smoke: tuple  # a proper prefix of ``full``
    measure: Callable[[Any], dict]


@dataclass(frozen=True)
class Sweep:
    benchmark: str
    output: str
    clock: str  # "virtual" | "logical" | "wall"
    config: dict
    axes: tuple[Axis, ...]
    #: Sections computed from the whole axis: rows by section -> {name: section}.
    summarise: Callable[[dict], dict] = lambda rows: {}


@dataclass(frozen=True)
class Run:
    full: bool  # shape assertions that need the whole spread engage on this
    rows: dict[str, dict[Any, dict]]  # section -> axis value -> row
    summary: dict[str, Any]


def leaves(value: Any, prefix: str = "") -> Iterator[tuple[str, Any]]:
    """Dotted path and value of every non-dict leaf, in key order."""
    if isinstance(value, dict):
        for key in sorted(value):
            yield from leaves(value[key], f"{prefix}.{key}" if prefix else key)
    else:
        yield prefix, value


def check_against_committed(sweep: Sweep, regenerated: dict, committed: dict) -> None:
    """Row by row; ``test_sweep.py`` holds the file's header to the declaration."""
    for axis in sweep.axes:
        for value in regenerated[axis.key]:
            where = f"{sweep.output}: {axis.key}={value}"
            ours = dict(leaves(regenerated[axis.section][str(value)]))
            theirs = dict(leaves(committed[axis.section][str(value)]))
            assert ours.keys() == theirs.keys(), (
                f"{where}: keys differ: {sorted(ours.keys() ^ theirs.keys())}"
            )
            if sweep.clock == "wall":
                continue  # wall-clock readings never repeat; the keys are the contract
            for key, regenerated_value in ours.items():
                assert regenerated_value == theirs[key], (
                    f"{where}: {key}: committed {theirs[key]!r} != regenerated {regenerated_value!r}"
                )


def print_rows(axis: Axis, rows: dict[Any, dict]) -> None:
    """One column per axis value, one line per leaf of the row."""
    columns = [dict(leaves(row)) for row in rows.values()]
    print()
    print(f"{axis.key:<42}" + "".join(f"{value!s:>14}" for value in rows))
    for key in columns[0]:
        print(f"{key:<42}" + "".join(f"{column.get(key)!s:>14}" for column in columns))


def run(sweep: Sweep, root: Path = REPO_ROOT) -> Run:
    smoke = os.environ.get("BENCH_SMOKE", "") not in ("", "0")
    rows = {
        axis.section: {value: axis.measure(value) for value in (axis.smoke if smoke else axis.full)}
        for axis in sweep.axes
    }
    summary = sweep.summarise(rows)
    document = {"benchmark": sweep.benchmark, "clock": sweep.clock, "config": sweep.config, **summary}
    for axis in sweep.axes:
        document[axis.key] = list(rows[axis.section])
        document[axis.section] = {str(value): row for value, row in rows[axis.section].items()}
        print_rows(axis, rows[axis.section])
    text = json.dumps(document, indent=2, sort_keys=True) + "\n"
    path = root / sweep.output
    if smoke:
        check_against_committed(sweep, json.loads(text), json.loads(path.read_text(encoding="utf-8")))
    else:
        path.write_text(text, encoding="utf-8")
    return Run(full=not smoke, rows=rows, summary=summary)
