"""The result document: its shape, its printed form, and ``--compare``.

This module imports nothing from ``repro``; comparing two result files
needs only the files.
"""

from __future__ import annotations

import math
import re
from typing import Any

from ledgerbench.declarations import (
    END_TO_END,
    PROBES,
    SCHEMA,
    WORKLOADS,
    applies,
    bound_of,
    per_layer_declarations,
)
from ledgerbench.timing import summarise

NAME_PATTERN = re.compile(r"^[A-Za-z0-9_.-]+$")


def merge_runs(parts: list[dict[str, Any]]) -> dict[str, Any]:
    """Fold the repetitions of several interpreters into one outcome.

    Every repetition of a (workload, seed), in whichever process and whether
    traced or not, must produce the same digest; one that does not is a
    correctness violation, and a violation fails every operation.
    """
    violations = sorted({violation for part in parts for violation in part["violations"]})
    if len({digest for part in parts for digest in part["digests"]}) > 1:
        violations.append("digest-differs-between-repetitions")
    readings: dict[str, list[float]] = {}
    for part in parts:
        for metric, values in part.get("readings", {}).items():
            readings.setdefault(metric, []).extend(values)
    if violations and "failure_share" in readings:
        readings["failure_share"] = [1.0] * len(readings["failure_share"])
    last = parts[-1]
    return {
        "ops_attempted": last["ops_attempted"],
        "ops_failed": last["ops_attempted"] if violations else last["ops_failed"],
        "result_digest": last["digests"][-1],
        "violations": violations,
        "readings": readings,
    }


def workload_section(
    name: str, setup_samples: list[float], measured: list[dict[str, Any]], traced: dict[str, Any]
) -> dict[str, Any]:
    """One workload's part of the result document."""
    outcome = merge_runs(measured + [traced])
    readings = outcome.pop("readings")
    readings["setup_s"] = setup_samples
    end_to_end = {
        metric: {"unit": spec["unit"], "clock": spec["clock"], **summarise(readings[metric], spec["better"])}
        for metric, spec in END_TO_END.items()
        if applies(metric, name) and metric in readings
    }
    units = {row["name"]: row["unit"] for row in per_layer_declarations()}
    return {
        "why": WORKLOADS[name]["why"],
        **outcome,
        "end_to_end": end_to_end,
        "per_layer": {
            metric: {"unit": units[metric], "value": value} for metric, value in traced["metrics"].items()
        },
        "trace": {key: traced[key] for key in ("profiled_total_s", "traced_wall_s", "untraced_wall_s")},
    }


def probe_section(values: dict[str, float]) -> dict[str, Any]:
    """The workload-independent probes' part of the result document."""
    return {name: {"unit": PROBES[name], "value": values[name]} for name in PROBES}


def validate_document(document: dict[str, Any]) -> list[str]:
    """Every way ``document`` departs from the result schema (empty if none)."""
    problems: list[str] = []

    def number(path: str, value: Any) -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{path} is not a finite number: {value!r}")

    def named(path: str, name: str) -> None:
        if not NAME_PATTERN.match(name):
            problems.append(f"{path}: name {name!r} has characters outside [A-Za-z0-9_.-]")

    if document.get("schema") != SCHEMA:
        problems.append(f"schema is {document.get('schema')!r}, expected {SCHEMA!r}")
    for key in ("seed", "reps"):
        number(key, document.get(key))
    for key in ("python", "nproc", "calibration_s"):
        if key not in document.get("machine", {}):
            problems.append(f"machine.{key} is missing")
    if document.get("claim", "absent") is not None:
        problems.append("claim must be present and null: a benchmark run claims no gain")
    declared = {row["name"] for row in per_layer_declarations()} - set(PROBES)
    for workload, section in document.get("workloads", {}).items():
        named("workloads", workload)
        if workload not in WORKLOADS:
            problems.append(f"unknown workload {workload!r}")
            continue
        if not re.fullmatch(r"[0-9a-f]{64}", str(section.get("result_digest"))):
            problems.append(f"{workload}.result_digest is not a sha256 hex digest")
        for key in ("ops_attempted", "ops_failed"):
            number(f"{workload}.{key}", section.get(key))
        expected = {metric for metric in END_TO_END if applies(metric, workload)}
        found = set(section.get("end_to_end", {}))
        if found != expected:
            problems.append(f"{workload}.end_to_end has {sorted(found ^ expected)} missing or extra")
        for metric, row in section.get("end_to_end", {}).items():
            named(f"{workload}.end_to_end", metric)
            if row.get("clock") not in ("wall", "virtual", "none"):
                problems.append(f"{workload}.{metric}.clock is {row.get('clock')!r}")
            for key in ("median", "q1", "q3", "best", "n"):
                number(f"{workload}.{metric}.{key}", row.get(key))
            for index, value in enumerate(row.get("values", [])):
                number(f"{workload}.{metric}.values[{index}]", value)
            if len(row.get("values", [])) != row.get("n"):
                problems.append(f"{workload}.{metric} does not list its {row.get('n')} readings")
        layered = set(section.get("per_layer", {}))
        if layered != declared:
            problems.append(f"{workload}.per_layer has {sorted(layered ^ declared)} missing or extra")
        for metric, row in section.get("per_layer", {}).items():
            named(f"{workload}.per_layer", metric)
            number(f"{workload}.{metric}.value", row.get("value"))
        number(f"{workload}.trace.profiled_total_s", section.get("trace", {}).get("profiled_total_s"))
    if document.get("workloads") and set(document.get("probes", {})) != set(PROBES):
        problems.append("probes are not exactly the declared ones")
    for metric, row in document.get("probes", {}).items():
        named("probes", metric)
        number(f"probes.{metric}.value", row.get("value"))
    return problems


def _figure(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return f"{int(value):,}"
    return f"{value:,.4g}" if abs(value) < 1000 else f"{value:,.1f}"


def render(document: dict[str, Any]) -> str:
    """Every metric by name, with unit and clock."""
    machine = document["machine"]
    lines = [
        f"ledger benchmark  seed={document['seed']} reps={document['reps']} "
        f"smoke={document['smoke']}  python={machine['python']} nproc={machine['nproc']} "
        f"calibration_s={machine['calibration_s']:.4f}",
        "",
    ]
    for workload, section in document["workloads"].items():
        lines.append(f"== {workload}  digest={section['result_digest'][:16]}  "
                     f"ops_attempted={section['ops_attempted']} ops_failed={section['ops_failed']}")
        for violation in section["violations"]:
            lines.append(f"   VIOLATION {violation}")
        lines.append(f"   {'end-to-end metric':<28}{'median':>16}  {'unit':<9}{'clock':<8}"
                     f"{'q1':>16}{'q3':>16}{'best':>16}{'n':>4}")
        for metric, row in section["end_to_end"].items():
            lines.append(
                f"   {metric:<28}{_figure(row['median']):>16}  {row['unit']:<9}{row['clock']:<8}"
                f"{_figure(row['q1']):>16}{_figure(row['q3']):>16}{_figure(row['best']):>16}{row['n']:>4}"
            )
        trace = section["trace"]
        lines.append(
            f"   per-layer (traced pass: {trace['traced_wall_s']:.2f} s wall, "
            f"{trace['profiled_total_s']:.2f} s profiled; self times on the wall clock under cProfile)"
        )
        for metric, row in section["per_layer"].items():
            if row["value"]:
                lines.append(f"   {metric:<44}{_figure(row['value']):>16}  {row['unit']}")
        lines.append("")
    if document["probes"]:
        lines.append("== probes (wall clock, median per call, fixed inputs)")
        for metric, row in document["probes"].items():
            lines.append(f"   {metric:<44}{_figure(row['value']):>16}  {row['unit']}")
    return "\n".join(lines)


def _floor_gap(row: dict[str, Any], better: str) -> float:
    """How far apart a row's two best readings are, as a share of the best."""
    ordered = sorted(row["values"], reverse=better == "higher")
    if len(ordered) < 2 or not ordered[0]:
        return 0.0
    return abs(ordered[1] - ordered[0]) / abs(ordered[0])


def compare(baseline: dict[str, Any], candidate: dict[str, Any]) -> tuple[str, bool]:
    """Row per workload and end-to-end metric; True when any row regressed.

    Wall-clock metrics are compared on their best reading: interference on a
    shared host is one-sided, and over interleaved rounds the best reading
    repeats to a few percent where the median does not (see the README).  A
    row regresses when the candidate's best is worse than the baseline's by
    more than the metric's bound.  It is ``unresolved``, not ``ok``, when on
    either side the two best readings are further apart than the bound: the
    floor was not reached twice, so the row proves nothing.  Exact metrics
    compare with ``==``.  Medians are printed beside for the record.
    """
    lines = [
        f"{'workload':<20}{'metric':<26}{'base median':>13}{'cand median':>13}"
        f"{'base best':>13}{'cand best':>13}{'worse by':>10}{'bound':>7}  status"
    ]
    regressed = False
    for workload, before in baseline["workloads"].items():
        after = candidate["workloads"].get(workload)
        if after is None:
            lines.append(f"{workload:<20}missing from the candidate")
            regressed = True
            continue
        for metric, old in before["end_to_end"].items():
            new = after["end_to_end"].get(metric)
            if new is None:
                lines.append(f"{workload:<20}{metric:<26}missing from the candidate")
                regressed = True
                continue
            better = END_TO_END[metric]["better"]
            sign = 1.0 if better == "lower" else -1.0
            difference = sign * (new["best"] - old["best"])
            worse_by = difference / old["best"] if old["best"] else (math.inf if difference > 0 else 0.0)
            bound = bound_of(metric, old["best"])
            if bound is None:
                status = "regressed" if difference > 0 else "ok" if difference == 0 else "ok (changed)"
                shown = "exact"
            else:
                if max(_floor_gap(old, better), _floor_gap(new, better)) > bound:
                    status = "unresolved"
                elif worse_by > bound:
                    status = "regressed"
                else:
                    status = "ok"
                shown = f"{bound:.0%}"
            regressed = regressed or status == "regressed"
            lines.append(
                f"{workload:<20}{metric:<26}{_figure(old['median']):>13}{_figure(new['median']):>13}"
                f"{_figure(old['best']):>13}{_figure(new['best']):>13}{worse_by:>+10.1%}{shown:>7}  {status}"
            )
        same = before["result_digest"] == after["result_digest"]
        lines.append(f"{workload:<20}{'result_digest':<26}{'same' if same else 'differs':>52}")
    return "\n".join(lines), regressed
