#!/usr/bin/env python3
"""One wall-clock benchmark for the ledger and its simulator.

Three ways to call it (see README.md in this directory):

* ``python benchmarks/ledger/run.py [--seed 7] [--reps 5] [--workload NAME]
  [--smoke] [--out PATH]`` — every workload untraced, correctness checked,
  every metric printed by name with unit and clock, then one traced pass for
  the per-layer numbers.  Exits non-zero when any operation failed.
* ``python benchmarks/ledger/run.py --workload NAME --seed N --seconds S
  --trace 0|1`` — one workload measured for ``S`` seconds; the last line of
  standard output is one JSON object (the form ``BENCHMARK.json`` promises).
* ``python benchmarks/ledger/run.py --compare A.json B.json`` — two result
  files side by side, each row ``ok`` / ``regressed`` / ``unresolved``.

Each workload runs in a fresh interpreter started from here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Optional

HERE = Path(__file__).resolve().parent
SOURCES = HERE.parent.parent / "src"
sys.path.insert(0, str(HERE))

from ledgerbench import report  # noqa: E402
from ledgerbench.declarations import (  # noqa: E402
    ALL_WORKLOADS,
    SCHEMA,
    UNIVERSAL_END_TO_END,
    END_TO_END,
    declarations,
    per_layer_declarations,
)
from ledgerbench.timing import best, median, wall  # noqa: E402

#: Set-up is timed this often per ``--seconds`` run and reported as the median.
SETUP_SAMPLES = 5

CALIBRATION_ROUNDS = 60_000

#: What a child interpreter can be asked to do.  ``measure+trace`` takes the
#: untraced readings (and the peak RSS) first and profiles afterwards, so the
#: last round of a full run needs one interpreter per workload, not two.
JOBS = ("set-up", "measure", "trace", "measure+trace", "probes")


def parse_arguments(argv: Optional[list[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--reps", type=int, default=5,
                        help="timed repetitions per workload (at least 3, except with --smoke)")
    parser.add_argument("--workload", choices=ALL_WORKLOADS, help="run this workload only")
    parser.add_argument("--smoke", action="store_true", help="tiny sizes, for the self-test")
    parser.add_argument("--out", type=Path, help="write the result document here")
    parser.add_argument("--seconds", type=float, help="measure one workload for this long")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --seconds: 1 reports the per-layer metrics instead")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("A.json", "B.json"))
    parser.add_argument("--job", choices=JOBS, help=argparse.SUPPRESS)
    arguments = parser.parse_args(argv)
    if arguments.job is None:
        if arguments.seconds is not None and arguments.workload is None:
            parser.error("--seconds needs --workload")
        if arguments.seconds is None and arguments.reps < (1 if arguments.smoke else 3):
            parser.error("--reps must be at least 3")
    return arguments


# --------------------------------------------------------------------- #
# Inside a workload's own process
# --------------------------------------------------------------------- #


#: A job prints this line once its set-up is done; the parent stops the
#: set-up clock when it reads it.
READY = "READY"


def run_job(arguments: argparse.Namespace) -> int:
    """Do one job in this process and print its result as one JSON line."""
    if not (SOURCES / "repro").is_dir():
        print(f"the program under test is missing: no package at {SOURCES / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SOURCES))
    from ledgerbench import probes, worker

    if arguments.job == "probes":
        print(READY, flush=True)
        result: Any = probes.run_probes(probes.SMOKE if arguments.smoke else probes.FULL)
    else:
        repeat = worker.set_up(arguments.workload, arguments.seed, smoke=arguments.smoke)
        print(READY, flush=True)
        result = {}
        if "measure" in arguments.job:
            result["measured"] = worker.measure(
                repeat,
                reps=None if arguments.seconds is not None else arguments.reps,
                seconds=arguments.seconds,
            )
        if "trace" in arguments.job:
            result["traced"] = worker.trace(repeat)
    print(json.dumps(result))
    return 0


# --------------------------------------------------------------------- #
# The parent: starts jobs, gathers their results
# --------------------------------------------------------------------- #


def start_job(
    job: str, arguments: argparse.Namespace, workload: Optional[str], *, reps: Optional[int] = None
) -> tuple[Any, float]:
    """Run ``job`` in a fresh interpreter; return its result and set-up seconds.

    Set-up is what a user waits for before the first operation: interpreter
    start, imports, input generation, key derivation and the warm-up
    repetition, timed from here until the job reports it is ready.
    """
    command = [sys.executable, str(HERE / "run.py"), "--job", job, "--seed", str(arguments.seed),
               "--reps", str(reps or arguments.reps)]
    if workload is not None:
        command += ["--workload", workload]
    if arguments.smoke:
        command.append("--smoke")
    if arguments.seconds is not None:
        command += ["--seconds", str(arguments.seconds)]
    environment = dict(os.environ, PYTHONHASHSEED="0")
    before = wall()
    with subprocess.Popen(command, stdout=subprocess.PIPE, text=True, env=environment) as process:
        assert process.stdout is not None
        ready = process.stdout.readline().strip()
        setup_s = wall() - before
        output = process.stdout.read()
    if process.returncode != 0 or ready != READY:
        raise SystemExit(f"{job} job for {workload or 'probes'} exited with {process.returncode}")
    return json.loads(output.splitlines()[-1]), setup_s


def extra_setup_samples(arguments: argparse.Namespace, workload: str, count: int) -> list[float]:
    """Set-up seconds of ``count`` further interpreters that only set up."""
    return [start_job("set-up", arguments, workload)[1] for _ in range(count)]


def calibration_seconds(rounds: int) -> float:
    """A fixed loop of pure Python, sha256 and json.dumps (informational).

    Lets numbers from different machines be normalised; no metric uses it.
    """
    before = wall()
    digest = b"ledger-bench"
    total = 0
    for index in range(rounds):
        total += index * index % 7
        digest = hashlib.sha256(digest).digest()
        json.dumps({"index": index, "total": total, "digest": digest.hex()}, sort_keys=True)
    return wall() - before


def driver_run(arguments: argparse.Namespace) -> int:
    """One workload for ``--seconds``; the last stdout line is the result."""
    if arguments.trace:
        traced = start_job("trace", arguments, arguments.workload)[0]["traced"]
        probed, _ = start_job("probes", arguments, None)
        units = {row["name"]: row["unit"] for row in per_layer_declarations()}
        values = {**traced["metrics"], **probed}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
        outcome = report.merge_runs([traced])
    else:
        result, setup_s = start_job("measure", arguments, arguments.workload)
        outcome = report.merge_runs([result["measured"]])
        readings = outcome["readings"]
        readings["setup_s"] = [setup_s] + extra_setup_samples(
            arguments, arguments.workload, 1 if arguments.smoke else SETUP_SAMPLES - 1
        )
        # Set-up is the median of its samples.  The per-repetition timings are
        # reported as the best repetition: with three to seven repetitions in
        # a run, a neighbour's burst on a shared host moves the median by
        # several percent and the minimum hardly at all.
        metrics = {
            name: {
                "value": median(readings[name])
                if name == "setup_s"
                else best(readings[name], END_TO_END[name]["better"]),
                "unit": END_TO_END[name]["unit"],
            }
            for name in UNIVERSAL_END_TO_END
        }
    for violation in outcome["violations"]:
        print(f"VIOLATION {arguments.workload}: {violation}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not outcome["violations"],
                "attempted": outcome["ops_attempted"],
                "failed": outcome["ops_failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


def full_run(arguments: argparse.Namespace) -> int:
    """Every workload (or one) in rounds, the last one traced; print and store."""
    names = [arguments.workload] if arguments.workload else list(ALL_WORKLOADS)
    document: dict[str, Any] = {
        "schema": SCHEMA,
        "command": "python benchmarks/ledger/run.py " + " ".join(sys.argv[1:]),
        "seed": arguments.seed,
        "reps": arguments.reps,
        "smoke": arguments.smoke,
        "machine": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "calibration_s": calibration_seconds(CALIBRATION_ROUNDS // (20 if arguments.smoke else 1)),
        },
        "declarations": declarations(),
        "workloads": {},
        "probes": {},
        "claim": None,
    }
    # Repetitions are taken in rounds over the workloads, one fresh
    # interpreter each, so that a slow spell of the host (tens of seconds on
    # a shared machine) costs every workload one reading instead of costing
    # one workload all of them.  The last round's interpreter also traces.
    measured: dict[str, list[Any]] = {name: [] for name in names}
    setups: dict[str, list[float]] = {name: [] for name in names}
    traced: dict[str, Any] = {}
    for turn in range(1, arguments.reps + 1):
        for name in names:
            last = turn == arguments.reps
            print(f"[{name}] repetition {turn}/{arguments.reps}{' + traced pass' if last else ''}",
                  file=sys.stderr)
            result, setup_s = start_job("measure+trace" if last else "measure", arguments, name, reps=1)
            measured[name].append(result["measured"])
            setups[name].append(setup_s)
            if last:
                traced[name] = result["traced"]
    for name in names:
        document["workloads"][name] = report.workload_section(
            name, setups[name], measured[name], traced[name]
        )
    if not arguments.workload:
        print("[probes] ...", file=sys.stderr)
        document["probes"] = report.probe_section(start_job("probes", arguments, None)[0])
    print(report.render(document))
    problems = report.validate_document(document)
    for problem in problems:
        print(f"SCHEMA {problem}", file=sys.stderr)
    if arguments.out is not None:
        arguments.out.write_text(json.dumps(document, indent=1) + "\n", encoding="utf-8")
    failing = [
        name for name, section in document["workloads"].items()
        if section["end_to_end"]["failure_share"]["median"] > 0 or section["violations"]
    ]
    for name in failing:
        print(f"FAILED {name}: failure_share > 0", file=sys.stderr)
    return 1 if failing or problems else 0


def compare_files(first: Path, second: Path) -> int:
    documents = [json.loads(path.read_text(encoding="utf-8")) for path in (first, second)]
    table, regressed = report.compare(*documents)
    print(table)
    return 1 if regressed else 0


def main(argv: Optional[list[str]] = None) -> int:
    arguments = parse_arguments(argv)
    if arguments.compare:
        return compare_files(*arguments.compare)
    if arguments.job:
        return run_job(arguments)
    if arguments.seconds is not None:
        return driver_run(arguments)
    return full_run(arguments)


if __name__ == "__main__":
    sys.exit(main())
