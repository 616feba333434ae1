"""What :mod:`sweep` promises about the committed ``BENCH_*.json`` files."""

from __future__ import annotations

import importlib
import json
import re
import shutil
from pathlib import Path

import pytest

import sweep

#: Sweep module -> the axis keys its committed file has always used.
HISTORICAL_AXIS_KEYS = {
    "bench_adversary": ("fractions",),
    "bench_fleet_saturation": ("fleet_sizes",),
    "bench_index_scaling": ("sizes",),
    "bench_net_scaling": ("sizes",),
    "bench_paper": (
        "growth_events", "deletion_histories", "retained_fractions", "chain_lengths", "record_counts",
        "anchor_counts", "shelf_lives", "shrink_strategies", "retention_units", "consensus_engines", "figure_numbers",
    ),
    "bench_shard_scaling": ("shard_counts",),
    "bench_sync": ("ages", "fanouts"),
    "bench_workload_scenarios": ("gaps_ms",),
}
SWEEPS = {name: importlib.import_module(name).SWEEP for name in HISTORICAL_AXIS_KEYS}
#: The cheapest virtual-clock sweep (0.3 s at full size) stands in for all.
ADVERSARY = SWEEPS["bench_adversary"]
COMMITTED = sweep.REPO_ROOT / ADVERSARY.output


@pytest.mark.parametrize("name", SWEEPS)
def test_smoke_is_a_proper_prefix_and_the_committed_file_matches_the_declaration(name):
    declared = SWEEPS[name]
    assert tuple(axis.key for axis in declared.axes) == HISTORICAL_AXIS_KEYS[name]
    document = json.loads((sweep.REPO_ROOT / declared.output).read_text(encoding="utf-8"))
    assert (document["benchmark"], document["clock"]) == (name, declared.clock)
    assert document["config"] == declared.config
    for axis in declared.axes:
        assert 0 < len(axis.smoke) < len(axis.full)
        assert axis.full[: len(axis.smoke)] == axis.smoke
        assert document[axis.key] == list(axis.full)
        assert sorted(document[axis.section]) == sorted(str(value) for value in axis.full)


def test_only_the_harness_touches_environment_and_files():
    for path in sorted(Path(sweep.__file__).parent.glob("bench_*.py")):
        found = re.findall(r"os\.environ|write_text|local\.json", path.read_text(encoding="utf-8"))
        assert not found, f"{path.name}: {found}"


def test_smoke_run_writes_nothing_and_names_a_moved_value(tmp_path, monkeypatch):
    monkeypatch.setenv("BENCH_SMOKE", "1")
    copy = Path(shutil.copy(COMMITTED, tmp_path))
    run = sweep.run(ADVERSARY, root=tmp_path)
    assert not run.full
    assert tuple(run.rows["trajectory"]) == ADVERSARY.axes[0].smoke
    assert copy.read_bytes() == COMMITTED.read_bytes()
    assert list(tmp_path.iterdir()) == [copy]

    document = json.loads(copy.read_text(encoding="utf-8"))
    regenerated = document["trajectory"]["0.125"]["convergence_ms"]
    document["trajectory"]["0.125"]["convergence_ms"] = regenerated + 1.0
    copy.write_text(json.dumps(document), encoding="utf-8")
    with pytest.raises(AssertionError) as failure:
        sweep.run(ADVERSARY, root=tmp_path)
    assert str(failure.value) == (
        "BENCH_adversary.json: fractions=0.125: convergence_ms: "
        f"committed {regenerated + 1.0!r} != regenerated {regenerated!r}"
    )


def test_full_run_rewrites_the_file_with_clock_stamp_and_axis_key(tmp_path, monkeypatch):
    monkeypatch.delenv("BENCH_SMOKE", raising=False)
    assert sweep.run(ADVERSARY, root=tmp_path).full
    written = (tmp_path / ADVERSARY.output).read_text(encoding="utf-8")
    assert json.loads(written)["clock"] == "virtual"
    assert json.loads(written)["fractions"] == list(ADVERSARY.axes[0].full)
    # ... and at this commit a full run leaves ``git diff`` empty.
    assert written == COMMITTED.read_text(encoding="utf-8")


@pytest.mark.parametrize("clock", ["wall", "logical"])
def test_smoke_compares_keys_on_the_wall_clock_and_values_on_the_others(clock, tmp_path, monkeypatch):
    def stub(key, readings):
        axis = sweep.Axis("sizes", "trajectory", (1, 2), (1,), lambda size: {key: next(readings)})
        return sweep.Sweep("bench_stub", "BENCH_stub.json", clock, {}, (axis,))

    sweep.run(stub("op_us", iter([1.0, 2.0])), root=tmp_path)
    monkeypatch.setenv("BENCH_SMOKE", "1")
    if clock == "wall":
        sweep.run(stub("op_us", iter([3.0])), root=tmp_path)  # against a committed 1.0
    else:
        with pytest.raises(AssertionError, match=r"BENCH_stub.json: sizes=1: op_us: committed 1.0 != regenerated 3.0"):
            sweep.run(stub("op_us", iter([3.0])), root=tmp_path)
    with pytest.raises(AssertionError, match=r"BENCH_stub.json: sizes=1: keys differ: \['op_ns', 'op_us'\]"):
        sweep.run(stub("op_ns", iter([1.0])), root=tmp_path)
