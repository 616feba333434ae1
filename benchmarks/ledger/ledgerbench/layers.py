"""Self-time attribution: one profiled repetition, bucketed by layer.

The harness runs a repetition under :mod:`cProfile` and charges every
function's self time (``tottime``) to the layer that owns its file under
``src/repro``.  Frames outside ``repro`` (``json``, ``hashlib``, ``heapq``,
builtins) are charged to the nearest ``repro`` caller, by walking the
profiler's caller edges and splitting proportionally to the self time each
edge recorded.  The harness's own frames go to ``bench``; so does anything
without a caller.  The shares therefore sum to the profiler's total.

cProfile taxes every Python call but not work inside native code, which
shifts the proportions towards call-heavy layers; the numbers locate
candidates, the untraced runs measure them.
"""

from __future__ import annotations

import cProfile
import os
import pstats
from typing import Any, Callable, Optional

import repro

from ledgerbench.declarations import LAYERS

# Compared against the profiler's ``co_filename``, so left as imported.
_REPRO_ROOT = os.path.dirname(repro.__file__) + os.sep
_BENCH_ROOT = os.path.dirname(os.path.dirname(__file__)) + os.sep

#: ``package/module.py`` -> layer, for files that own a layer by themselves.
_MODULE_LAYERS = {
    "crypto/hashing.py": "crypto.hashing",
    "crypto/ecdsa.py": "crypto.ecdsa",
    "crypto/merkle.py": "crypto.merkle",
    "core/block.py": "core.block",
    "core/entry.py": "core.entry",
    "core/index.py": "core.index",
    "core/summarizer.py": "core.summarizer",
    "core/chain.py": "core.chain",
    "core/validation.py": "core.validation",
    "core/events.py": "core.events",
    "storage/wal.py": "storage.wal",
    "storage/snapshot.py": "storage.snapshot",
    "storage/memstore.py": "storage.memstore",
    "service/client.py": "service.client",
    "service/remote.py": "service.remote",
    "service/sharding.py": "service.sharding",
    "network/kernel.py": "network.kernel",
    "network/transport.py": "network.transport",
    # The wire format belongs to the layer that carries it.
    "network/message.py": "network.transport",
    "network/rpc.py": "network.transport",
    "network/node.py": "network.node",
    "network/gossip.py": "network.gossip",
    "network/simulator.py": "network.simulator",
    "network/scenarios.py": "network.simulator",
    "sync/bootstrap.py": "sync.bootstrap",
    "sync/antientropy.py": "sync.antientropy",
    "workloads/fleet.py": "workloads.fleet",
    "workloads/driver.py": "workloads.driver",
}

#: package -> layer for the package's remaining files.
_PACKAGE_LAYERS = {
    "crypto": "crypto.other",
    "core": "core.other",
    "consensus": "consensus",
    "workloads": "workloads.generators",
    "adversary": "adversary",
    "authz": "authz",
}

Function = tuple[str, int, str]


def layer_of(filename: str) -> Optional[str]:
    """The layer owning ``filename``; ``None`` for frames outside the repo."""
    if filename.startswith(_BENCH_ROOT):
        return "bench"
    if not filename.startswith(_REPRO_ROOT):
        return None
    relative = filename[len(_REPRO_ROOT):]
    return _MODULE_LAYERS.get(relative) or _PACKAGE_LAYERS.get(relative.split("/")[0], "other")


def profile_call(action: Callable[[], Any]) -> tuple[Any, pstats.Stats]:
    """Run ``action`` under cProfile; return its result and the statistics."""
    profiler = cProfile.Profile()
    result = profiler.runcall(action)
    return result, pstats.Stats(profiler)


def self_seconds(stats: pstats.Stats) -> dict[str, float]:
    """Self time per layer; the values sum to ``stats.total_tt``."""
    table: dict[Function, tuple] = stats.stats  # type: ignore[attr-defined]
    shares: dict[Function, dict[str, float]] = {}

    def resolve(function: Function, trail: tuple[Function, ...]) -> dict[str, float]:
        own = layer_of(function[0])
        if own is not None:
            return {own: 1.0}
        if function in shares:
            return shares[function]
        callers = {
            caller: edge
            for caller, edge in table[function][4].items()
            if caller != function and caller not in trail and caller in table
        }
        # Edge self time is the honest weight; frames too quick to register
        # any fall back to the edge's call count.
        weights = {caller: edge[2] for caller, edge in callers.items()}
        if not any(weights.values()):
            weights = {caller: float(edge[1]) for caller, edge in callers.items()}
        total = sum(weights.values())
        split: dict[str, float] = {}
        if total <= 0:
            split["bench"] = 1.0
        else:
            for caller in sorted(weights):
                for layer, share in resolve(caller, trail + (function,)).items():
                    split[layer] = split.get(layer, 0.0) + share * weights[caller] / total
        shares[function] = split
        return split

    seconds = {layer: 0.0 for layer in LAYERS}
    for function in sorted(table):
        self_time = table[function][2]
        for layer, share in resolve(function, ()).items():
            seconds[layer] += self_time * share
    return seconds


def calls_named(stats: pstats.Stats, module: str, function: str) -> int:
    """Calls of every function called ``function`` in ``repro/<module>``.

    Looked up by name, not by attribute, so a renamed function reads as a
    count of 0 in the next comparison instead of breaking the benchmark.
    """
    filename = _REPRO_ROOT + module
    return int(
        sum(
            entry[1]
            for (path, _line, name), entry in stats.stats.items()  # type: ignore[attr-defined]
            if path == filename and name == function
        )
    )


def builtin_calls(stats: pstats.Stats, fragment: str) -> int:
    """Calls of every builtin whose profiler name contains ``fragment``."""
    return int(
        sum(
            entry[1]
            for (filename, _line, name), entry in stats.stats.items()  # type: ignore[attr-defined]
            if filename == "~" and fragment in name
        )
    )
