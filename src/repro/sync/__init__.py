"""Replica synchronisation: wire snapshot bootstrap and gossip anti-entropy.

This package closes the replica lifecycle on top of the network stack
(:mod:`repro.network`) and the snapshot format (:mod:`repro.storage.snapshot`):

* :mod:`repro.sync.bootstrap` — a replica whose catch-up gap spans a
  genesis-marker shift pulls a peer's serialised snapshot in bounded,
  digest-verified ``SNAPSHOT_REQUEST``/``SNAPSHOT_CHUNK`` exchanges and
  adopts it wholesale (Section V-B4's "current status quo").
* :mod:`repro.sync.antientropy` — periodic ``SYNC_DIGEST`` rounds on the
  gossip overlay; replicas that learn they are behind pull via incremental
  catch-up or, across a marker shift, the snapshot bootstrap.

The decision logic that picks between the two lives in
:meth:`repro.network.node.AnchorNode.synchronize`.
"""

from repro.sync.antientropy import DEFAULT_INTERVAL_MS, AntiEntropyService
from repro.sync.bootstrap import (
    DEFAULT_CHUNK_SIZE,
    DEFAULT_MAX_RESTARTS,
    DEFAULT_MAX_RETRIES,
    BootstrapError,
    BootstrapReport,
    PeerProbe,
    SnapshotChunkCache,
    SnapshotManifest,
    fetch_snapshot,
    fetch_snapshot_striped,
    rank_bootstrap_peers,
)

__all__ = [
    "AntiEntropyService",
    "DEFAULT_INTERVAL_MS",
    "BootstrapError",
    "BootstrapReport",
    "PeerProbe",
    "SnapshotChunkCache",
    "SnapshotManifest",
    "fetch_snapshot",
    "fetch_snapshot_striped",
    "rank_bootstrap_peers",
    "DEFAULT_CHUNK_SIZE",
    "DEFAULT_MAX_RESTARTS",
    "DEFAULT_MAX_RETRIES",
]
