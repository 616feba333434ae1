"""Network substrate: anchor nodes, clients, transport, gossip, simulator.

Replaces the paper's CORBA client–server prototype with an in-process
simulation.  The stack runs
on a deterministic discrete-event kernel (:mod:`repro.network.kernel`):
latency decides *when* messages arrive, faults (partitions, outages, seeded
loss) are scheduled events, and the named-scenario catalogue
(:mod:`repro.network.scenarios`) packages reproducible fault experiments.
``docs/ARCHITECTURE.md`` walks through the whole layer.

Protocol surface
----------------
All traffic is :class:`~repro.network.message.Message` objects; the
authoritative message-kind taxonomy (sender, receiver, payload schema and
reply kind for every :class:`~repro.network.message.MessageKind`) lives in
the :mod:`repro.network.message` module docstring.  The kinds group into
five families:

* **client requests** — ``SUBMIT_ENTRY``, ``SUBMIT_DELETION``,
  ``IDLE_TICK``, ``FIND_ENTRY``, ``QUERY_STATISTICS``;
* **replication** — ``BLOCK_ANNOUNCE`` (direct or gossip-hopped),
  ``SUMMARY_HASH`` (Section IV-B synchronisation check);
* **replica synchronisation** (:mod:`repro.sync`) — ``SYNC_REQUEST``
  incremental catch-up, ``SYNC_DIGEST`` anti-entropy beacons,
  ``SNAPSHOT_REQUEST``/``SNAPSHOT_CHUNK`` wire snapshot bootstrap;
* **failover** — ``VOTE_REQUEST``/``VOTE_RESPONSE``, ``PRODUCER_CHANGE``;
* **framing** — ``ACK``, ``ERROR``, ``SYNC_RESPONSE``.
"""

from repro.network.gossip import GossipOverlay, GossipTopology
from repro.network.kernel import EventHandle, EventKernel, KernelError
from repro.network.message import Message, MessageKind
from repro.network.node import (
    AnchorNode,
    CatchUpResult,
    CatchUpStatus,
    ClientNode,
    SyncReport,
)
from repro.network.scenarios import (
    Scenario,
    ScenarioError,
    run_scenario,
    scenario_catalogue,
    scenario_names,
)
from repro.network.simulator import NetworkSimulator, SimulationReport
from repro.network.transport import (
    GeoLatencyModel,
    InMemoryTransport,
    LatencyModel,
    TransportError,
    TransportStatistics,
    run_process,
    spawn,
)

__all__ = [
    "GossipOverlay",
    "GossipTopology",
    "EventHandle",
    "EventKernel",
    "KernelError",
    "Message",
    "MessageKind",
    "AnchorNode",
    "CatchUpResult",
    "CatchUpStatus",
    "ClientNode",
    "SyncReport",
    "Scenario",
    "ScenarioError",
    "run_scenario",
    "scenario_catalogue",
    "scenario_names",
    "NetworkSimulator",
    "SimulationReport",
    "GeoLatencyModel",
    "InMemoryTransport",
    "LatencyModel",
    "TransportError",
    "TransportStatistics",
    "run_process",
    "spawn",
]
