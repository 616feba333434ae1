"""Network substrate: anchor nodes, transport, gossip, simulator.

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
the :mod:`repro.network.message` module docstring.  An
:class:`~repro.network.node.AnchorNode` serves the request kinds through
four protocols, one module each under :mod:`repro.network.protocols`:
client service, block dissemination, replica sync and producer election.
Light clients (:class:`~repro.service.remote.ClientNode`) live beside the
ledger client that drives them.
"""

from repro.network.gossip import GossipOverlay, GossipTopology
from repro.network.kernel import EventHandle, EventKernel, KernelError
from repro.network.message import Message, MessageKind
from repro.network.node import AnchorNode
from repro.network.protocols.sync import CatchUpResult, CatchUpStatus, SyncReport
from repro.network.scenarios import (
    Scenario,
    ScenarioError,
    run_scenario,
    scenario_catalogue,
    scenario_names,
)
from repro.network.simulator import NetworkSimulator, SimulationReport
from repro.network.transport import (
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
    "SyncReport",
    "Scenario",
    "ScenarioError",
    "run_scenario",
    "scenario_catalogue",
    "scenario_names",
    "NetworkSimulator",
    "SimulationReport",
    "InMemoryTransport",
    "LatencyModel",
    "TransportError",
    "TransportStatistics",
    "run_process",
    "spawn",
]
