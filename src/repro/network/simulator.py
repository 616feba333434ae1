"""Multi-node network simulation.

This is the reproduction's substitute for the paper's CORBA client–server
testbed (Section V): a deterministic in-process deployment of several anchor
nodes with full chain replicas, plus light clients that submit login entries
and deletion requests.  The simulator exercises the paper's claims that

* every anchor node computes identical summary blocks without propagating
  them (Section IV-B) — checked after every block via summary-hash
  comparison,
* a diverging node is detected as a fork / synchronisation failure,
* node isolation can be mitigated because clients can fail over to other
  anchor nodes (Section V-B4).

The class is a thin deployment driver: it wires chains, anchor nodes,
clients, the kernel and an optional gossip overlay together, injects faults
and collects the :class:`SimulationReport`.  The anchors' protocols
(:mod:`repro.network.protocols`) hold the election and repair rules it
invokes; the scenario catalogue (:mod:`repro.network.scenarios`) drives it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - service imports network, not vice versa
    from repro.adversary.base import AdversaryActor
    from repro.service.client import LedgerClient
    from repro.service.remote import ClientNode, RemoteLedgerClient
    from repro.sync.antientropy import AntiEntropyService
    from repro.workloads.base import Workload
    from repro.workloads.fleet import FleetArrival, FleetDriver, FleetPolicy

from repro.core.chain import Blockchain, CohesionChecker
from repro.core.clock import SimulationClock
from repro.core.config import ChainConfig
from repro.core.entry import Entry, EntryReference
from repro.core.errors import SynchronisationError
from repro.core.events import EventType
from repro.core.schema import EntrySchema
from repro.network.gossip import GossipOverlay
from repro.network.kernel import EventKernel
from repro.network.message import Message
from repro.network.node import AnchorNode
from repro.network.protocols.election import most_up_to_date
from repro.network.protocols.sync import SyncReport
from repro.network.transport import InMemoryTransport, LatencyModel, Process, blocking


@dataclass
class SimulationReport:
    """Aggregated results of a simulation run."""

    blocks_produced: int = 0
    entries_submitted: int = 0
    deletions_submitted: int = 0
    sync_checks: int = 0
    divergences_detected: int = 0
    failovers: int = 0
    empty_blocks: int = 0
    elections: int = 0
    transport: dict[str, Any] = field(default_factory=dict)
    kernel: dict[str, Any] = field(default_factory=dict)
    anti_entropy: dict[str, Any] = field(default_factory=dict)
    #: Per-workload counters (entries, deletions, virtual-ms deletion
    #: latency), keyed by workload name — filled by :meth:`finalize` for
    #: every driver attached via :meth:`NetworkSimulator.drive_fleet`.
    workloads: dict[str, Any] = field(default_factory=dict)
    #: Adversarial bookkeeping — per-actor attack counters under
    #: ``"actors"``, the quorum's aggregated defence counters under
    #: ``"defense"``.  Empty for deployments without injected adversaries.
    adversary: dict[str, Any] = field(default_factory=dict)
    final_chain_statistics: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict view for reports and benchmarks (each section copied)."""
        view: dict[str, Any] = {}
        for item in fields(self):
            value = getattr(self, item.name)
            view[item.name] = dict(value) if isinstance(value, dict) else value
        return view


class NetworkSimulator:
    """Builds and drives a deployment of anchor nodes and clients.

    Message delivery is always scheduled on the transport's kernel, and
    faults are booked ahead on the transport (``schedule_partition``,
    ``schedule_heal``, ``schedule_offline``); :meth:`schedule_online` also
    tells the recovered node of a producer change.  With a caller's
    ``kernel`` the chains also read a
    :class:`~repro.core.clock.SimulationClock` (idle blocks and
    temporary-entry expiry follow simulated time).  With ``gossip`` sealed
    blocks disseminate hop-by-hop through the overlay instead of a direct
    broadcast.
    """

    def __init__(
        self,
        *,
        anchor_count: int = 3,
        client_ids: Optional[list[str]] = None,
        config: Optional[ChainConfig] = None,
        schema: Optional[EntrySchema] = None,
        latency: Optional[LatencyModel] = None,
        admins: tuple[str, ...] = (),
        kernel: Optional[EventKernel] = None,
        gossip: Optional[GossipOverlay] = None,
        loss_rate: float = 0.0,
        loss_seed: int = 23,
        cohesion_checker: Optional[CohesionChecker] = None,
    ) -> None:
        if anchor_count < 1:
            raise ValueError("at least one anchor node is required")
        self.config = config or ChainConfig.paper_evaluation()
        self.schema = schema
        self.gossip = gossip
        self.transport = InMemoryTransport(
            latency=latency, kernel=kernel, loss_rate=loss_rate, loss_seed=loss_seed
        )
        self.kernel = self.transport.kernel
        self.anti_entropy: Optional["AntiEntropyService"] = None
        self._workload_drivers: list["FleetDriver"] = []
        #: Injected byzantine actors (see :mod:`repro.adversary`); their
        #: attack counters are folded into ``report.adversary``.
        self.adversaries: list["AdversaryActor"] = []
        self._forks_repaired = 0
        self.report = SimulationReport()

        self.anchor_ids = [f"anchor-{index}" for index in range(anchor_count)]
        self.producer_id = self.anchor_ids[0]
        self.anchors: dict[str, AnchorNode] = {}
        for anchor_id in self.anchor_ids:
            chain = Blockchain(
                self.config,
                schema=self.schema,
                admins=list(admins),
                # Only a caller's kernel sets the chain clock: a deployment
                # built without one keeps the paper's logical timestamps.
                clock=SimulationClock(kernel) if kernel is not None else None,
                # One shared checker across all replicas, mirroring how each
                # replica re-evaluates replicated deletion requests against
                # the same semantic-cohesion model (Section IV-D2).
                cohesion_checker=cohesion_checker,
            )
            chain.bus.subscribe(self._count_empty_block, types=(EventType.EMPTY_BLOCK,))
            self.anchors[anchor_id] = AnchorNode(
                anchor_id,
                chain,
                self.transport,
                is_producer=(anchor_id == self.producer_id),
                producer_id=self.producer_id,
                gossip=gossip,
            )
        for node in self.anchors.values():
            node.connect(self.anchor_ids)

        self.clients: dict[str, "ClientNode"] = {}
        for client_id in client_ids or []:
            self.add_client(client_id)

    def _count_empty_block(self, event: Any) -> None:
        self.report.empty_blocks += 1

    # ------------------------------------------------------------------ #
    # Topology management
    # ------------------------------------------------------------------ #

    @property
    def producer(self) -> AnchorNode:
        """The current block-producing anchor node."""
        return self.anchors[self.producer_id]

    def add_client(self, client_id: str) -> "ClientNode":
        """Register a new light client."""
        from repro.service.remote import ClientNode

        client = ClientNode(client_id, self.transport, scheme_name=self.config.signature_scheme)
        self.clients[client_id] = client
        return client

    def ledger_client(self, anchor_id: Optional[str] = None) -> "RemoteLedgerClient":
        """A :class:`~repro.service.remote.RemoteLedgerClient` for this
        deployment, bound to ``anchor_id`` (default: the producer)."""
        from repro.service.remote import RemoteLedgerClient

        bound = anchor_id or self.producer_id
        fallbacks = tuple(peer for peer in self.anchor_ids if peer != bound)
        return RemoteLedgerClient(
            self.transport, bound, scheme_name=self.config.signature_scheme, fallback_anchor_ids=fallbacks
        )

    def take_offline(self, anchor_id: str) -> None:
        """Disconnect an anchor node (crash / isolation fault)."""
        self.transport.set_offline(anchor_id, True)

    def bring_online(self, anchor_id: str) -> None:
        """Reconnect a previously offline anchor node.

        If the producer changed while the node was away, tell it — the same
        notification it would have received had it been reachable.
        """
        self.transport.set_offline(anchor_id, False)
        node = self.anchors[anchor_id]
        if node.producer_id != self.producer_id:
            node.election.set_producer(self.producer_id)

    def schedule_online(self, anchor_id: str, at: float) -> None:
        """Book a recovery on the virtual clock (incl. producer refresh)."""
        self.kernel.schedule_at(at, lambda: self.bring_online(anchor_id), label=f"online:{anchor_id}")

    def corrupt_replica(self, anchor_id: str) -> None:
        """Tamper with one node's replica so its chain state diverges.

        The corrupted node seals a rogue block locally (as a faulty or
        malicious anchor would).  From then on its replica forks: announced
        blocks no longer link, and its summary blocks differ from the honest
        quorum.  The paper warns that such a divergence *"would result in a
        fork in the blockchain and thus split the network"*; this fault lets
        tests and benchmarks observe exactly that detection path.
        """
        chain = self.anchors[anchor_id].chain
        rogue = Entry(data={"D": "corrupted state", "K": "corruptor", "S": "none"}, author="corruptor", signature="x")
        chain._pending.append(rogue)  # bypass signing on purpose: this is a fault injection
        chain.seal_block()

    # ------------------------------------------------------------------ #
    # Adversaries (repro.adversary)
    # ------------------------------------------------------------------ #

    def inject_adversary(self, actor: "AdversaryActor") -> "AdversaryActor":
        """Attach a byzantine actor to this deployment.

        The actor acts through the shared transport on its own schedule; the
        simulator only tracks it so :meth:`finalize` can pair its attack
        counters with the quorum's defence counters under
        ``report.adversary``.
        """
        # repro: allow[REPRO-PERF502] one per injected actor, placed at setup
        self.adversaries.append(actor)
        return actor

    def repair_divergent_replicas_process(self) -> Process:
        """Converge every online replica that forked off the producer (see
        :meth:`~repro.network.protocols.sync.ReplicaSync.repair_from_process`).

        Returns the number of replicas repaired; the count is also surfaced
        as ``report.adversary["defense"]["forks_repaired"]``.
        """
        repaired = 0
        for anchor_id in self.anchor_ids:
            if anchor_id != self.producer_id and not self.transport.is_offline(anchor_id):
                repaired += yield from self.anchors[anchor_id].sync.repair_from_process(self.producer)
        self._forks_repaired += repaired
        return repaired

    repair_divergent_replicas = blocking(repair_divergent_replicas_process)

    # ------------------------------------------------------------------ #
    # Anti-entropy (repro.sync) and workload timelines (repro.workloads.fleet)
    # ------------------------------------------------------------------ #

    def enable_anti_entropy(
        self, *, interval_ms: float = 150.0, until: Optional[float] = None
    ) -> "AntiEntropyService":
        """Book periodic ``SYNC_DIGEST`` rounds on the gossip overlay.

        Requires a gossip overlay.  The service's convergence counters are
        folded into the final report (``report.anti_entropy``); see
        :class:`repro.sync.antientropy.AntiEntropyService`.
        """
        from repro.sync.antientropy import AntiEntropyService

        if self.gossip is None:
            raise ValueError("anti-entropy requires a gossip overlay")
        if self.anti_entropy is not None:
            raise ValueError("anti-entropy is already enabled")
        self.anti_entropy = AntiEntropyService(
            transport=self.transport, overlay=self.gossip, nodes=self.anchors, interval_ms=interval_ms
        )
        self.anti_entropy.start(until=until)
        return self.anti_entropy

    def drive_fleet(
        self,
        workloads: "Sequence[Workload]",
        *,
        mean_gap_ms: float,
        start_at_ms: float = 0.0,
        expiry_ms_per_tick: Optional[float] = None,
        in_flight_budget: int = 8,
        policy: "FleetPolicy | str" = "queue",
        clients: Optional["Sequence[LedgerClient]"] = None,
        lane_of: Optional["Callable[[FleetArrival], int]"] = None,
    ) -> "FleetDriver":
        """Bind a workload fleet to this deployment.

        Builds a :class:`~repro.workloads.fleet.FleetDriver` over one
        :class:`~repro.service.remote.RemoteLedgerClient` per fleet client
        (all bound to the producer), wired to this deployment's kernel and
        the producer chain's event bus.  The caller supplies one pre-seeded
        workload per client (:func:`~repro.workloads.fleet.derive_client_seed`),
        installs any hooks, calls :meth:`~repro.workloads.fleet.FleetDriver.schedule`
        and advances the kernel; :meth:`finalize` folds the fleet statistics
        into ``report.workloads``.
        ``in_flight_budget=0`` runs the closed loop; with one workload its
        report entry is the flat per-workload counter block.

        ``clients`` overrides the per-client ledger clients (a sharded
        deployment passes one shared :class:`~repro.service.sharding.ShardRouter`
        per fleet client), and ``lane_of`` forwards the fleet engine's
        service-lane selector so per-shard round trips overlap.  Every lane
        submits through :meth:`~repro.service.client.LedgerClient.submit_process`.
        """
        from repro.workloads.fleet import FleetDriver

        driver = FleetDriver(
            workloads,
            list(clients) if clients is not None else [self.ledger_client() for _ in workloads],
            mean_gap_ms=mean_gap_ms,
            kernel=self.kernel,
            bus=self.producer.chain.bus,
            start_at_ms=start_at_ms,
            expiry_ms_per_tick=expiry_ms_per_tick,
            in_flight_budget=in_flight_budget,
            policy=policy,
            lane_of=lane_of,
        )
        # repro: allow[REPRO-PERF502] one per fleet driven, registered at setup
        self._workload_drivers.append(driver)
        return driver

    # ------------------------------------------------------------------ #
    # Producer failover (Section V-B4)
    # ------------------------------------------------------------------ #

    def elect_new_producer_process(self, *, exclude: tuple[str, ...] = ()) -> Process:
        """Promote the most up-to-date reachable replica to block producer
        (the rule and the ballot: :mod:`repro.network.protocols.election`).

        Returns the new producer id, or ``None`` when no quorum formed.
        """
        online = [
            anchor_id
            for anchor_id in self.anchor_ids
            if not self.transport.is_offline(anchor_id) and anchor_id not in exclude
        ]
        if not online:
            return None
        candidate = most_up_to_date(self.anchors[anchor_id] for anchor_id in online)
        proposal_id = f"failover-{self.report.elections}-{candidate.node_id}"
        accepted = yield from candidate.election.ballot_process(online, proposal_id)
        self.report.elections += 1
        if not accepted:
            return None
        self.producer_id = candidate.node_id
        yield from candidate.election.take_over_process(online)
        return candidate.node_id

    # ------------------------------------------------------------------ #
    # Workload operations
    # ------------------------------------------------------------------ #

    def _submit(
        self, client: "ClientNode", anchor_id: Optional[str], build: Callable[[], Message]
    ) -> Process:
        """Send ``build()`` to ``anchor_id`` — or, without one, to every
        anchor in turn until one accepts (each failed attempt counted as a
        failover)."""
        response, failed = yield from client.request_process(
            [anchor_id] if anchor_id else list(self.anchor_ids), build
        )
        self.report.failovers += failed
        if not response.is_error:
            self.report.blocks_produced += 1
        return response

    def submit_entry_process(
        self,
        client_id: str,
        data: dict[str, Any],
        *,
        anchor_id: Optional[str] = None,
        expires_at_time: Optional[int] = None,
        expires_at_block: Optional[int] = None,
    ) -> Process:
        """Submit one entry through a client, failing over when needed."""
        client = self.clients[client_id]
        response = yield from self._submit(
            client,
            anchor_id,
            lambda: client.entry_message(
                data, expires_at_time=expires_at_time, expires_at_block=expires_at_block
            ),
        )
        self.report.entries_submitted += 1
        return response

    submit_entry = blocking(submit_entry_process)

    def submit_deletion_process(
        self, client_id: str, target: EntryReference, *, anchor_id: Optional[str] = None, reason: str = ""
    ) -> Process:
        """Submit a deletion request through a client."""
        client = self.clients[client_id]
        response = yield from self._submit(
            client, anchor_id, lambda: client.deletion_message(target, reason=reason)
        )
        self.report.deletions_submitted += 1
        return response

    submit_deletion = blocking(submit_deletion_process)

    # ------------------------------------------------------------------ #
    # Synchronisation
    # ------------------------------------------------------------------ #

    def sync_check(self, *, raise_on_divergence: bool = False) -> SyncReport:
        """Run one summary-hash comparison round from the producer."""
        self.report.sync_checks += 1
        report = self.producer.sync.sync_check(raise_on_divergence=False)
        if not report.in_sync:
            self.report.divergences_detected += 1
            if raise_on_divergence:
                raise SynchronisationError(f"summary divergence on peers {report.diverged_peers}")
        return report

    def all_heads(self) -> dict[str, int]:
        """Head block number of every anchor replica."""
        return {anchor_id: node.chain.head.block_number for anchor_id, node in self.anchors.items()}

    def replicas_identical(self) -> bool:
        """True when every online replica has the same head hash."""
        online = [node for anchor_id, node in self.anchors.items() if not self.transport.is_offline(anchor_id)]
        return len({node.chain.head.block_hash for node in online}) == 1

    # ------------------------------------------------------------------ #
    # Scenario driver
    # ------------------------------------------------------------------ #

    def run_login_scenario(self, logins: list[tuple[str, str]], *, sync_every: int = 1) -> SimulationReport:
        """Replay a list of ``(client_id, record)`` login events.

        Registers unknown clients on the fly, checks synchronisation every
        ``sync_every`` submissions — once the one-way announcements have
        landed, so the kernel must hold no recurring events — and returns
        the final report.
        """
        for index, (client_id, record) in enumerate(logins, start=1):
            if client_id not in self.clients:
                self.add_client(client_id)
            self.submit_entry(client_id, {"D": record, "K": client_id, "S": f"sig_{client_id}"})
            if sync_every and index % sync_every == 0:
                self.kernel.run()
                self.sync_check()
        return self.finalize()

    def finalize(self) -> SimulationReport:
        """Collect final statistics into the report.

        Every in-flight event is drained first, so gossip hops and scheduled
        faults still pending are accounted for.
        """
        if self.anti_entropy is not None:
            # The recurring digest rounds would keep the queue non-empty
            # forever; stop them so the drain below terminates.
            self.anti_entropy.stop()
        self.kernel.run()
        self.report.kernel = self.kernel.statistics()
        if self.anti_entropy is not None:
            self.report.anti_entropy = self.anti_entropy.statistics()
        for driver in self._workload_drivers:
            driver.close()
            # Two drivers of the same workload type must not overwrite each
            # other: disambiguate repeat names deterministically.
            key = driver.workload.name
            suffix = 2
            while key in self.report.workloads:
                key = f"{driver.workload.name}#{suffix}"
                suffix += 1
            self.report.workloads[key] = driver.stats.as_dict()
        if self.adversaries:
            sync = [node.sync for node in self.anchors.values()]
            announce = [node.announce for node in self.anchors.values()]
            defense = {
                "digests_diverged": sum(part.counters["digests_diverged"] for part in sync),
                "rejected_blocks": sum(len(part.rejected_blocks) for part in announce),
                "rejected_blocks_evicted": sum(part.counters["rejected_blocks_evicted"] for part in announce),
                "announcements_evicted": sum(part.counters["announcements_evicted"] for part in announce),
                "deletions_rejected": self.producer.chain.registry.rejected_count,
                "forks_repaired": self._forks_repaired,
            }
            actors = {actor.actor_id: actor.statistics() for actor in self.adversaries}
            self.report.adversary = {"actors": actors, "defense": defense}
        self.report.transport = self.transport.statistics.as_dict()
        self.report.final_chain_statistics = self.producer.chain.statistics()
        return self.report
