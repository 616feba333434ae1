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

The class itself is a thin deployment driver: it wires chains, nodes,
clients, an :class:`~repro.network.kernel.EventKernel` and (optionally) a
:class:`~repro.network.gossip.GossipOverlay` together, offers fault
injection (immediate or scheduled on the virtual clock) and collects the
:class:`SimulationReport`.  The *scenario catalogue* — named, seeded,
reproducible runs such as partition-and-heal or failover-storm — lives in
:mod:`repro.network.scenarios` and drives this class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Optional, Sequence

if TYPE_CHECKING:  # pragma: no cover - service imports network, not vice versa
    from repro.adversary.base import AdversaryActor
    from repro.service.client import LedgerClient
    from repro.service.remote import RemoteLedgerClient
    from repro.sync.antientropy import AntiEntropyService
    from repro.workloads.base import Workload
    from repro.workloads.fleet import FleetArrival, FleetDriver, FleetPolicy

from repro.consensus.quorum import Quorum
from repro.core.chain import Blockchain, CohesionChecker
from repro.core.clock import SimulationClock
from repro.core.config import ChainConfig
from repro.core.entry import Entry, EntryReference
from repro.core.errors import SynchronisationError
from repro.core.events import EventType
from repro.core.schema import EntrySchema
from repro.network.gossip import GossipOverlay
from repro.network.kernel import EventKernel
from repro.network.message import Message, MessageKind
from repro.network.node import AnchorNode, ClientNode, SyncReport
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
        """Plain-dict view for reports and benchmarks."""
        return {
            "blocks_produced": self.blocks_produced,
            "entries_submitted": self.entries_submitted,
            "deletions_submitted": self.deletions_submitted,
            "sync_checks": self.sync_checks,
            "divergences_detected": self.divergences_detected,
            "failovers": self.failovers,
            "empty_blocks": self.empty_blocks,
            "elections": self.elections,
            "transport": dict(self.transport),
            "kernel": dict(self.kernel),
            "anti_entropy": dict(self.anti_entropy),
            "workloads": dict(self.workloads),
            "adversary": dict(self.adversary),
            "final_chain_statistics": dict(self.final_chain_statistics),
        }


class NetworkSimulator:
    """Builds and drives a deployment of anchor nodes and clients.

    Message delivery is always scheduled on the transport's kernel, and
    faults can be booked ahead via :meth:`schedule_partition` /
    :meth:`schedule_heal` / :meth:`schedule_offline`.  With a caller's
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
            node = AnchorNode(
                anchor_id,
                chain,
                self.transport,
                is_producer=(anchor_id == self.producer_id),
                producer_id=self.producer_id,
                gossip=gossip,
            )
            self.anchors[anchor_id] = node
        for node in self.anchors.values():
            node.connect(self.anchor_ids)

        self.clients: dict[str, ClientNode] = {}
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

    def add_client(self, client_id: str) -> ClientNode:
        """Register a new light client."""
        client = ClientNode(client_id, self.transport, scheme_name=self.config.signature_scheme)
        self.clients[client_id] = client
        return client

    def ledger_client(self, anchor_id: Optional[str] = None) -> "RemoteLedgerClient":
        """A :class:`~repro.service.remote.RemoteLedgerClient` for this
        deployment, bound to ``anchor_id`` (default: the producer)."""
        from repro.service.remote import RemoteLedgerClient

        return RemoteLedgerClient(
            self.transport,
            anchor_id or self.producer_id,
            scheme_name=self.config.signature_scheme,
            fallback_anchor_ids=tuple(
                peer for peer in self.anchor_ids if peer != (anchor_id or self.producer_id)
            ),
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
            node.set_producer(self.producer_id)

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
        """Converge every online replica that forked off the producer.

        Divergence detection is the summary-hash comparison of
        Section IV-B; *repair* is the status-quo adoption of Section V-B4: a
        forked replica cannot replay its way back (the honest blocks no
        longer link to its head), so after an incremental catch-up attempt
        the replica adopts the producer's snapshot wholesale.  Returns the
        number of replicas repaired; the count is also surfaced as
        ``report.adversary["defense"]["forks_repaired"]``.
        """
        repaired = 0
        for anchor_id in self.anchor_ids:
            if anchor_id == self.producer_id or self.transport.is_offline(anchor_id):
                continue
            node = self.anchors[anchor_id]
            if node.chain.head.block_hash == self.producer.chain.head.block_hash:
                continue
            # A merely *lagging* replica converges incrementally.
            yield from node.catch_up_process(self.producer_id)
            if node.chain.head.block_hash != self.producer.chain.head.block_hash:
                # A genuine fork: wholesale snapshot adoption.
                yield from node.bootstrap_from_process(self.producer_id)
            if node.chain.head.block_hash == self.producer.chain.head.block_hash:
                repaired += 1
        self._forks_repaired += repaired
        return repaired

    repair_divergent_replicas = blocking(repair_divergent_replicas_process)

    # ------------------------------------------------------------------ #
    # Virtual-time control
    # ------------------------------------------------------------------ #

    def schedule_offline(self, anchor_id: str, at: float) -> None:
        """Book an outage on the virtual clock."""
        self.transport.schedule_offline(anchor_id, at)

    def schedule_online(self, anchor_id: str, at: float) -> None:
        """Book a recovery on the virtual clock (incl. producer refresh)."""
        self.kernel.schedule_at(
            at, lambda: self.bring_online(anchor_id), label=f"online:{anchor_id}"
        )

    def schedule_partition(self, group_a: list[str], group_b: list[str], at: float) -> None:
        """Book a partition on the virtual clock."""
        self.transport.schedule_partition(group_a, group_b, at)

    def schedule_heal(self, at: float) -> None:
        """Book the partition heal on the virtual clock."""
        self.transport.schedule_heal(at)

    # ------------------------------------------------------------------ #
    # Anti-entropy (repro.sync)
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
            transport=self.transport,
            overlay=self.gossip,
            nodes=self.anchors,
            interval_ms=interval_ms,
        )
        self.anti_entropy.start(until=until)
        return self.anti_entropy

    # ------------------------------------------------------------------ #
    # Workload timelines (repro.workloads.fleet)
    # ------------------------------------------------------------------ #

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
        (all bound to the producer), wired to this
        deployment's kernel and the producer chain's event bus.  The caller
        supplies one pre-seeded workload per client — typically built with
        :func:`~repro.workloads.fleet.derive_client_seed` — installs any
        hooks, calls
        :meth:`~repro.workloads.fleet.FleetDriver.schedule`, and advances
        the kernel; :meth:`finalize` folds the fleet statistics (per-client
        and aggregate latency percentiles) into ``report.workloads``.
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
            (
                list(clients)
                if clients is not None
                else [self.ledger_client() for _ in workloads]
            ),
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
        """Promote the most up-to-date reachable replica to block producer.

        The candidate is the online replica with the highest head (ties go
        to the lowest id), then confirmed by a quorum vote carried as
        ``VOTE_REQUEST`` messages over the transport — the ballots travel
        with real delay, so the round's outcome depends on how far each
        replica has caught up when the ballot reaches it.
        Returns the new producer id, or ``None`` when no quorum formed.
        """
        online = [
            anchor_id
            for anchor_id in self.anchor_ids
            if not self.transport.is_offline(anchor_id) and anchor_id not in exclude
        ]
        if not online:
            return None
        candidate = min(online, key=lambda a: (-self.anchors[a].chain.head.block_number, a))
        voters = [peer for peer in online if peer != candidate]
        quorum = Quorum(online)
        proposal_id = f"failover-{self.report.elections}-{candidate}"
        quorum.propose(proposal_id, "producer-failover", {"candidate": candidate})
        votes = {candidate: True}  # the candidate backs itself
        ballot = Message(
            kind=MessageKind.VOTE_REQUEST,
            sender=candidate,
            payload={
                "proposal_id": proposal_id,
                "candidate": candidate,
                "candidate_head": self.anchors[candidate].chain.head.block_number,
            },
        )
        replies = yield [self.transport.request(peer, ballot) for peer in voters]
        for peer, (response, _) in zip(voters, replies):
            if response is None or response.is_error:
                continue
            votes[peer] = bool(response.payload.get("approve", False))
        outcome = quorum.record_votes(proposal_id, votes)
        self.report.elections += 1
        if outcome.state.value != "accepted":
            return None
        self.producer_id = candidate
        self.anchors[candidate].set_producer(candidate)
        notice = Message(
            kind=MessageKind.PRODUCER_CHANGE,
            sender=candidate,
            payload={"producer": candidate},
        )
        yield [self.transport.request(peer, notice) for peer in voters]
        return candidate

    elect_new_producer = blocking(elect_new_producer_process)

    # ------------------------------------------------------------------ #
    # Workload operations
    # ------------------------------------------------------------------ #

    def _submit(
        self, client: ClientNode, anchor_id: Optional[str], build: Callable[[], Message]
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
        self,
        client_id: str,
        target: EntryReference,
        *,
        anchor_id: Optional[str] = None,
        reason: str = "",
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
        report = self.producer.sync_check(raise_on_divergence=False)
        if not report.in_sync:
            self.report.divergences_detected += 1
            if raise_on_divergence:
                raise SynchronisationError(
                    f"summary divergence on peers {report.diverged_peers}"
                )
        return report

    def all_heads(self) -> dict[str, int]:
        """Head block number of every anchor replica."""
        return {anchor_id: node.chain.head.block_number for anchor_id, node in self.anchors.items()}

    def replicas_identical(self) -> bool:
        """True when every online replica has the same head hash."""
        hashes = {
            node.chain.head.block_hash
            for anchor_id, node in self.anchors.items()
            if not self.transport.is_offline(anchor_id)
        }
        return len(hashes) == 1

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
            self.submit_entry(
                client_id,
                {"D": record, "K": client_id, "S": f"sig_{client_id}"},
            )
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
            defense: dict[str, int] = {
                "digests_diverged": 0,
                "rejected_blocks": 0,
                "rejected_blocks_evicted": 0,
                "announcements_evicted": 0,
            }
            for node in self.anchors.values():
                defense["digests_diverged"] += node.sync_stats["digests_diverged"]
                defense["rejected_blocks"] += len(node.rejected_blocks)
                defense["rejected_blocks_evicted"] += node.sync_stats[
                    "rejected_blocks_evicted"
                ]
                defense["announcements_evicted"] += node.sync_stats[
                    "announcements_evicted"
                ]
            defense["deletions_rejected"] = self.producer.chain.registry.rejected_count
            defense["forks_repaired"] = self._forks_repaired
            self.report.adversary = {
                "actors": {
                    actor.actor_id: actor.statistics() for actor in self.adversaries
                },
                "defense": defense,
            }
        self.report.transport = self.transport.statistics.as_dict()
        self.report.final_chain_statistics = self.producer.chain.statistics()
        return self.report
