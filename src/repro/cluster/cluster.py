"""Cluster assembly and the controller-facing API.

:class:`Cluster` turns an :class:`~repro.services.taskgraph.AppSpec` into
a running system: nodes with core budgets, one container + runtime +
service instance per service, caller-side connection pools per edge, and
a network with the client attached as an external endpoint.

Controllers interact with the cluster in two ways:

* **Global view** (used by the centralized-ish baselines Parties and
  CaladanAlgo, which the paper runs per node but which in practice treat
  containers independently anyway): :meth:`Cluster.set_cores`,
  :meth:`Cluster.set_frequency`, :attr:`Cluster.runtimes`.
* **Per-node local view** (:class:`NodeView`) — the *only* interface the
  SurgeGuard implementation receives.  A NodeView exposes exactly what a
  per-node daemon could know: the containers placed on that node, their
  runtimes, the node's free cores, and the same-node downstream-map
  derived from static task-graph knowledge shipped in the config file
  (the artifact's ``controllers/sample_config``).  Tests assert that
  SurgeGuard never touches remote containers through it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.cluster.container import Container
from repro.cluster.energy import EnergyModel
from repro.cluster.frequency import DvfsModel
from repro.cluster.invocation import ServiceInstance
from repro.cluster.loadbalancer import (
    DOWN,
    DRAINING,
    LB_POLICIES,
    READY,
    WARMING,
    Replica,
    ReplicaSet,
    make_policy,
    replica_name,
)
from repro.cluster.network import Network, NetworkConfig
from repro.cluster.node import Node
from repro.cluster.packet import REQUEST, RpcPacket
from repro.cluster.placement import (
    by_depth,
    expand_depths,
    expand_replicas,
    pack_first,
    round_robin,
)
from repro.cluster.runtime import ContainerRuntime
from repro.cluster.threadpool import ConnectionPool
from repro.services.taskgraph import AppSpec

__all__ = ["Cluster", "ClusterConfig", "NodeView"]

CLIENT = "client"


@dataclass(frozen=True)
class ClusterConfig:
    """Static configuration of a simulated cluster."""

    n_nodes: int = 1
    #: Workload cores per node (the paper's 52; experiments here default
    #: to smaller nodes with proportionally smaller request rates).
    cores_per_node: float = 16.0
    dvfs: DvfsModel = field(default_factory=DvfsModel)
    network: NetworkConfig = field(default_factory=NetworkConfig)
    #: ``"pack"``, ``"round_robin"``, or ``"by_depth"`` (see placement module).
    placement: str = "round_robin"
    #: Initial per-container frequency; ``None`` = DVFS floor (paper: 1.6 GHz).
    initial_frequency: Optional[float] = None
    #: Connection-establishment latency for connection-per-request edges.
    conn_setup_latency: float = 20e-6
    #: Keep per-request traces in runtimes (figures/tests only).
    trace_runtimes: bool = False
    #: Record (t, container, value) allocation/frequency change events
    #: (Fig. 14 timelines).
    record_timelines: bool = False
    #: ``None`` = legacy unreplicated routing (no LB tier at all).  An
    #: int ``>= 1`` arms the replica tier with that many initial replicas
    #: per service; ``replicas=1`` is the bit-identical pass-through seam.
    replicas: Optional[int] = None
    #: Load-balancing policy for the replica tier (see
    #: :mod:`repro.cluster.loadbalancer`).
    lb_policy: str = "round_robin"

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise ValueError("n_nodes must be >= 1")
        if self.cores_per_node <= 0:
            raise ValueError("cores_per_node must be positive")
        if self.placement not in ("pack", "round_robin", "by_depth"):
            raise ValueError(f"unknown placement {self.placement!r}")
        if self.replicas is not None and self.replicas < 1:
            raise ValueError("replicas must be >= 1 when set")
        if self.lb_policy not in LB_POLICIES:
            raise ValueError(f"unknown lb_policy {self.lb_policy!r}")


class NodeView:
    """The strictly-local view a per-node SurgeGuard daemon gets.

    All mutation goes through the hosting node's budget checks; all
    reads are limited to containers placed on this node.
    """

    def __init__(self, cluster: "Cluster", node: Node):
        self._cluster = cluster
        self.node = node

    @property
    def container_names(self) -> List[str]:
        """Containers on this node."""
        return list(self.node.containers)

    @property
    def free_cores(self) -> float:
        """This node's unallocated cores."""
        return self.node.free_cores

    def container(self, name: str) -> Container:
        """Local container lookup; raises ``KeyError`` for remote names."""
        return self.node.containers[name]

    def runtime(self, name: str) -> ContainerRuntime:
        """Runtime of a local container; raises ``KeyError`` otherwise."""
        if name not in self.node.containers:
            raise KeyError(f"{name!r} is not on node {self.node.name!r}")
        return self._cluster.runtimes[name]

    def local_downstream(self, name: str) -> List[str]:
        """Downstream containers of ``name`` that live on *this* node.

        Task-graph adjacency is static configuration (shipped in the
        artifact's config files), so knowing it does not violate
        decentralization; the filter to same-node containers does the
        rest.  ``name`` may be a replica endpoint; downstream services
        expand to their same-node replicas (child order, then replica
        index — the identity ordering at replicas=1).
        """
        cl = self._cluster
        containers = self.node.containers
        out = []
        for d in cl.app.downstream_of(cl.service_of(name)):
            for rep in cl.replicas_of(d):
                if rep in containers:
                    out.append(rep)
        return out

    def set_cores(self, name: str, cores: float) -> None:
        """Adjust a *local* container's allocation (budget-checked)."""
        if name not in self.node.containers:
            raise KeyError(f"{name!r} is not on node {self.node.name!r}")
        self._cluster.set_cores(name, cores)

    def set_frequency(self, name: str, frequency: float) -> None:
        """Adjust a *local* container's frequency."""
        if name not in self.node.containers:
            raise KeyError(f"{name!r} is not on node {self.node.name!r}")
        self._cluster.set_frequency(name, frequency)

    def add_rx_hook(self, hook: Callable[[RpcPacket], None], *, cost: float = 0.0) -> None:
        """Attach a FirstResponder-style RX hook on this node."""
        self.node.add_rx_hook(hook, cost=cost)


class Cluster:
    """A deployed application on a set of simulated nodes.

    Parameters
    ----------
    sim:
        The simulator.
    app:
        Application specification.
    config:
        Cluster configuration.
    rng:
        RNG registry; streams ``work.<service>`` and ``network`` are used.
    """

    def __init__(
        self,
        sim: Simulator,
        app: AppSpec,
        config: ClusterConfig,
        rng: RngRegistry,
    ):
        self.sim = sim
        self.app = app
        self.config = config
        self.rng = rng
        self.energy_model = EnergyModel(config.dvfs)

        self.nodes: List[Node] = [
            Node(sim, f"node{i}", config.cores_per_node, config.dvfs)
            for i in range(config.n_nodes)
        ]
        self.network = Network(sim, config.network, rng.stream("network"))

        armed = config.replicas is not None
        n_reps = config.replicas if armed else 1
        # expand_replicas/expand_depths are the identity at n_reps=1, so
        # the unreplicated placement maps are reproduced byte-for-byte.
        names = expand_replicas(app.service_names, n_reps)
        if config.placement == "pack":
            placement = pack_first(names, config.n_nodes)
        elif config.placement == "round_robin":
            placement = round_robin(names, config.n_nodes)
        else:
            placement = by_depth(expand_depths(app.depths(), n_reps), config.n_nodes)
        self.placement: Dict[str, int] = placement

        self.containers: Dict[str, Container] = {}
        self.runtimes: Dict[str, ContainerRuntime] = {}
        self.instances: Dict[str, ServiceInstance] = {}
        self._spec_of = {s.name: s for s in app.services}
        #: Replica endpoint name -> service name (entries only for the
        #: numbered replicas; replica 0 *is* the service).
        self._service_of: Dict[str, str] = {}
        #: ``None`` until replication is armed — the LB tier then holds
        #: one :class:`ReplicaSet` per service.
        self.replica_sets: Optional[Dict[str, ReplicaSet]] = (
            {} if armed else None
        )

        for spec in app.services:
            rset = None
            if armed:
                rset = ReplicaSet(spec.name, make_policy(config.lb_policy))
                self.replica_sets[spec.name] = rset
            for k in range(n_reps):
                rname = replica_name(spec.name, k)
                if k:
                    self._service_of[rname] = spec.name
                node = self.nodes[placement[rname]]
                container, instance = self._deploy(spec, rname, node)
                if armed:
                    rset.add(
                        Replica(rname, spec.name, k, READY, container, instance, node)
                    )
                    self.network.add_virtual(rname, rset)

        self.network.register(CLIENT, None, self._client_rx)

        #: Allocation / frequency change logs for timeline figures.
        self.alloc_events: List[Tuple[float, str, float]] = []
        self.freq_events: List[Tuple[float, str, float]] = []
        if config.record_timelines:
            for name, c in self.containers.items():
                self.alloc_events.append((sim.now, name, c.cores))
                self.freq_events.append((sim.now, name, c.frequency))

        self._views = [NodeView(self, n) for n in self.nodes]
        self._ingress_count = 0
        #: Optional :class:`repro.faults.rpc.RpcCaller` installed by a
        #: fault injector; ``None`` keeps ingress on the direct path.
        self.rpc = None

    # ------------------------------------------------------------ deployment
    def _deploy(self, spec, rname: str, node: Node):
        """Build one replica's container/runtime/pools/instance and
        register its network endpoint.  Replica 0 of an unreplicated (or
        replicas=1) cluster reproduces the legacy construction exactly:
        same names, same ``work.<service>`` RNG stream, same order."""
        sim, config = self.sim, self.config
        container = Container(
            sim, rname, config.dvfs,
            cores=spec.initial_cores, frequency=config.initial_frequency,
        )
        node.add_container(container)
        runtime = ContainerRuntime(sim, rname, trace=config.trace_runtimes)
        pools = {
            e.child: ConnectionPool(
                sim,
                e.pool_size,
                setup_latency=config.conn_setup_latency,
                name=f"{rname}->{e.child}",
            )
            for e in spec.children
        }
        instance = ServiceInstance(
            sim, spec, container, runtime, self.network, pools,
            self.rng.stream(f"work.{rname}"), name=rname,
        )
        self.containers[rname] = container
        self.runtimes[rname] = runtime
        self.instances[rname] = instance
        self.network.register(rname, node, instance.handle_packet)
        return container, instance

    # ----------------------------------------------------------------- views
    @property
    def node_views(self) -> List[NodeView]:
        """One local view per node — SurgeGuard's only interface."""
        return list(self._views)

    def node_of(self, container_name: str) -> Node:
        """The node hosting ``container_name``."""
        return self.nodes[self.placement[container_name]]

    # -------------------------------------------------------------- replicas
    #: Draining replicas are reaped only after this long with zero
    #: in-flight work — generously covers network flight time, so a
    #: packet dispatched just before the drain decision always lands.
    REAP_GRACE = 0.25

    def service_of(self, container_name: str) -> str:
        """The service a container (replica) endpoint belongs to."""
        return self._service_of.get(container_name, container_name)

    def replicas_of(self, service: str) -> List[str]:
        """Replica endpoint names of ``service`` in index order
        (``[service]`` itself when replication is unarmed)."""
        if self.replica_sets is None:
            return [service]
        return [r.name for r in self.replica_sets[service].replicas]

    def _best_node(self, need: float) -> Optional[Node]:
        """Most-free node with room for ``need`` cores (tie: lowest index)."""
        best = max(
            range(len(self.nodes)),
            key=lambda i: (self.nodes[i].free_cores, -i),
        )
        node = self.nodes[best]
        return node if node.free_cores + 1e-9 >= need else None

    def _schedule_ready(self, replica: Replica, delay: float) -> None:
        if delay <= 0.0:
            replica.state = READY
            replica.ready_at = self.sim.now
            return

        def _ready() -> None:
            if replica.state == WARMING:
                replica.state = READY
                replica.ready_at = self.sim.now

        self.sim.schedule(delay, _ready)

    def scale_out(self, service: str, ready_delay: float = 0.0) -> Optional[str]:
        """Add one replica of ``service``; returns its endpoint name.

        Preference order: un-drain a DRAINING replica (still warm — no
        spin-up), revive a reaped slot, else launch a fresh replica.
        New and revived replicas spend ``ready_delay`` WARMING — holding
        their cores but receiving no traffic (the spin-up cost the paper
        charges horizontal scaling with).  Returns ``None`` when no node
        can fit the replica's initial cores.
        """
        if self.replica_sets is None:
            raise RuntimeError("scale_out requires a replica-armed cluster")
        rset = self.replica_sets[service]
        for r in rset.replicas:
            if r.state == DRAINING:
                r.state = READY
                r.draining_since = -1.0
                return r.name
        for r in rset.replicas:
            if r.state == DOWN:
                return self._revive(r, ready_delay)
        return self._launch(service, ready_delay)

    def _launch(self, service: str, ready_delay: float) -> Optional[str]:
        spec = self._spec_of[service]
        node = self._best_node(spec.initial_cores)
        if node is None:
            return None
        rset = self.replica_sets[service]
        idx = len(rset.replicas)
        rname = replica_name(service, idx)
        self.placement[rname] = self.nodes.index(node)
        self._service_of[rname] = service
        container, instance = self._deploy(spec, rname, node)
        replica = Replica(rname, service, idx, WARMING, container, instance, node)
        rset.add(replica)
        self.network.add_virtual(rname, rset)
        if self.config.record_timelines:
            self.alloc_events.append((self.sim.now, rname, container.cores))
            self.freq_events.append((self.sim.now, rname, container.frequency))
        self._schedule_ready(replica, ready_delay)
        return rname

    def _revive(self, r: Replica, ready_delay: float) -> Optional[str]:
        spec = self._spec_of[r.service]
        node = self._best_node(spec.initial_cores)
        if node is None:
            return None
        r.container.set_cores(spec.initial_cores)  # fresh-pod allocation
        r.container.recommission()
        node.add_container(r.container)
        r.node = node
        self.placement[r.name] = self.nodes.index(node)
        r.instance.restart()
        r.state = WARMING
        if self.config.record_timelines:
            self.alloc_events.append((self.sim.now, r.name, r.container.cores))
        self._schedule_ready(r, ready_delay)
        return r.name

    def scale_in(self, service: str) -> Optional[str]:
        """Start draining the highest-index READY replica of ``service``.

        Replica 0 (the service-named endpoint) is never drained — it is
        the determinism anchor and the minimum deployment.  Returns the
        draining replica's name, or ``None`` if nothing is eligible.
        """
        if self.replica_sets is None:
            raise RuntimeError("scale_in requires a replica-armed cluster")
        rset = self.replica_sets[service]
        pick = None
        for r in rset.replicas:
            if r.state == READY and r.idx > 0:
                if pick is None or r.idx > pick.idx:
                    pick = r
        if pick is None:
            return None
        pick.state = DRAINING
        pick.draining_since = self.sim.now
        return pick.name

    def reap_draining(self, grace: Optional[float] = None) -> int:
        """Decommission idle DRAINING replicas past the grace period.

        Their cores return to the node budget and their accounting
        integrals freeze; the endpoint registration survives so a later
        scale-out can revive the slot.  Returns the number reaped.
        """
        if self.replica_sets is None:
            return 0
        g = self.REAP_GRACE if grace is None else grace
        now = self.sim.now
        reaped = 0
        for rset in self.replica_sets.values():
            for r in rset.replicas:
                if (
                    r.state == DRAINING
                    and r.instance.inflight == 0
                    and now - r.draining_since >= g
                ):
                    r.node.remove_container(r.name)
                    r.container.decommission()
                    r.instance.shutdown()
                    r.state = DOWN
                    r.node = None
                    if self.config.record_timelines:
                        self.alloc_events.append((now, r.name, 0.0))
                    reaped += 1
        return reaped

    # ------------------------------------------------------------- controller
    def set_cores(self, name: str, cores: float) -> None:
        """Set a container's core allocation (node budget enforced)."""
        self.node_of(name).set_cores(name, cores)
        if self.config.record_timelines:
            self.alloc_events.append((self.sim.now, name, cores))

    def set_frequency(self, name: str, frequency: float) -> None:
        """Set a container's DVFS level."""
        before = self.containers[name].frequency
        self.containers[name].set_frequency(frequency)
        after = self.containers[name].frequency
        if self.config.record_timelines and after != before:
            self.freq_events.append((self.sim.now, name, after))

    # --------------------------------------------------------------- ingress
    def client_send(
        self,
        request_id: int,
        on_response: Callable[[RpcPacket], None],
        *,
        upscale: int = 0,
        on_error: Optional[Callable[[RpcPacket], None]] = None,
    ) -> None:
        """Inject one end-to-end request at the application root.

        ``start_time`` is stamped now — the simulation equivalent of the
        first container setting it, since the client→root hop is part of
        the end-to-end budget either way.

        ``on_error`` fires instead of ``on_response`` when the RPC
        resilience layer is armed and the call exhausts its retries; it
        defaults to ``on_response`` with a synthetic ``error=True``
        response so legacy callers still observe a completion.
        """
        self._ingress_count += 1
        if self.rpc is None:
            # Direct path: the packet's ownership is unambiguous (the
            # serving instance releases it at completion), so it comes
            # from the pool.
            self.network.send(
                self.network.pool.acquire(
                    request_id,
                    REQUEST,
                    CLIENT,
                    self.app.root,
                    self.sim.now,
                    upscale,
                    context=on_response,
                )
            )
            return
        # RPC path: the caller retains the packet across retry attempts
        # while a slow server may still hold the same object (duplicated
        # server work is real and intended), so requests stay unmanaged.
        pkt = RpcPacket(
            request_id=request_id,
            kind=REQUEST,
            src=CLIENT,
            dst=self.app.root,
            start_time=self.sim.now,
            upscale=upscale,
        )
        if on_error is None:
            def on_error(failed: RpcPacket) -> None:
                on_response(failed.make_response(src=self.app.root, error=True))
        self.rpc.call(pkt, on_response, on_error)

    def client_sender(self) -> Callable[[int, Callable[[RpcPacket], None]], None]:
        """Prebound direct-path ingress for per-arrival hot loops.

        Binds the pool, network, root, and clock once so the open-loop
        client's injection path skips the attribute chains and keyword
        plumbing of :meth:`client_send` on every request.  Identical
        observable behavior (same acquire/send sequence, same
        ``ingress_count`` accounting); only valid while ``self.rpc`` is
        ``None`` — armed-fault runs must keep calling
        :meth:`client_send`, which callers check per injection exactly as
        before.
        """
        acquire = self.network.pool.acquire
        send = self.network.send
        root = self.app.root
        sim = self.sim

        def sender(
            request_id: int, on_response: Callable[[RpcPacket], None]
        ) -> None:
            self._ingress_count += 1
            send(
                acquire(
                    request_id,
                    REQUEST,
                    CLIENT,
                    root,
                    sim.now,
                    0,
                    context=on_response,
                )
            )

        return sender

    @staticmethod
    def _client_rx(pkt: RpcPacket) -> None:
        if pkt.context is None:  # pragma: no cover - wiring bug guard
            raise RuntimeError("client response without completion context")
        pkt.context(pkt)

    @property
    def ingress_count(self) -> int:
        """End-to-end requests injected via :meth:`client_send` so far."""
        return self._ingress_count

    # ------------------------------------------------------------ accounting
    def allocations(self) -> Dict[str, float]:
        """Instantaneous {container: allocated cores} snapshot.

        Reaped (decommissioned) replicas report 0.0 — their cores are
        back in the node budget, and the fingerprint should say so.
        """
        return {
            name: 0.0 if c.decommissioned else c.cores
            for name, c in self.containers.items()
        }

    def frequencies(self) -> Dict[str, float]:
        """Instantaneous {container: frequency in Hz} snapshot."""
        return {name: c.frequency for name, c in self.containers.items()}

    def sync_all(self) -> None:
        """Flush all containers' lazy accounting up to the current time."""
        for c in self.containers.values():
            c.sync()

    def total_energy(self) -> float:
        """Idle-subtracted application energy in joules (syncs first)."""
        self.sync_all()
        return self.energy_model.total_energy(self.containers.values())

    def average_cores(self, elapsed: float) -> float:
        """Time-averaged total allocated cores over ``elapsed`` seconds."""
        if elapsed <= 0:
            raise ValueError("elapsed must be positive")
        self.sync_all()
        return sum(c.alloc_core_seconds for c in self.containers.values()) / elapsed

    @property
    def total_allocated(self) -> float:
        """Instantaneous total allocated cores across all nodes."""
        return sum(n.allocated for n in self.nodes)
