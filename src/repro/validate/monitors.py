"""Pluggable runtime invariant monitors.

A monitor observes a live simulation and records
:class:`InvariantViolation` entries whenever a machine-checkable
property of the system is broken.  Monitors are *pure observers*: they
never schedule events, never draw from any RNG stream, and never mutate
cluster state, so an armed run produces bit-identical results to an
unarmed one.

Attachment is strictly opt-in and reversible:

* cluster-level mutators (``set_cores`` / ``set_frequency``) are
  shadowed with instance-attribute wrappers, so the *class* hot paths
  carry zero monitoring cost when no monitor is armed;
* packet-level observation rides the network's existing observer tap;
* Escalator windows are observed through
  :attr:`repro.core.escalator.Escalator.window_hook`.

``disarm()`` removes every wrapper and observer, restoring the exact
pre-arm object graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.cluster.cluster import Cluster
from repro.cluster.loadbalancer import WARMING
from repro.cluster.packet import REQUEST, RESPONSE, RpcPacket
from repro.cluster.tracing import RequestTracer
from repro.sim.engine import Simulator

__all__ = [
    "CoreFeasibilityMonitor",
    "EscalatorSanityMonitor",
    "FaultResilienceMonitor",
    "FrequencyBoundsMonitor",
    "InvariantMonitor",
    "InvariantViolation",
    "MonitorSet",
    "ReplicaConservationMonitor",
    "RequestConservationMonitor",
    "TraceCausalityMonitor",
    "default_monitors",
]

#: Absolute slack for core-budget comparisons (matches Node's own 1e-9
#: grant tolerance plus accumulated float slop over many reallocations).
_CORE_EPS = 1e-6


@dataclass(frozen=True)
class InvariantViolation:
    """One detected invariant breach."""

    #: Simulated time of detection (finalize-time checks use end time).
    time: float
    #: Monitor that raised it.
    monitor: str
    #: Human-readable description with the offending values.
    message: str

    def __str__(self) -> str:  # pragma: no cover - human output
        return f"[t={self.time:.6f}s] {self.monitor}: {self.message}"


class InvariantMonitor:
    """Base class: arm → observe → finalize → disarm.

    Subclasses override :meth:`_arm`, :meth:`_finalize`, and
    :meth:`_disarm`; violations are appended via :meth:`record`.
    """

    name = "abstract"

    def __init__(self) -> None:
        self.violations: List[InvariantViolation] = []
        #: Number of individual invariant evaluations performed (shows a
        #: monitor actually exercised its property, not just stayed idle).
        self.checks = 0
        self._armed = False
        self.sim: Optional[Simulator] = None
        self.cluster: Optional[Cluster] = None
        self.controller = None
        self.client = None

    # ------------------------------------------------------------- lifecycle
    def arm(self, sim: Simulator, cluster: Cluster, *, controller=None, client=None) -> None:
        """Attach to a live simulation (once per monitor instance)."""
        if self._armed:
            raise RuntimeError(f"{self.name} monitor already armed")
        self.sim = sim
        self.cluster = cluster
        self.controller = controller
        self.client = client
        self._armed = True
        self._arm()

    def finalize(self) -> None:
        """Run end-of-run checks (call after the simulation completes)."""
        if not self._armed:
            raise RuntimeError(f"{self.name} monitor finalized before arm")
        self._finalize()

    def disarm(self) -> None:
        """Detach all hooks; idempotent."""
        if self._armed:
            self._disarm()
            self._armed = False

    # ------------------------------------------------------------- recording
    def record(self, message: str, *, time: Optional[float] = None) -> None:
        assert self.sim is not None
        self.violations.append(
            InvariantViolation(
                time=self.sim.now if time is None else time,
                monitor=self.name,
                message=message,
            )
        )

    @property
    def ok(self) -> bool:
        return not self.violations

    # ------------------------------------------------------------ subclasses
    def _arm(self) -> None:
        """Hook: install observers/wrappers."""

    def _finalize(self) -> None:
        """Hook: end-of-run checks."""

    def _disarm(self) -> None:
        """Hook: remove observers/wrappers."""


class RequestConservationMonitor(InvariantMonitor):
    """No request is created or lost: every ``client_send`` is either
    completed (a RESPONSE reached the client), resolved as an error, or
    still in flight when the run stops — and a fully-drained simulation
    has zero in flight.

    Fault-free runs (``cluster.rpc is None``) keep the exact strict
    equalities.  With the RPC resilience layer armed the ledger gains
    principled slack: retransmissions may deliver more client requests
    than were injected (bounded by the retry counter), and loss may
    deliver fewer — but responses can never exceed delivered requests,
    completions can never exceed delivered responses, and a drained run
    must still resolve every injected request (completed or errored).
    """

    name = "request-conservation"

    def __init__(self) -> None:
        super().__init__()
        self.client_requests_seen = 0
        self.client_responses_seen = 0

    def _arm(self) -> None:
        assert self.cluster is not None
        self._observer = self._on_packet
        self.cluster.network.add_observer(self._observer)

    def _on_packet(self, pkt: RpcPacket) -> None:
        # Delivered packets only: requests *entering* the app from the
        # client, and responses *reaching* the client, are the two ends
        # of the conservation ledger.
        if pkt.kind == RESPONSE and pkt.dst == "client":
            self.client_responses_seen += 1
        elif pkt.kind == REQUEST and pkt.src == "client":
            self.client_requests_seen += 1

    def _finalize(self) -> None:
        assert self.cluster is not None and self.sim is not None
        self.checks += 1
        ingress = self.cluster.ingress_count
        rpc = self.cluster.rpc
        if rpc is None:
            if self.client_responses_seen > ingress:
                self.record(
                    f"{self.client_responses_seen} responses reached the client "
                    f"but only {ingress} requests were ever injected"
                )
            if self.client_requests_seen > ingress:
                self.record(
                    f"{self.client_requests_seen} client requests delivered vs "
                    f"{ingress} injected (duplication)"
                )
        else:
            # Retransmissions legitimately duplicate client requests —
            # but never by more than the caller's own retry counter.
            if self.client_requests_seen > ingress + rpc.retries:
                self.record(
                    f"{self.client_requests_seen} client requests delivered vs "
                    f"{ingress} injected + {rpc.retries} retries "
                    f"(unexplained duplication)"
                )
            if self.client_responses_seen > self.client_requests_seen:
                self.record(
                    f"{self.client_responses_seen} responses reached the "
                    f"client but only {self.client_requests_seen} client "
                    f"requests were ever delivered"
                )
        net = self.cluster.network
        if net.packets_delivered > net.packets_sent:
            self.record(
                f"network delivered {net.packets_delivered} packets but "
                f"only {net.packets_sent} were sent"
            )
        stats = getattr(self.client, "stats", None)
        if stats is not None:
            self.checks += 1
            if stats.sent != ingress:
                self.record(
                    f"client reports {stats.sent} sends but cluster ingress "
                    f"counted {ingress}"
                )
            errored = getattr(stats, "errored", 0)
            if rpc is None:
                if errored:
                    self.record(
                        f"client recorded {errored} errored request(s) with "
                        f"no RPC resilience layer armed"
                    )
                if stats.completed != self.client_responses_seen:
                    self.record(
                        f"client reports {stats.completed} completions but "
                        f"{self.client_responses_seen} responses were delivered"
                    )
            else:
                # Duplicate/stale responses are absorbed by the RPC done
                # latch and error responses resolve as errors, so
                # completions can only consume a subset of deliveries.
                if stats.completed + errored > self.client_responses_seen + rpc.errors:
                    self.record(
                        f"client resolved {stats.completed}+{errored} requests "
                        f"but only {self.client_responses_seen} responses were "
                        f"delivered and {rpc.errors} calls errored locally"
                    )
            in_flight = stats.sent - stats.completed - errored
            if in_flight < 0:
                self.record(
                    f"more resolutions ({stats.completed}+{errored}) than "
                    f"sends ({stats.sent})"
                )
            if self.sim.live_events_pending == 0 and in_flight != 0:
                self.record(
                    f"simulation fully drained with {in_flight} request(s) "
                    f"neither completed, errored, nor in flight (lost)"
                )

    def _disarm(self) -> None:
        assert self.cluster is not None
        self.cluster.network.remove_observer(self._observer)


class CoreFeasibilityMonitor(InvariantMonitor):
    """Core allocations stay feasible: every container holds > 0 cores
    and no node's allocation sum ever exceeds its workload budget.

    Checked at arm time, after *every* ``Cluster.set_cores`` call, and
    again at finalize (a full sweep that also catches mutations made
    behind the cluster API's back).
    """

    name = "core-feasibility"

    def _arm(self) -> None:
        assert self.cluster is not None
        self._sweep()
        cluster = self.cluster
        original = cluster.set_cores

        def checked_set_cores(name: str, cores: float) -> None:
            original(name, cores)
            self._check_after_set(name)

        self._original_set_cores = original
        cluster.set_cores = checked_set_cores  # type: ignore[method-assign]

    def _check_after_set(self, name: str) -> None:
        assert self.cluster is not None
        self.checks += 1
        node = self.cluster.node_of(name)
        for err in node.feasibility_problems(_CORE_EPS):
            self.record(err)

    def _sweep(self) -> None:
        assert self.cluster is not None
        for node in self.cluster.nodes:
            self.checks += 1
            for err in node.feasibility_problems(_CORE_EPS):
                self.record(err)

    def _finalize(self) -> None:
        self._sweep()

    def _disarm(self) -> None:
        assert self.cluster is not None
        del self.cluster.set_cores  # restore the class method


class FrequencyBoundsMonitor(InvariantMonitor):
    """Frequencies stay inside the DVFS range and fast-path boosts revert.

    * every ``Cluster.set_frequency`` leaves the container at a level in
      ``[f_min, f_max]``;
    * at finalize, no container still sits at ``f_max`` long after its
      last FirstResponder boost — once the hold window expires and the
      Escalator has had cycles to decay it, a stuck boost is a leak.
    """

    name = "frequency-bounds"

    #: Escalator decision cycles granted for a boost to start decaying
    #: before a still-maxed frequency counts as stuck.
    decay_grace_cycles = 20

    def _arm(self) -> None:
        assert self.cluster is not None
        cluster = self.cluster
        self._sweep()
        original = cluster.set_frequency

        def checked_set_frequency(name: str, frequency: float) -> None:
            original(name, frequency)
            self._check_container(name)

        self._original_set_frequency = original
        cluster.set_frequency = checked_set_frequency  # type: ignore[method-assign]

    def _check_container(self, name: str) -> None:
        assert self.cluster is not None
        self.checks += 1
        c = self.cluster.containers[name]
        dvfs = c.dvfs
        if not dvfs.f_min <= c.frequency <= dvfs.f_max:
            self.record(
                f"container {name!r} at {c.frequency:.3e} Hz outside "
                f"[{dvfs.f_min:.3e}, {dvfs.f_max:.3e}]"
            )

    def _sweep(self) -> None:
        assert self.cluster is not None
        for name in self.cluster.containers:
            self._check_container(name)

    def _finalize(self) -> None:
        assert self.cluster is not None and self.sim is not None
        self._sweep()
        responders = getattr(self.controller, "firstresponders", None)
        if not responders:
            return
        now = self.sim.now
        for fr in responders:
            interval = fr.config.escalator_interval
            grace = fr.hold_window + self.decay_grace_cycles * interval
            for name, t_boost in fr.last_boost_time.items():
                self.checks += 1
                c = self.cluster.containers[name]
                if now - t_boost > grace and c.frequency >= c.dvfs.f_max:
                    self.record(
                        f"container {name!r} still at f_max "
                        f"{now - t_boost:.3f}s after its last boost "
                        f"(hold window {fr.hold_window:.3f}s) — boost "
                        f"never reverted"
                    )

    def _disarm(self) -> None:
        assert self.cluster is not None
        del self.cluster.set_frequency  # restore the class method


class TraceCausalityMonitor(InvariantMonitor):
    """Packet timestamps are causally ordered along every traced request.

    Samples up to ``max_requests`` requests through a
    :class:`~repro.cluster.tracing.RequestTracer` and, at finalize,
    validates each sampled span tree (receive before complete, children
    after parents, non-negative critical-path self-times).
    """

    name = "trace-causality"

    def __init__(self, *, max_requests: int = 200) -> None:
        super().__init__()
        self.max_requests = max_requests
        self._tracer: Optional[RequestTracer] = None

    def _arm(self) -> None:
        assert self.cluster is not None
        self._tracer = RequestTracer(self.cluster, max_requests=self.max_requests)

    def _finalize(self) -> None:
        tracer = self._tracer
        assert tracer is not None
        for request_id in tracer.request_ids():
            self.checks += 1
            for err in tracer.causality_errors(request_id):
                self.record(err)

    def _disarm(self) -> None:
        assert self.cluster is not None
        if self._tracer is not None:
            self.cluster.network.remove_observer(self._tracer._on_packet)
            self._tracer = None


class EscalatorSanityMonitor(InvariantMonitor):
    """SurgeGuard's control signal is well-formed.

    For every runtime window each Escalator collects:
    ``0 <= execMetric <= execTime``, ``queueBuildup >= 1``, and
    non-negative connection waits; after the run, every observed entry
    of the sensitivity EWMA matrix must be finite and positive.

    Arms as a no-op for controllers without Escalators.
    """

    name = "escalator-sanity"

    #: Relative slop on the exec-metric/exec-time comparison (the
    #: runtime clamps conn_wait to exec_time, so only float error can
    #: make the window violate it).
    _REL_EPS = 1e-9

    def _arm(self) -> None:
        self._hooked = []
        escalators = getattr(self.controller, "escalators", None)
        if not escalators:
            return
        for esc in escalators:
            if esc.window_hook is not None:  # pragma: no cover - defensive
                raise RuntimeError("Escalator.window_hook already in use")
            esc.window_hook = self._on_window
            self._hooked.append(esc)

    def _on_window(self, name: str, window) -> None:
        self.checks += 1
        eps = self._REL_EPS * max(window.avg_exec_time, 1e-12)
        if window.count < 0:
            self.record(f"{name!r}: negative window count {window.count}")
        if window.avg_exec_metric < -eps or window.avg_conn_wait < -eps:
            self.record(
                f"{name!r}: negative window metric "
                f"(execMetric={window.avg_exec_metric!r}, "
                f"connWait={window.avg_conn_wait!r})"
            )
        if window.avg_exec_metric > window.avg_exec_time + eps:
            self.record(
                f"{name!r}: execMetric {window.avg_exec_metric!r} exceeds "
                f"execTime {window.avg_exec_time!r}"
            )
        if window.count > 0 and window.queue_buildup < 1.0 - self._REL_EPS:
            self.record(
                f"{name!r}: queueBuildup {window.queue_buildup!r} < 1"
            )

    def _finalize(self) -> None:
        for esc in self._hooked:
            self.checks += 1
            for container, cores, value in esc.sensitivity.nonfinite_entries():
                self.record(
                    f"sensitivity EWMA for {container!r} at {cores} cores "
                    f"is {value!r} (must be finite and positive)"
                )

    def _disarm(self) -> None:
        for esc in self._hooked:
            esc.window_hook = None
        self._hooked = []


class FaultResilienceMonitor(InvariantMonitor):
    """Fault handling is airtight: retries are bounded, timers are
    cleaned up, and crashes orphan nothing.

    Pure finalize-time checks (nothing is hooked), so arming it on a
    fault-free run is free and still proves the no-orphan / ledger
    invariants of the plain path:

    * every service instance's request ledger balances —
      ``started == completed + failed + killed`` once drained, and no
      invocation is still registered live;
    * with the RPC layer armed: observed attempts never exceed
      ``max_retries + 1``, every call resolved exactly once
      (``open_calls == 0`` once drained — a leaked timeout timer or a
      double resolution would break the count), and the error counter
      matches what the policy allows (``errors <= calls``).
    """

    name = "fault-resilience"

    def _finalize(self) -> None:
        assert self.cluster is not None and self.sim is not None
        drained = self.sim.live_events_pending == 0
        for name, inst in self.cluster.instances.items():
            self.checks += 1
            live = len(getattr(inst, "_live", ()))
            if drained and live:
                self.record(
                    f"instance {name!r} drained with {live} invocation(s) "
                    f"still registered live (orphaned in-flight state)"
                )
            started = inst.requests_started
            resolved = (
                inst.requests_completed
                + inst.requests_failed
                + inst.inflight_killed
            )
            if drained and started != resolved:
                self.record(
                    f"instance {name!r}: {started} requests started but "
                    f"{resolved} resolved (completed "
                    f"{inst.requests_completed} + failed "
                    f"{inst.requests_failed} + killed "
                    f"{inst.inflight_killed})"
                )
        rpc = self.cluster.rpc
        if rpc is None:
            return
        self.checks += 1
        allowed = rpc.policy.max_retries + 1
        if rpc.max_attempts_observed > allowed:
            self.record(
                f"a call reached {rpc.max_attempts_observed} attempts; the "
                f"policy allows at most {allowed} (retries unbounded)"
            )
        if drained and rpc.open_calls != 0:
            self.record(
                f"simulation drained with {rpc.open_calls} RPC call(s) "
                f"unresolved (leaked timer or lost resolution)"
            )
        if rpc.errors > rpc.calls:
            self.record(
                f"{rpc.errors} RPC errors recorded for only {rpc.calls} calls"
            )


class ReplicaConservationMonitor(InvariantMonitor):
    """The load-balancer tier's routing ledger balances exactly.

    Pure finalize-time checks against the counters the LB and the
    service instances already keep (nothing is hooked), so the monitor
    is free on every cell, one replica per service included.

    Per :class:`~repro.cluster.loadbalancer.ReplicaSet`:

    * the set's dispatch counter equals the sum over its replicas —
      every routed request was pinned to exactly one replica;
    * no dispatch ever resolved to a non-READY replica (warming and
      reaped replicas receive no traffic, ever);
    * each replica received at most what was dispatched to it
      (``requests_started + requests_dropped_down <= dispatched``), with
      exact equality once the simulation fully drains — a gap on a
      drained run is a packet lost between the LB and the replica;
    * a replica that never reached READY handled zero requests.
    """

    name = "replica-conservation"

    def _finalize(self) -> None:
        assert self.cluster is not None and self.sim is not None
        drained = self.sim.live_events_pending == 0
        for service, rset in self.cluster.replica_sets.items():
            self.checks += 1
            routed = sum(r.dispatched for r in rset.replicas)
            if rset.dispatched != routed:
                self.record(
                    f"service {service!r}: LB dispatched {rset.dispatched} "
                    f"requests but replicas account for {routed}"
                )
            if rset.nonready_dispatches:
                self.record(
                    f"service {service!r}: {rset.nonready_dispatches} "
                    f"dispatch(es) resolved to a non-READY replica"
                )
            for r in rset.replicas:
                self.checks += 1
                inst = r.instance
                received = inst.requests_started + inst.requests_dropped_down
                if received > r.dispatched:
                    self.record(
                        f"replica {r.name!r} received {received} requests "
                        f"but only {r.dispatched} were dispatched to it"
                    )
                elif drained and received != r.dispatched:
                    self.record(
                        f"replica {r.name!r}: {r.dispatched} requests "
                        f"dispatched but only {received} arrived "
                        f"(started {inst.requests_started} + dropped-down "
                        f"{inst.requests_dropped_down}) on a drained run"
                    )
                if r.state == WARMING and r.ready_at < 0 and received:
                    self.record(
                        f"replica {r.name!r} handled {received} request(s) "
                        f"without ever reaching READY"
                    )


def default_monitors() -> List[InvariantMonitor]:
    """One fresh instance of every built-in monitor."""
    return [
        RequestConservationMonitor(),
        CoreFeasibilityMonitor(),
        FrequencyBoundsMonitor(),
        TraceCausalityMonitor(),
        EscalatorSanityMonitor(),
        FaultResilienceMonitor(),
        ReplicaConservationMonitor(),
    ]


class MonitorSet:
    """A group of monitors armed and finalized together.

    >>> monitors = MonitorSet()             # all built-in monitors
    >>> # run_experiment(cfg, monitors=monitors)
    >>> # monitors.ok, monitors.all_violations
    """

    def __init__(self, monitors: Optional[List[InvariantMonitor]] = None):
        self.monitors = default_monitors() if monitors is None else list(monitors)
        self._armed = False
        self._finalized = False

    def arm(self, sim: Simulator, cluster: Cluster, *, controller=None, client=None) -> None:
        if self._armed:
            raise RuntimeError("MonitorSet already armed")
        self._armed = True
        for m in self.monitors:
            m.arm(sim, cluster, controller=controller, client=client)

    def finalize(self) -> None:
        """Run end-of-run checks on every monitor, then disarm them all."""
        if not self._armed:
            raise RuntimeError("MonitorSet finalized before arm")
        if self._finalized:
            raise RuntimeError("MonitorSet already finalized")
        self._finalized = True
        for m in self.monitors:
            m.finalize()
        for m in self.monitors:
            m.disarm()

    @property
    def all_violations(self) -> List[InvariantViolation]:
        return [v for m in self.monitors for v in m.violations]

    @property
    def ok(self) -> bool:
        return not self.all_violations

    @property
    def total_checks(self) -> int:
        return sum(m.checks for m in self.monitors)

    def by_monitor(self) -> Dict[str, int]:
        """{monitor name: violation count} including zero entries."""
        return {m.name: len(m.violations) for m in self.monitors}
