"""Profiling + measured-run harness (the artifact's execution recipe).

The paper's §V protocol, scaled:

* the workload generator warms the system up, then measures;
* spikes are injected on a fixed period during measurement;
* per-container targets come from a separate low-load profiling pass
  at :data:`PROFILE_RATE_FRAC` of the base rate (2× measured averages —
  §IV "SurgeGuard Parameters");
* the end-to-end QoS limit (wrk2 ``-qos``) is :data:`QOS_MULTIPLIER` ×
  the profiled low-load end-to-end latency;
* reported: violation volume, P98, average cores and energy over the
  measurement window only.

Profiling runs in its own simulation with no controller attached (the
initial allocation stays put), so the controller under test never sees
profiling traffic — and profiling results are memoized per (workload,
topology) since they are controller-independent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry
from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.loadbalancer import LB_POLICIES
from repro.cluster.network import NetworkConfig
from repro.cluster.placement import PLACEMENTS
from repro.controllers.base import Controller, ControllerStats
from repro.controllers.null import NullController
from repro.controllers.targets import TargetConfig
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
from repro.metrics.summary import LatencySummary, summarize
from repro.services.registry import get_workload, node_budget
from repro.services.taskgraph import AppSpec
from repro.workload.arrivals import RateSchedule
from repro.workload.generator import PACINGS, OpenLoopClient

__all__ = [
    "ExperimentConfig",
    "ExperimentResult",
    "profile_targets",
    "run_experiment",
    "clear_profile_cache",
]

#: QoS limit = this × profiled low-load mean end-to-end latency.
QOS_MULTIPLIER = 2.5
#: Profiling rate as a fraction of base rate ("low load").
PROFILE_RATE_FRAC = 0.25

_POSITIVE = ("finite and positive", lambda v: math.isfinite(v) and v > 0)
_NON_NEGATIVE = ("finite and non-negative", lambda v: math.isfinite(v) and v >= 0)
_FINITE = ("finite", math.isfinite)

#: ``(field, (rule, check), None allowed)`` for the numeric fields of
#: :class:`ExperimentConfig`.
_NUMERIC_RULES = (
    # An empty window would summarize to a VV of 0.0, which reads as a
    # perfect result; negative lengths fail deep inside the run.
    ("duration", _POSITIVE, False),
    ("profile_duration", _POSITIVE, False),
    ("warmup", _NON_NEGATIVE, False),
    ("drain", _NON_NEGATIVE, False),
    # A zero rate leaves the profiling pass no warm completion, and a
    # NaN budget turns the node budget off.
    ("base_rate", _POSITIVE, True),
    ("cores_per_node", _POSITIVE, True),
    # A non-finite period or offset silently injects one surge or none.
    ("spike_magnitude", _NON_NEGATIVE, True),
    ("spike_len", _POSITIVE, False),
    ("spike_period", _POSITIVE, False),
    ("spike_offset", _FINITE, False),
)


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment cell: workload × spike pattern × controller."""

    #: Registry key ("chain", "readUserTimeline", ...).
    workload: str
    #: Builds a *fresh* controller per run.  Prefer a named
    #: :class:`repro.exec.specs.ControllerSpec` (a zero-arg callable
    #: that compares, hashes and prints by value); any other zero-arg
    #: callable works too (tests, one-off oracles with rich arguments).
    controller_factory: Callable[[], Controller] = NullController
    #: Custom application (Fig. 4/5 micro-topologies); overrides
    #: ``workload`` lookup when set, in which case ``base_rate`` is
    #: required.
    app: Optional[AppSpec] = None
    #: Base request rate; ``None`` = the registry's scaled default.
    base_rate: Optional[float] = None
    #: Surge magnitude as a multiple of base rate (``None`` = no spikes).
    spike_magnitude: Optional[float] = 1.75
    #: Surge duration (paper §VI-B default: 2 s; scaled default 1 s).
    spike_len: float = 1.0
    #: Surge period (paper: every 10 s; scaled default 5 s).
    spike_period: float = 5.0
    #: First surge starts this long into the measurement window.
    spike_offset: float = 1.0
    #: Measurement window length (after warmup).
    duration: float = 10.0
    #: Warmup length (controller active, no spikes, not measured).
    warmup: float = 3.0
    n_nodes: int = 1
    #: Per-node workload cores; ``None`` = paper-style budget from the
    #: initial allocation (≈ initial / 0.65).
    cores_per_node: Optional[float] = None
    placement: str = "round_robin"
    seed: int = 1
    #: Low-load profiling pass length (simulated seconds).
    profile_duration: float = 3.0
    pacing: str = "uniform"
    #: Extra simulated time after injection stops, to drain in-flight
    #: requests before reading final metrics.
    drain: float = 2.0
    #: Injected network-latency surges, ``(start, end, extra_seconds)``
    #: triples in absolute simulated time (the abstract's second surge
    #: type).  Applied to the measured run only — profiling stays clean.
    latency_surges: Tuple[Tuple[float, float, float], ...] = ()
    #: Injected faults + RPC resilience policy (see :mod:`repro.faults`).
    #: Applied to the measured run only — profiling stays clean, and the
    #: profile cache key deliberately excludes faults so faulty and
    #: fault-free cells of one workload share a profiling pass.
    faults: Optional[FaultPlan] = None
    #: Initial replicas per service behind the load-balancer tier on
    #: the *measured* run.  Profiling always runs one replica per
    #: service: the per-service targets are replica-independent, and
    #: the profile cache stays shared across replica settings.
    replicas: int = 1
    #: Load-balancing policy of the replica tier.
    lb_policy: str = "round_robin"
    #: Size the node budget to host this many replicas per service.
    replica_capacity: int = 1
    #: Network fabric override (``None`` = default
    #: :class:`~repro.cluster.network.NetworkConfig`).  The multinode
    #: validate family sets ``jitter=0`` here.
    network: Optional[NetworkConfig] = None

    def __post_init__(self) -> None:
        for name, (rule, ok), optional in _NUMERIC_RULES:
            value = getattr(self, name)
            if not (value is None and optional) and not ok(value):
                raise ValueError(f"{name} must be {rule}, got {value!r}")
        if self.spike_len > self.spike_period:
            raise ValueError(
                f"spike_len must be <= spike_period, got "
                f"{self.spike_len!r} > {self.spike_period!r}"
            )
        # A negative seed fails inside numpy, with a message that does
        # not name the field.
        if not (isinstance(self.seed, numbers.Integral) and self.seed >= 0):
            raise ValueError(f"seed must be a non-negative integer, got {self.seed!r}")
        # Topology fields are otherwise read only when the run starts
        # (or, for placement on one node, never).
        for name in ("n_nodes", "replicas", "replica_capacity"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value!r}")
        for name, choices in (
            ("lb_policy", tuple(LB_POLICIES)),
            ("placement", PLACEMENTS),
            ("pacing", PACINGS),
        ):
            value = getattr(self, name)
            if value not in choices:
                raise ValueError(
                    f"{name} must be one of {choices}, got {value!r}"
                )

    def resolved_rate(self) -> float:
        if self.base_rate is not None:
            return self.base_rate
        if self.app is not None:
            raise ValueError("custom app experiments must set base_rate")
        return get_workload(self.workload).base_rate

    def resolved_app(self) -> AppSpec:
        if self.app is not None:
            return self.app
        return get_workload(self.workload).build()


@dataclass
class ExperimentResult:
    """Everything one run reports."""

    config: ExperimentConfig
    controller_name: str
    targets: TargetConfig
    #: Latency summary over requests *arriving* in the measurement window.
    summary: LatencySummary
    #: Time-averaged allocated cores over the measurement window.
    avg_cores: float
    #: Idle-subtracted energy (J) over the measurement window.
    energy: float
    controller_stats: ControllerStats
    #: (arrival_time, latency) of measured completed requests.
    latency_trace: np.ndarray
    #: Allocation events (t, container, cores): initial allocations,
    #: then every change.
    alloc_events: List[Tuple[float, str, float]] = field(default_factory=list)
    #: Frequency events (t, container, Hz): initial levels, then every
    #: change.
    freq_events: List[Tuple[float, str, float]] = field(default_factory=list)
    outstanding: int = 0
    #: FirstResponder packet inspections (SurgeGuard and hybrid runs).
    fast_path_packets: int = 0
    #: FirstResponder slack violations detected (SurgeGuard and hybrid
    #: runs).
    fast_path_violations: int = 0
    #: Requests that completed as errors (always 0 without faults).
    errors: int = 0
    #: Requests injected over the whole run (warmup + measurement).
    requests_sent: int = 0
    #: Injector counter snapshot (``None`` on fault-free runs).
    fault_stats: Optional[Dict[str, int]] = None

    @property
    def violation_volume(self) -> float:
        return self.summary.violation_volume

    @property
    def p98(self) -> float:
        return self.summary.p98

    @property
    def error_rate(self) -> float:
        """Errored fraction of every injected request (whole run)."""
        return self.errors / self.requests_sent if self.requests_sent else 0.0


# --------------------------------------------------------------------------
# Profiling
# --------------------------------------------------------------------------

_PROFILE_CACHE: Dict[tuple, TargetConfig] = {}


def clear_profile_cache() -> None:
    """Drop memoized profiling results (tests use this for isolation)."""
    _PROFILE_CACHE.clear()


def _build_cluster(
    cfg: ExperimentConfig, app: AppSpec, seed: int
) -> Tuple[Simulator, Cluster]:
    cores = cfg.cores_per_node
    if cores is None:
        cores = node_budget(
            app, n_nodes=cfg.n_nodes, replica_capacity=cfg.replica_capacity
        )
    sim = Simulator()
    rng = RngRegistry(seed)
    # The network override is threaded only when set, so the default
    # construction stays byte-for-byte what it always was.
    extra = {} if cfg.network is None else {"network": cfg.network}
    cluster_cfg = ClusterConfig(
        n_nodes=cfg.n_nodes,
        cores_per_node=cores,
        placement=cfg.placement if cfg.n_nodes > 1 else "pack",
        replicas=cfg.replicas,
        lb_policy=cfg.lb_policy,
        **extra,
    )
    return sim, Cluster(sim, app, cluster_cfg, rng)


def profile_targets(cfg: ExperimentConfig) -> TargetConfig:
    """Low-load profiling pass → :class:`TargetConfig` (memoized).

    The cache key covers everything that changes the profiled values:
    workload, topology and rate.
    """
    key = (
        cfg.workload,
        cfg.app,
        cfg.n_nodes,
        cfg.cores_per_node,
        cfg.placement,
        cfg.resolved_rate(),
        cfg.profile_duration,
        # Jitter/latency parameters change the profiled latencies.
        cfg.network,
    )
    cached = _PROFILE_CACHE.get(key)
    if cached is not None:
        return cached

    app = cfg.resolved_app()
    # One replica per service and its budget, whatever the measured run
    # deploys.
    one = replace(cfg, replicas=1, replica_capacity=1)
    sim, cluster = _build_cluster(one, app, seed=0)
    rate = cfg.resolved_rate() * PROFILE_RATE_FRAC
    client = OpenLoopClient(
        sim, cluster, RateSchedule(rate), duration=cfg.profile_duration
    )
    client.begin()
    sim.run(until=cfg.profile_duration + 1.0)

    t, lat = client.stats.completed_arrays()
    warm = lat[t > cfg.profile_duration / 3.0]
    if warm.size == 0:
        # Its mean would be a NaN QoS limit, which no latency violates.
        raise RuntimeError(
            f"profiling produced no completions for {cfg.workload} "
            "after its first third"
        )
    qos = QOS_MULTIPLIER * float(warm.mean())

    # The whole-run averages per container are exactly what the artifact
    # computes ("collect the values for 1–2 mins and average").
    windows = {}
    for name, runtime in cluster.runtimes.items():
        if runtime.total_count == 0:
            raise RuntimeError(f"service {name!r} saw no profiling traffic")
        windows[name] = _lifetime_window(runtime)
    targets = TargetConfig.from_windows(windows, qos_target=qos)
    _PROFILE_CACHE[key] = targets
    return targets


def _lifetime_window(runtime):
    """Aggregate a runtime's lifetime totals into a window-like record."""
    from repro.cluster.runtime import RuntimeWindow

    n = runtime.total_count
    avg_exec = runtime.total_exec_time / n
    avg_wait = runtime.total_conn_wait / n
    avg_metric = runtime.total_exec_metric / n
    return RuntimeWindow(
        t_start=0.0,
        t_end=runtime.sim.now,
        count=n,
        avg_exec_time=avg_exec,
        avg_conn_wait=avg_wait,
        avg_exec_metric=avg_metric,
        queue_buildup=(avg_exec / avg_metric) if avg_metric > 0 else 1.0,
        upscale_hints=0,
        max_hint_ttl=0,
        avg_time_from_start=runtime.total_time_from_start / max(runtime.total_arrivals, 1),
    )


# --------------------------------------------------------------------------
# Measured run
# --------------------------------------------------------------------------


def run_experiment(
    cfg: ExperimentConfig,
    targets: Optional[TargetConfig] = None,
    *,
    monitors=None,
    probe: Optional[Callable[[Simulator, Cluster], None]] = None,
) -> ExperimentResult:
    """Execute one measured run and summarize it.

    ``targets`` may be passed explicitly (ablations that must share one
    profiling pass); otherwise :func:`profile_targets` supplies them.

    ``monitors`` is an optional
    :class:`repro.validate.monitors.MonitorSet`: it is armed on the
    built cluster right before the run starts and finalized after the
    drain, accumulating any invariant violations on itself.  ``None``
    (the default) leaves every hot path untouched.

    ``probe`` is called as ``probe(sim, cluster)`` after the run drains
    (and after monitor finalization) so callers can read end-state that
    the picklable :class:`ExperimentResult` deliberately does not carry
    — the scenario-fingerprint extractor uses this.
    """
    if targets is None:
        targets = profile_targets(cfg)
    app = cfg.resolved_app()
    sim, cluster = _build_cluster(cfg, app, seed=cfg.seed)
    for surge_start, surge_end, surge_extra in cfg.latency_surges:
        cluster.network.add_latency_surge(surge_start, surge_end, surge_extra)

    base_rate = cfg.resolved_rate()
    t_measure = cfg.warmup
    t_end = cfg.warmup + cfg.duration
    if cfg.spike_magnitude is not None:
        schedule = RateSchedule.periodic(
            base_rate,
            magnitude=cfg.spike_magnitude,
            spike_len=cfg.spike_len,
            period=cfg.spike_period,
            first=t_measure + cfg.spike_offset,
            until=t_end,
        )
    else:
        schedule = RateSchedule(base_rate)

    rng = RngRegistry(cfg.seed + 7919)
    client = OpenLoopClient(
        sim,
        cluster,
        schedule,
        duration=t_end,
        pacing=cfg.pacing,
        rng=rng.stream("client") if cfg.pacing == "poisson" else None,
    )

    controller = cfg.controller_factory()
    # A fresh copy with replica-name fallback: the (possibly cached,
    # shared) profiled TargetConfig is never mutated.
    controller.attach(sim, cluster, targets.with_replica_fallback())

    # Arm faults after attach (escalators exist for the restart hook and
    # the declared loops are known) and before monitors (so conservation
    # checks see the RPC layer) and before controller.start (stall gates
    # shadow the loop methods that start() binds).
    injector = None
    if cfg.faults is not None and not cfg.faults.empty:
        injector = FaultInjector(cfg.faults)
        injector.arm(sim, cluster, controller=controller)

    # Snapshot accounting integrals at the measurement boundary.
    snap: Dict[str, Tuple[float, float]] = {}

    def take_snapshot() -> None:
        cluster.sync_all()
        for name, c in cluster.containers.items():
            snap[name] = (c.alloc_core_seconds, c.busy_weighted_seconds)

    sim.schedule_at(t_measure, take_snapshot)

    if monitors is not None:
        monitors.arm(sim, cluster, controller=controller, client=client)
    client.begin()
    controller.start()
    sim.run(until=t_end + cfg.drain)
    controller.stop()
    cluster.sync_all()
    if monitors is not None:
        monitors.finalize()
    if probe is not None:
        probe(sim, cluster)
    fault_stats = None
    if injector is not None:
        fault_stats = injector.fault_stats()
        injector.disarm()

    # Measurement-window metrics.
    t, lat = client.stats.completed_arrays()
    mask = t >= t_measure
    t_m, lat_m = t[mask], lat[mask]
    summary = summarize(t_m, lat_m, targets.qos_target)

    # Idle-subtracted energy (paper §V: ``perf`` minus idle), the one
    # energy formula: ``static_w`` per allocated core-second plus
    # ``dyn_w_at_fmax`` per (f/f_max)³-weighted busy core-second.
    # Unallocated cores cost nothing; that is the idle subtraction.
    dvfs = cluster.config.dvfs
    window = (t_end + cfg.drain) - t_measure
    alloc_cs = 0.0
    energy = 0.0
    for name, c in cluster.containers.items():
        # Containers born after the measurement boundary (scaled-out
        # replicas) have no snapshot: their whole accrual is in-window.
        a0, b0 = snap.get(name, (0.0, 0.0))
        alloc_cs += c.alloc_core_seconds - a0
        energy += dvfs.static_w * (c.alloc_core_seconds - a0)
        energy += dvfs.dyn_w_at_fmax * (c.busy_weighted_seconds - b0)

    # SurgeGuard's FirstResponders, or the hybrid's SurgeGuard half's.
    responders = getattr(controller, "firstresponders", ())
    return ExperimentResult(
        config=cfg,
        controller_name=controller.name,
        targets=targets,
        summary=summary,
        avg_cores=alloc_cs / window,
        energy=energy,
        controller_stats=controller.stats,
        latency_trace=np.column_stack([t_m, lat_m]) if t_m.size else np.empty((0, 2)),
        alloc_events=list(cluster.alloc_events),
        freq_events=list(cluster.freq_events),
        outstanding=client.stats.outstanding,
        fast_path_packets=sum(fr.packets_inspected for fr in responders),
        fast_path_violations=sum(fr.violations_detected for fr in responders),
        errors=client.stats.errored,
        requests_sent=client.stats.sent,
        fault_stats=fault_stats,
    )
