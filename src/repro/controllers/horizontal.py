"""Horizontal autoscaling interaction (§VII "Interaction with
Autoscaling Algorithms").

The paper argues SurgeGuard complements horizontal autoscalers: scaling
out takes seconds (spin up a container, warm it, re-balance), and
SurgeGuard "manag[es] QoS and prevent[s] request buildup while the
autoscaler launches a new container".

:class:`HorizontalAutoscaler` models a Kubernetes-HPA-style scaler that
actuates *replica counts* of the cluster's replica sets (see
:mod:`repro.cluster.loadbalancer`): a scale-out launches a real replica
behind the load balancer, which spends ``launch_delay`` WARMING —
holding its cores but receiving no traffic — before the LB starts
routing to it.  That actuation gap is exactly what the hybrid's
SurgeGuard units bridge.  It reads only utilization (busy / allocated
cores over the READY replicas of a service), like the real HPA's CPU
metric, so it can run *concurrently* with SurgeGuard: the two never
contend for the runtime metric windows.

The hybrid is assembled by :class:`HybridController`, which owns both
and is what the §VII bench exercises.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Dict, Optional

from repro.cluster.loadbalancer import READY, WARMING
from repro.controllers.base import Controller
from repro.core.surgeguard import SurgeGuardController

__all__ = ["HorizontalAutoscaler", "HpaParams", "HybridController"]

#: Scale out when service utilization (busy / allocated over READY
#: replicas) exceeds this.
TARGET_UTILIZATION = 0.7
#: Scale-in when utilization stays below this.
SCALE_IN_UTILIZATION = 0.35
#: Replica-count floor per service.
MIN_REPLICAS = 1


@dataclass(frozen=True)
class HpaParams:
    """Kubernetes-HPA-flavoured tunables the experiments set."""

    #: Evaluation period (HPA default: 15 s; scaled down with the rest
    #: of the experiments).
    interval: float = 2.0
    #: Replica launch + warm-up delay: the new replica holds its cores
    #: but receives no traffic until it lands.
    launch_delay: float = 3.0
    #: Consecutive low-utilization periods before scale-in.
    scale_in_patience: int = 3
    #: Replica-count ceiling per service.
    max_replicas: int = 4

    def __post_init__(self) -> None:
        if not (math.isfinite(self.interval) and self.interval > 0):
            raise ValueError(
                f"interval must be finite and positive, got {self.interval!r}"
            )
        if not (math.isfinite(self.launch_delay) and self.launch_delay >= 0):
            raise ValueError(
                "launch_delay must be finite and non-negative, "
                f"got {self.launch_delay!r}"
            )
        # ``streak >= nan`` is never true and ``len(ready) < 2.5`` admits
        # a third replica, so both counts must be whole.
        for name in ("scale_in_patience", "max_replicas"):
            value = getattr(self, name)
            if not (isinstance(value, numbers.Integral) and value >= 1):
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}"
                )


class HorizontalAutoscaler(Controller):
    """Utilization-triggered replica-count actuation with launch latency."""

    name = "hpa"

    def __init__(self, params: Optional[HpaParams] = None):
        super().__init__()
        self.params = params or HpaParams()
        #: Last seen busy-core integral per replica endpoint.
        self._last_busy: Dict[str, float] = {}
        self._low_streak: Dict[str, int] = {}
        self.scale_outs = 0
        self.scale_ins = 0

    def loops(self):
        return [(self.params.interval, self, "_decide")]

    def _on_start(self) -> None:
        assert self.cluster is not None
        self._last_busy = {
            n: c.busy_core_seconds for n, c in self.cluster.containers.items()
        }
        self._low_streak = {s: 0 for s in self.cluster.replica_sets}

    # ------------------------------------------------------------- decision
    def _utilization(self, ready) -> float:
        """busy-delta / capacity over one interval, summed over ``ready``.

        The per-replica busy baseline starts at first sight, so a replica
        that just became READY contributes only its post-warm work.
        """
        busy = 0.0
        cores = 0.0
        for r in ready:
            c = r.container
            c.sync()
            prev = self._last_busy.get(r.name, c.busy_core_seconds)
            self._last_busy[r.name] = c.busy_core_seconds
            busy += c.busy_core_seconds - prev
            cores += c.cores
        if cores <= 0:
            return 0.0
        return busy / (self.params.interval * cores)

    def _decide(self) -> None:
        assert self.cluster is not None and self.sim is not None
        self.stats.decision_cycles += 1
        p = self.params
        cluster = self.cluster
        cluster.reap_draining()
        for service, rset in cluster.replica_sets.items():
            # Evict busy baselines of replicas that left the READY set
            # (draining, reaped, or crashed out).  A drained replica keeps
            # accruing busy-seconds until it is reaped; comparing a later
            # revival against the stale pre-drain baseline would charge
            # all of that drain-time work to the revival's first interval
            # and wildly inflate utilization.  Evicting here restarts the
            # baseline at first sight after the replica becomes READY
            # again, exactly like a brand-new replica.
            for r in rset.replicas:
                if r.state != READY:
                    self._last_busy.pop(r.name, None)
            ready = [r for r in rset.replicas if r.state == READY]
            warming = any(r.state == WARMING for r in rset.replicas)
            util = self._utilization(ready)
            if warming:
                # Stabilization: no decisions while a launch is in flight
                # (mirrors HPA's readiness gating; prevents thrash from
                # utilization measured against not-yet-serving capacity).
                self._low_streak[service] = 0
                continue
            if util > TARGET_UTILIZATION and len(ready) < p.max_replicas:
                self._low_streak[service] = 0
                if cluster.scale_out(service, ready_delay=p.launch_delay):
                    self.scale_outs += 1
                    self.stats.upscale_core_actions += 1
            elif util < SCALE_IN_UTILIZATION and len(ready) > MIN_REPLICAS:
                self._low_streak[service] += 1
                if self._low_streak[service] >= p.scale_in_patience:
                    self._low_streak[service] = 0
                    if cluster.scale_in(service):
                        self.scale_ins += 1
                        self.stats.downscale_core_actions += 1
            else:
                self._low_streak[service] = 0


class HybridController(Controller):
    """§VII hybrid: horizontal autoscaler + SurgeGuard side by side.

    The autoscaler owns capacity trends (utilization-driven, slow,
    replica-granular); the SurgeGuard units bridge the actuation gap
    (per-packet fast path + metric-window slow path, per replica).  They
    share nothing but the cluster and this controller's stats.  The two
    halves are attached, never started: this controller runs their
    start hooks and declares their loops, the autoscaler's first.
    """

    name = "hpa+surgeguard"

    def __init__(self, hpa_params: Optional[HpaParams] = None):
        super().__init__()
        self.hpa = HorizontalAutoscaler(hpa_params)
        self.surgeguard = SurgeGuardController()

    @property
    def escalators(self):
        """The SurgeGuard half's per-node Escalators."""
        return self.surgeguard.escalators

    @property
    def firstresponders(self):
        """The SurgeGuard half's per-node FirstResponders."""
        return self.surgeguard.firstresponders

    def _on_attach(self) -> None:
        assert self.sim is not None and self.cluster is not None
        assert self.targets is not None
        # Both halves count into this controller's stats; the SurgeGuard
        # units take theirs when they are built, at attach.
        self.hpa.stats = self.surgeguard.stats = self.stats
        self.hpa.attach(self.sim, self.cluster, self.targets)
        self.surgeguard.attach(self.sim, self.cluster, self.targets)

    def loops(self):
        return [*self.hpa.loops(), *self.surgeguard.loops()]

    def _on_start(self) -> None:
        self.hpa._on_start()
        self.surgeguard._on_start()
