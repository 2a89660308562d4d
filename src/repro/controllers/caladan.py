"""CaladanAlgo — Caladan's core allocator as a userspace controller.

Caladan (Fried et al., OSDI'20) grants a core to a task the moment its
queueing delay exceeds a threshold and reclaims cores that go idle; with
its custom network stack it runs every 5–20 µs.  The SurgeGuard paper
ports the *algorithm* to userspace ("CaladanAlgo"): without runtime-queue
visibility it (a) runs at a much coarser interval, and (b) substitutes
the paper's ``queueBuildup`` metric for the queueing-delay signal —
both choices reproduced here.

Consequences the paper highlights, which fall out of this port:

* for **connection-per-request** workloads there are no implicit queues,
  ``queueBuildup`` stays ≈1, and CaladanAlgo never upscales — low energy
  but enormous violation volume on the hotelReservation actions;
* for fixed-pool workloads, the congested *upstream* container gets all
  the grants (the signal fires where the queue is, not where the
  bottleneck is), starving downstream — Fig. 14's second panel.

CaladanAlgo allocates hyperthreads individually (0.5-core units, §V).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.controllers.base import Controller, step_cores

__all__ = ["CaladanController", "CaladanParams"]


@dataclass(frozen=True)
class CaladanParams:
    """Tunables of the userspace Caladan port."""

    #: Decision interval.  The real Caladan runs at 5–20 µs; the paper
    #: notes the userspace port's interval "is far larger with the Linux
    #: networking stack".  10 ms keeps it the fastest baseline while
    #: remaining meaningful for window statistics.
    interval: float = 0.01
    #: queueBuildup above this ⇒ congestion ⇒ grant a hyperthread.
    congestion_qb: float = 1.10
    #: Consecutive idle intervals before yielding a hyperthread.
    #: Caladan reclaims cores that go idle; the userspace port observes
    #: idleness as average busy-core time leaving at least
    #: ``yield_margin`` cores unused.
    yield_patience: int = 20
    #: Unused-core margin required before yielding (a full physical
    #: core's worth of headroom must be demonstrably idle).
    yield_margin: float = 1.0
    #: Hyperthread granularity (§V: "allocate hyperthreads individually").
    core_step: float = 0.5
    min_cores: float = 0.5

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if self.congestion_qb < 1.0:
            raise ValueError("congestion_qb must be >= 1")
        if self.yield_patience < 1:
            raise ValueError("yield_patience must be >= 1")


class CaladanController(Controller):
    """Congestion-triggered hyperthread granting/yielding."""

    name = "caladan"

    def __init__(self, params: Optional[CaladanParams] = None):
        super().__init__()
        self.params = params or CaladanParams()
        self._idle_streak: Dict[str, int] = {}
        self._last_busy: Dict[str, float] = {}

    def loops(self):
        return [(self.params.interval, self, "_decide")]

    def _on_start(self) -> None:
        assert self.cluster is not None
        self._idle_streak = {n: 0 for n in self.cluster.containers}
        self._last_busy = {
            n: c.busy_core_seconds for n, c in self.cluster.containers.items()
        }

    def _decide(self) -> None:
        assert self.cluster is not None
        self.stats.decision_cycles += 1
        p = self.params
        for name, runtime in self.cluster.runtimes.items():
            window = runtime.collect()
            container = self.cluster.containers[name]
            container.sync()
            busy = container.busy_core_seconds
            avg_busy = (busy - self._last_busy[name]) / p.interval
            self._last_busy[name] = busy

            congested = window.count > 0 and window.queue_buildup > p.congestion_qb
            if congested:
                self._idle_streak[name] = 0
                step_cores(self.cluster, self.stats, name, p.core_step)
                continue
            # Yield: a full margin of cores was unused on average.
            if avg_busy < container.cores - p.yield_margin:
                self._idle_streak[name] += 1
                if self._idle_streak[name] >= p.yield_patience:
                    self._idle_streak[name] = 0
                    step_cores(
                        self.cluster, self.stats, name, -p.core_step, p.min_cores
                    )
            else:
                self._idle_streak[name] = 0
