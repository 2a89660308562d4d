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

from typing import Dict

from repro.controllers.base import Controller, step_cores

__all__ = ["CaladanController"]

#: Decision interval.  The real Caladan runs at 5–20 µs; the paper notes
#: the userspace port's interval "is far larger with the Linux
#: networking stack".  10 ms keeps it the fastest baseline while
#: remaining meaningful for window statistics.
INTERVAL = 0.01
#: queueBuildup above this ⇒ congestion ⇒ grant a hyperthread.
CONGESTION_QB = 1.10
#: Consecutive idle intervals before yielding a hyperthread.  Caladan
#: reclaims cores that go idle; the userspace port observes idleness as
#: average busy-core time leaving at least ``YIELD_MARGIN`` cores unused.
YIELD_PATIENCE = 20
#: Unused-core margin required before yielding (a full physical core's
#: worth of headroom must be demonstrably idle).
YIELD_MARGIN = 1.0
#: Hyperthread granularity (§V: "allocate hyperthreads individually").
CORE_STEP = 0.5
#: Minimum cores a container may be squeezed to.
MIN_CORES = 0.5


class CaladanController(Controller):
    """Congestion-triggered hyperthread granting/yielding."""

    name = "caladan"

    def __init__(self):
        super().__init__()
        self._idle_streak: Dict[str, int] = {}
        self._last_busy: Dict[str, float] = {}

    def loops(self):
        return [(INTERVAL, self, "_decide")]

    def _on_start(self) -> None:
        assert self.cluster is not None
        self._idle_streak = {n: 0 for n in self.cluster.containers}
        self._last_busy = {
            n: c.busy_core_seconds for n, c in self.cluster.containers.items()
        }

    def _decide(self) -> None:
        assert self.cluster is not None
        self.stats.decision_cycles += 1
        for name, runtime in self.cluster.runtimes.items():
            window = runtime.collect()
            container = self.cluster.containers[name]
            container.sync()
            busy = container.busy_core_seconds
            avg_busy = (busy - self._last_busy[name]) / INTERVAL
            self._last_busy[name] = busy

            congested = window.count > 0 and window.queue_buildup > CONGESTION_QB
            if congested:
                self._idle_streak[name] = 0
                step_cores(self.cluster, self.stats, name, CORE_STEP)
                continue
            # Yield: a full margin of cores was unused on average.
            if avg_busy < container.cores - YIELD_MARGIN:
                self._idle_streak[name] += 1
                if self._idle_streak[name] >= YIELD_PATIENCE:
                    self._idle_streak[name] = 0
                    step_cores(
                        self.cluster, self.stats, name, -CORE_STEP, MIN_CORES
                    )
            else:
                self._idle_streak[name] = 0
