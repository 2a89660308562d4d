"""Clairvoyant controller for the Fig. 4 detection-delay study.

Fig. 4 compares "an ideal controller that, on detecting a surge,
allocates the exact amount of cores needed to overcome it (instead of
increasing allocations step-by-step as in real controllers)" under
different *detection delays* (0.2 ms / 0.5 s / 1 s).  The oracle knows
the surge schedule and the per-service demand model, so the only
variable is the delay — isolating detection latency's contribution to
violation volume and to the extra cores needed to drain the queue.
"""

from __future__ import annotations

import math
from typing import List, Optional

from repro.controllers.base import Controller, set_cores
from repro.sim.engine import EventHandle
from repro.workload.arrivals import RateSchedule

__all__ = ["OracleController"]

#: Utilization the allocation aims for at the scheduled rate.
TARGET_UTIL = 0.7
#: Allocation quantum (a hyperthread).
GRANULARITY = 0.5


class OracleController(Controller):
    """Allocates exact surge demand after a fixed detection delay.

    Parameters
    ----------
    schedule:
        The (known) rate schedule driving the experiment.
    detection_delay:
        Seconds between a rate change and the oracle reacting to it.
    headroom:
        Demand multiplier; >1 leaves capacity to drain the queue that
        built up during the detection delay.  The *extra cores needed*
        output of Fig. 4 is the smallest headroom that clears the
        backlog before the surge ends, found by the experiment driver.
    """

    name = "oracle"

    def __init__(
        self,
        schedule: RateSchedule,
        *,
        detection_delay: float,
        headroom: float = 1.0,
    ):
        super().__init__()
        if not (math.isfinite(detection_delay) and detection_delay >= 0):
            raise ValueError(
                "detection_delay must be finite and non-negative, "
                f"got {detection_delay!r}"
            )
        # NaN passes a bare ``headroom < 1.0`` check and fails only when
        # the surge reaction converts the allocation to an integer.
        if not (math.isfinite(headroom) and headroom >= 1.0):
            raise ValueError(
                f"headroom must be finite and >= 1, got {headroom!r}"
            )
        self.schedule = schedule
        self.detection_delay = detection_delay
        self.headroom = headroom
        #: The scheduled reactions, so that :meth:`stop` cancels them.
        self._reactions: List[EventHandle] = []

    # ---------------------------------------------------------------- sizing
    def _cores_for_rate(self, service: str, rate: float) -> float:
        assert self.cluster is not None
        spec = self.cluster.app.service(service)
        f = self.cluster.config.dvfs.f_min
        cycles = spec.pre_work.mean_cycles + spec.post_work.mean_cycles
        demand = rate * cycles / f
        quanta = math.ceil(demand / TARGET_UTIL / GRANULARITY)
        return max(GRANULARITY, quanta * GRANULARITY)

    def _apply_rate(self, rate: float, boost: float) -> None:
        assert self.cluster is not None
        self.stats.decision_cycles += 1
        for name in self.cluster.app.service_names:
            want = self._cores_for_rate(name, rate) * boost
            want = math.ceil(want / GRANULARITY) * GRANULARITY
            node = self.cluster.node_of(name)
            have = self.cluster.containers[name].cores
            want = min(want, have + node.free_cores)
            if want != have:
                set_cores(self.cluster, self.stats, name, want)

    # -------------------------------------------------------------- lifecycle
    def _on_start(self) -> None:
        assert self.sim is not None
        # React to every rate boundary, delayed by the detection latency.
        for spike in self.schedule.spikes:
            delay_on = max(spike.start - self.sim.now, 0.0) + self.detection_delay
            delay_off = max(spike.end - self.sim.now, 0.0) + self.detection_delay
            self._reactions += [
                self.sim.schedule(
                    delay_on, self._apply_rate, spike.rate, self.headroom
                ),
                self.sim.schedule(
                    delay_off, self._apply_rate, self.schedule.base_rate, 1.0
                ),
            ]

    def stop(self) -> None:
        super().stop()
        for handle in self._reactions:
            handle.cancel()
        self._reactions = []
