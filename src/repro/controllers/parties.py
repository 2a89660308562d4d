"""Parties controller (Chen, Delimitrou, Martínez — ASPLOS'19), adapted
per-container as in the SurgeGuard paper's evaluation.

Parties manages multiple latency-critical jobs by monitoring each job's
slack — ``(target − measured) / target`` — every 500 ms and moving one
resource unit at a time:

* **upscale**: if any job's slack is below the violation threshold,
  give *the worst* job one unit of a resource (a core if the node has
  spares, else a frequency step — the paper's SurgeGuard evaluation
  manages cores + frequency for all controllers);
* **downscale**: if every job has comfortable slack for several
  consecutive intervals, reclaim one unit from the *most* comfortable
  job (frequency first, then cores), so resources return to the spare
  pool.

Fidelity notes for the reproduction (and the behaviours the paper
faults Parties for):

* one adjustment per decision interval per direction — the slow,
  step-by-step ramp Fig. 4 contrasts with an ideal controller;
* **per-container, dependence-blind targets on raw execTime** — during
  a fixed-threadpool surge the upstream service (whose execTime
  includes the implicit queue) is always the worst violator, so Parties
  feeds it cores forever while the true bottleneck starves (Fig. 14);
* averaged metrics over the 500 ms window — blind to sub-window surges
  (Fig. 10).
"""

from __future__ import annotations

import math
from typing import Dict, Optional

from repro.controllers.base import Controller, step_cores, step_frequency

__all__ = ["PartiesController"]

#: Slack below this ⇒ violation (original paper: 0.05).
VIOLATION_SLACK = 0.05
#: Slack above this ⇒ candidate for downscaling (original: ~0.2).
COMFORT_SLACK = 0.2
#: Consecutive comfortable intervals required before reclaiming.
DOWNSCALE_PATIENCE = 3
#: A container whose reclaim was regretted (and reverted) may not be
#: reclaimed again until this many intervals after the reclaim.
DOWNSCALE_COOLDOWN_INTERVALS = 10
#: Core allocation unit.  The SurgeGuard paper allocates both
#: hyperthreads of a physical core together for Parties: 1.0.
CORE_STEP = 1.0
#: Minimum cores a container may be squeezed to.
MIN_CORES = 0.5


class PartiesController(Controller):
    """Per-container Parties with cores + frequency.

    ``interval`` is the decision interval (Table I: 500 ms); the other
    tunables are the module constants (defaults of the original paper).
    """

    name = "parties"

    def __init__(self, interval: float = 0.5):
        super().__init__()
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(
                f"interval must be finite and positive, got {interval!r}"
            )
        self.interval = interval
        self._comfort_streak: Dict[str, int] = {}
        # Downscale verification state: Parties reverts an adjustment
        # that degrades QoS and temporarily blacklists the victim.
        self._pending_downscale: Optional[tuple] = None  # (name, kind)
        self._cooldown: Dict[str, int] = {}

    def loops(self):
        return [(self.interval, self, "_decide")]

    def _on_start(self) -> None:
        assert self.cluster is not None
        self._comfort_streak = {n: 0 for n in self.cluster.containers}

    # ------------------------------------------------------------- decisions
    def _slacks(self) -> Dict[str, float]:
        """Per-container slack from this interval's runtime windows.

        Containers that saw no requests keep neutral (comfortable) slack:
        an idle container is not violating.
        """
        assert self.cluster is not None and self.targets is not None
        slacks: Dict[str, float] = {}
        for name, runtime in self.cluster.runtimes.items():
            window = runtime.collect()
            target = self.targets.expected_exec_time[name]
            if window.count == 0:
                slacks[name] = 1.0
                continue
            slacks[name] = (target - window.avg_exec_time) / target
        return slacks

    def _decide(self) -> None:
        self.stats.decision_cycles += 1
        slacks = self._slacks()

        # Verify the previous interval's downscale (Parties' sizing FSM:
        # an adjustment that hurts QoS is reverted and the container is
        # left alone for a while).
        if self._pending_downscale is not None:
            name, kind = self._pending_downscale
            self._pending_downscale = None
            if slacks[name] < VIOLATION_SLACK:
                if kind == "core":
                    step_cores(self.cluster, self.stats, name, CORE_STEP)
                else:
                    step_frequency(self.cluster, self.stats, name, up=True)
                self._cooldown[name] = DOWNSCALE_COOLDOWN_INTERVALS
        for n in list(self._cooldown):
            self._cooldown[n] -= 1
            if self._cooldown[n] <= 0:
                del self._cooldown[n]

        worst = min(slacks, key=lambda n: slacks[n])
        if slacks[worst] < VIOLATION_SLACK:
            # Upscale the worst container by one unit: core, else frequency.
            if not step_cores(self.cluster, self.stats, worst, CORE_STEP):
                step_frequency(self.cluster, self.stats, worst, up=True)
            self._comfort_streak[worst] = 0

        # Track per-container comfort for hysteretic downscaling.
        for name, s in slacks.items():
            if s > COMFORT_SLACK:
                self._comfort_streak[name] += 1
            else:
                self._comfort_streak[name] = 0

        # Downscale only under resource pressure: Parties reclaims from
        # comfortable jobs to feed violating ones when the node has no
        # spare cores — it does *not* shed resources at steady state
        # (the paper's Fig. 6-right criticism is precisely that Parties
        # lets comfortable containers keep hogging what they were given).
        if slacks[worst] < VIOLATION_SLACK:
            node = self.cluster.node_of(worst)
            if node.free_cores + 1e-9 < CORE_STEP:
                candidates = [
                    n
                    for n, streak in self._comfort_streak.items()
                    if streak >= DOWNSCALE_PATIENCE
                    and n not in self._cooldown
                    and n != worst
                    and self.cluster.node_of(n) is node
                ]
                if candidates:
                    best = max(candidates, key=lambda n: slacks[n])
                    if step_cores(
                        self.cluster, self.stats, best, -CORE_STEP, MIN_CORES
                    ):
                        self._pending_downscale = (best, "core")
                    elif step_frequency(self.cluster, self.stats, best, up=False):
                        self._pending_downscale = (best, "freq")
                    self._comfort_streak[best] = 0
