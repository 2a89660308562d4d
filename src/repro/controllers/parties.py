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

from dataclasses import dataclass
from typing import Dict, Optional

from repro.controllers.base import Controller, step_cores, step_frequency

__all__ = ["PartiesController", "PartiesParams"]


@dataclass(frozen=True)
class PartiesParams:
    """Tunables of the Parties FSM (defaults follow the original paper)."""

    #: Decision interval (Table I: 500 ms).
    interval: float = 0.5
    #: Slack below this ⇒ violation (original paper: 0.05).
    violation_slack: float = 0.05
    #: Slack above this ⇒ candidate for downscaling (original: ~0.2).
    comfort_slack: float = 0.2
    #: Consecutive comfortable intervals required before reclaiming.
    downscale_patience: int = 3
    #: Core allocation unit.  The SurgeGuard paper allocates both
    #: hyperthreads of a physical core together for Parties: 1.0.
    core_step: float = 1.0
    #: Minimum cores a container may be squeezed to.
    min_cores: float = 0.5

    def __post_init__(self) -> None:
        if self.interval <= 0:
            raise ValueError("interval must be positive")
        if not 0 <= self.violation_slack < self.comfort_slack:
            raise ValueError("need 0 <= violation_slack < comfort_slack")
        if self.downscale_patience < 1:
            raise ValueError("downscale_patience must be >= 1")


class PartiesController(Controller):
    """Per-container Parties with cores + frequency."""

    name = "parties"

    def __init__(self, params: Optional[PartiesParams] = None):
        super().__init__()
        self.params = params or PartiesParams()
        self._comfort_streak: Dict[str, int] = {}
        # Downscale verification state: Parties reverts an adjustment
        # that degrades QoS and temporarily blacklists the victim.
        self._pending_downscale: Optional[tuple] = None  # (name, kind)
        self._cooldown: Dict[str, int] = {}

    def loops(self):
        return [(self.params.interval, self, "_decide")]

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
        p = self.params
        slacks = self._slacks()

        # Verify the previous interval's downscale (Parties' sizing FSM:
        # an adjustment that hurts QoS is reverted and the container is
        # left alone for a while).
        if self._pending_downscale is not None:
            name, kind = self._pending_downscale
            self._pending_downscale = None
            if slacks[name] < p.violation_slack:
                if kind == "core":
                    step_cores(self.cluster, self.stats, name, p.core_step)
                else:
                    step_frequency(self.cluster, self.stats, name, up=True)
                self._cooldown[name] = 10
        for n in list(self._cooldown):
            self._cooldown[n] -= 1
            if self._cooldown[n] <= 0:
                del self._cooldown[n]

        worst = min(slacks, key=lambda n: slacks[n])
        if slacks[worst] < p.violation_slack:
            # Upscale the worst container by one unit: core, else frequency.
            if not step_cores(self.cluster, self.stats, worst, p.core_step):
                step_frequency(self.cluster, self.stats, worst, up=True)
            self._comfort_streak[worst] = 0

        # Track per-container comfort for hysteretic downscaling.
        for name, s in slacks.items():
            if s > p.comfort_slack:
                self._comfort_streak[name] += 1
            else:
                self._comfort_streak[name] = 0

        # Downscale only under resource pressure: Parties reclaims from
        # comfortable jobs to feed violating ones when the node has no
        # spare cores — it does *not* shed resources at steady state
        # (the paper's Fig. 6-right criticism is precisely that Parties
        # lets comfortable containers keep hogging what they were given).
        if slacks[worst] < p.violation_slack:
            node = self.cluster.node_of(worst)
            if node.free_cores + 1e-9 < p.core_step:
                candidates = [
                    n
                    for n, streak in self._comfort_streak.items()
                    if streak >= p.downscale_patience
                    and n not in self._cooldown
                    and n != worst
                    and self.cluster.node_of(n) is node
                ]
                if candidates:
                    best = max(candidates, key=lambda n: slacks[n])
                    if step_cores(
                        self.cluster, self.stats, best, -p.core_step, p.min_cores
                    ):
                        self._pending_downscale = (best, "core")
                    elif step_frequency(self.cluster, self.stats, best, up=False):
                        self._pending_downscale = (best, "freq")
                    self._comfort_streak[best] = 0
