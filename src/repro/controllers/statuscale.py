"""StatuScale — status-aware elastic vertical scaling (Wen et al.,
arXiv:2407.10173), reproduced as a ``repro.controllers`` plugin.

StatuScale sizes each container's CPU limit from its recent *resource
usage* plus a status-dependent headroom, with a latency **correction
factor** layered on top.  The loop has two cooperating pieces:

* a **load status detector** that watches a sliding window of recent
  per-container usage samples and classifies the load as *stable* or
  *fluctuating* (the paper uses the window's variability and short-term
  trend — reproduced here as relative standard deviation plus the
  normalized first-to-last slope of the window);
* an **elastic limit sizer**: the target limit is the measured usage
  times a headroom factor — modest under a *stable* status, generous
  under a *fluctuating* one so the limit front-runs the surge instead
  of trailing it.  When observed latency additionally exceeds its SLO,
  a correction grant proportional to the latency excess (``ratio − 1``)
  is added on top.  Downscaling is the conservative mirror image — only
  after a patience streak of comfortably-low latency with the limit
  sitting well above usage, only in single steps, and never while the
  detector reports fluctuation.

Sizing from *local* usage rather than end-to-end latency matters in
this simulator: per-container ``execTime`` includes downstream round
trips, so during a bottleneck every upstream ancestor also reports
violating latency, and a latency-proportional sizer feeds the ancestors
while the true bottleneck starves (the dependence-blindness SurgeGuard
§III attacks).  Usage is local by construction — only the container
actually burning its cores attracts a bigger limit.

Fidelity caveats vs the source paper:

* StatuScale sizes Kubernetes CPU *limits*; here the sizer moves
  simulated core allocations through the counted
  :func:`~repro.controllers.base.step_cores` every baseline uses (node
  budget enforced, same units);
* the paper's Savitzky–Golay trend filter is replaced by the plain
  window slope — the detector's role (suppress downscale + boost
  headroom during fluctuation) is preserved, the smoothing pedigree is
  not;
* per-service SLOs come from the harness's profiled 2×-average targets
  (``expected_exec_time``), the same limits every baseline receives,
  rather than StatuScale's user-specified response-time SLOs.

The decision math is deliberately exposed as pure module-level
functions (:func:`load_status`, :func:`upscale_step`,
:func:`plan_decision`) so the property suite can pin **decision
monotonicity**: a service reporting uniformly higher latency never ends
up with fewer cores (see ``tests/controllers/test_statuscale.py``).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, Sequence

from repro.controllers.base import Controller, step_cores

__all__ = [
    "StatuScaleController",
    "ServiceState",
    "load_status",
    "plan_decision",
    "upscale_step",
]


# The tunables follow the paper's spirit at this repo's simulation scale.
#: Decision interval (the paper samples at seconds granularity; scaled
#: down with the rest of the experiments).
INTERVAL = 0.25
#: Sliding-window length (usage samples) for the status detector.
WINDOW = 8
#: Relative standard deviation above this ⇒ *fluctuating* status.
SURGE_RSD = 0.15
#: Normalized window slope above this ⇒ *fluctuating* status.
SURGE_SLOPE = 0.25
#: Limit = usage × HEADROOM under a *stable* status.
HEADROOM = 1.75
#: Limit = usage × SURGE_HEADROOM under a *fluctuating* status.
SURGE_HEADROOM = 2.0
#: latency/SLO ratio above this ⇒ add the correction grant.
UPSCALE_RATIO = 1.0
#: latency/SLO ratio below this ⇒ downscale candidate.
DOWNSCALE_RATIO = 0.7
#: Correction-factor gain: fraction of the latency excess converted into
#: a proportional core grant.
CORRECTION_GAIN = 1.0
#: Correction boost applied while the detector reports fluctuation.
SURGE_BOOST = 2.0
#: Hard cap on cores granted per service per decision.
MAX_STEP = 2.0
#: Actuation quantum (grants/releases are multiples of this).
CORE_STEP = 0.5
#: Consecutive comfortable intervals before releasing a step.
DOWNSCALE_PATIENCE = 8
#: Minimum cores a container may be squeezed to.
MIN_CORES = 0.5


@dataclass
class ServiceState:
    """Per-service sliding usage window + downscale hysteresis."""

    samples: Deque[float] = field(default_factory=deque)
    low_streak: int = 0


def load_status(samples: Sequence[float]) -> bool:
    """Status detector: ``True`` = *fluctuating*, ``False`` = *stable*.

    Operates on the sliding window of usage samples.  Fluctuation is
    declared when the window's relative standard deviation exceeds
    ``SURGE_RSD`` or its normalized first-to-last slope exceeds
    ``SURGE_SLOPE``.  Windows with fewer than 3 samples are *stable* —
    the detector has nothing to detect yet.
    """
    n = len(samples)
    if n < 3:
        return False
    mean = sum(samples) / n
    if mean <= 0:
        return False
    var = sum((s - mean) ** 2 for s in samples) / n
    if math.sqrt(var) / mean > SURGE_RSD:
        return True
    slope = (samples[-1] - samples[0]) / (n - 1)
    return slope / mean > SURGE_SLOPE


def upscale_step(ratio: float, cores: float, fluctuating: bool) -> float:
    """Latency correction grant for one service, in cores (>= 0).

    The raw correction is ``gain · (ratio − 1) · cores`` — the paper's
    multiplicative limit adjustment expressed as an additive grant —
    boosted by ``SURGE_BOOST`` under a fluctuating status, rounded *up*
    to the actuation quantum, and capped at ``MAX_STEP``.  Monotone
    non-decreasing in ``ratio`` and in ``cores`` (for either status),
    which the Hypothesis suite pins.
    """
    if ratio <= UPSCALE_RATIO:
        return 0.0
    raw = CORRECTION_GAIN * (ratio - 1.0) * cores
    if fluctuating:
        raw *= SURGE_BOOST
    quantized = math.ceil(raw / CORE_STEP - 1e-12) * CORE_STEP
    return min(max(quantized, CORE_STEP), MAX_STEP)


def plan_decision(
    state: ServiceState, ratio: float, usage: float, cores: float
) -> float:
    """One decision step for one service: update ``state`` with this
    window's ``usage`` sample and return the signed core delta given the
    latency/SLO ``ratio`` and current allocation.

    Positive = grant (capped at ``MAX_STEP``), negative = release (one
    ``CORE_STEP``, respecting ``MIN_CORES``), 0.0 = hold.  This is the
    whole per-service policy — the controller merely actuates the
    returned delta through the node budget — so tests can drive it
    directly on synthetic sequences.  Monotone: for the same state and
    usage, a higher ``ratio`` never yields a smaller delta.
    """
    state.samples.append(usage)
    while len(state.samples) > WINDOW:
        state.samples.popleft()
    fluctuating = load_status(state.samples)

    head = SURGE_HEADROOM if fluctuating else HEADROOM
    desired = usage * head
    if ratio > UPSCALE_RATIO:
        desired = max(desired, cores + upscale_step(ratio, cores, fluctuating))

    if desired > cores + 1e-9:
        state.low_streak = 0
        grant = math.ceil((desired - cores) / CORE_STEP - 1e-12)
        return min(grant * CORE_STEP, MAX_STEP)

    if desired <= cores - CORE_STEP and ratio < DOWNSCALE_RATIO:
        state.low_streak += 1
        # Status-aware: never release resources while the detector sees
        # fluctuation, nor before the window has even filled once — a
        # half-seen history cannot support a *stable* verdict (the
        # paper's guard against oscillating limits).
        if (
            not fluctuating
            and len(state.samples) >= WINDOW
            and state.low_streak >= DOWNSCALE_PATIENCE
        ):
            state.low_streak = 0
            if cores - CORE_STEP >= MIN_CORES - 1e-9:
                return -CORE_STEP
        return 0.0

    state.low_streak = 0
    return 0.0


class StatuScaleController(Controller):
    """Sliding-window status detection + headroom/correction sizing."""

    name = "statuscale"

    def __init__(self):
        super().__init__()
        self._state: Dict[str, ServiceState] = {}
        #: Last seen busy-core integral per container (usage deltas).
        self._last_busy: Dict[str, float] = {}

    def loops(self):
        return [(INTERVAL, self, "_decide")]

    def _on_start(self) -> None:
        assert self.cluster is not None
        self._state = {n: ServiceState() for n in self.cluster.containers}
        self._last_busy = {}
        for name, c in self.cluster.containers.items():
            c.sync()
            self._last_busy[name] = c.busy_core_seconds

    def _usage(self, name: str) -> float:
        """Mean cores burned by ``name`` since the previous decision."""
        assert self.cluster is not None
        c = self.cluster.containers[name]
        c.sync()
        prev = self._last_busy.get(name, c.busy_core_seconds)
        self._last_busy[name] = c.busy_core_seconds
        return (c.busy_core_seconds - prev) / INTERVAL

    def _decide(self) -> None:
        assert self.cluster is not None and self.targets is not None
        self.stats.decision_cycles += 1
        grants: list = []
        for name, runtime in self.cluster.runtimes.items():
            window = runtime.collect()
            # Idle window: latency reads 0 ⇒ ratio 0 ⇒ the downscale
            # path's hysteresis applies (an idle service is maximally
            # comfortable, not unknown).
            target = self.targets.expected_exec_time[name]
            ratio = (window.avg_exec_time / target) if window.count else 0.0
            state = self._state.setdefault(name, ServiceState())
            usage = self._usage(name)
            cores = self.cluster.containers[name].cores
            delta = plan_decision(state, ratio, usage, cores)
            if delta > 0:
                grants.append((usage / max(cores, 1e-9), name, delta))
            elif delta < 0:
                # Releases actuate immediately so the same cycle's grants
                # can reuse the freed cores.
                step_cores(self.cluster, self.stats, name, delta, MIN_CORES)
        # Grants go most-saturated-first (usage/cores): when the node's
        # free cores cannot cover every sized limit, they must reach the
        # container actually burning its allocation — feeding a blocked
        # upstream instead only tightens the burst arriving at the
        # starved bottleneck.
        for _, name, delta in sorted(grants, reverse=True):
            # Grant in quanta so a partially-full node yields what it
            # can instead of rejecting the whole correction.
            steps = int(round(delta / CORE_STEP))
            for _ in range(steps):
                if not step_cores(self.cluster, self.stats, name, CORE_STEP):
                    break
