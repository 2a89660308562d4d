"""SurgeGuard configuration — the artifact's ``sample_config`` knobs.

Defaults follow the paper where it states values (α = 0.5, revocation
threshold 0.02, hold window ≈ 2× end-to-end latency, upscale-hint TTL
bounded) and otherwise use the values our ablation benches identify as
robust.  Each field of :class:`SurgeGuardConfig` is set by an experiment:
the Fig. 15 arms (``use_new_metrics``, ``use_sensitivity``,
``escalator_interval``), the knob ablations (``alpha``,
``hold_factor``, ``upscale_ttl``, ``escalator_interval``) and the
``escalator`` spec (``firstresponder``).  The values nothing varies are
the module constants below.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = ["SurgeGuardConfig"]

# ---------------------------------------------------------------- Escalator
#: Condition (3): violation when execMetric / expectedExecMetric exceeds
#: this.  expectedExecMetric already carries the 2× profiling slack, so
#: 1.0 means "beyond the profiled envelope".
EXEC_TH = 1.0
#: Condition (2): violation when the window queueBuildup exceeds this.
QUEUE_TH = 1.5
#: How long a queueBuildup stamp keeps marking outgoing packets.
STAMP_DURATION = 0.2
#: Core allocation unit (both hyperthreads of a physical core).
CORE_STEP = 1.0
#: Floor for downscaling.
MIN_CORES = 0.5
#: Revoke a core when sens[container][#cores−1] is below this (paper:
#: "revoking a core if sens < 0.02 works well").
SENS_REVOKE_TH = 0.02
#: Comfort factor for Parties-style downscaling of score-0 containers.
COMFORT_RATIO = 0.5
#: Consecutive comfortable cycles before a score-0 core reclaim.  Long
#: enough (1 s at the default interval) that ordinary window noise
#: cannot fake sustained comfort; a regretted reclaim is reverted within
#: one cycle and backs off further.
DOWNSCALE_PATIENCE = 10
#: A container whose core reclaim was regretted (and reverted) sits out
#: score-0 downscaling until this many cycles after the reclaim; its
#: comfort count restarts then.
DOWNSCALE_COOLDOWN_CYCLES = 20
#: Cores granted per candidate per cycle ("one core at a time").
GRANT_PER_CYCLE = 1.0

# ----------------------------------------------------------- FirstResponder
#: Modeled primary-thread cost per packet (paper §VI-D: 0.26 µs).
HOOK_COST = 0.26e-6
#: Coordinator→worker handoff cost (paper: 0.44 µs enqueue).
ENQUEUE_COST = 0.44e-6
#: Worker dequeue + MSR write cost (paper: 2.1 µs, off critical path).
MSR_COST = 2.1e-6


@dataclass(frozen=True)
class SurgeGuardConfig:
    """The SurgeGuard settings the experiments vary (Escalator + FirstResponder)."""

    # ------------------------------------------------------------ Escalator
    #: Escalator decision cycle.  Faster than Parties' 500 ms (it is a
    #: node-local read of shared files, no cross-node collection).
    escalator_interval: float = 0.1
    #: ``pkt.upscale`` TTL stamped on a queueBuildup violation — bounds
    #: how many downstream hops react to one upstream violation (§IV).
    upscale_ttl: int = 2
    #: EWMA weight for the execAvg sensitivity matrix (paper: α = 0.5,
    #: "weight newer execution times quite heavily").
    alpha: float = 0.5

    # -------------------------------------------------------- FirstResponder
    #: Enable the fast path.
    firstresponder: bool = True
    #: Frequency-change hold window as a multiple of the end-to-end QoS
    #: target (paper: ~2× the end-to-end request latency).
    hold_factor: float = 2.0

    # -------------------------------------------------------- ablation flags
    #: Use execMetric/queueBuildup (Design Feature #2).  When False the
    #: Escalator falls back to raw execTime violations only — the
    #: "Parties + sensitivity" ablation arm of Fig. 15.
    use_new_metrics: bool = True
    #: Use the sensitivity matrix for priorities and revocation (Design
    #: Feature #3).  When False, candidates are served in score order
    #: only and revocation is purely Parties-style.
    use_sensitivity: bool = True

    def __post_init__(self) -> None:
        # NaN and inf pass a bare ``<= 0`` check; a NaN interval would
        # otherwise surface only when the decision loop is scheduled.
        for name in ("escalator_interval", "hold_factor"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and positive, got {value!r}"
                )
        # A fractional TTL is forwarded minus one per hop, so 1.5 would
        # reach a second hop exactly as 2 does.
        ttl = self.upscale_ttl
        if not (isinstance(ttl, numbers.Integral) and ttl >= 0):
            raise ValueError(
                f"upscale_ttl must be a non-negative integer, got {ttl!r}"
            )
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha!r}")
