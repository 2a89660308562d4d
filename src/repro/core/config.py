"""SurgeGuard configuration — the artifact's ``sample_config`` knobs.

Defaults follow the paper where it states values (α = 0.5, revocation
threshold 0.02, hold window ≈ 2× end-to-end latency, upscale-hint TTL
bounded) and otherwise use the values our ablation benches identify as
robust.  Every knob is exercised by at least one test or ablation bench.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = ["SurgeGuardConfig"]


@dataclass(frozen=True)
class SurgeGuardConfig:
    """All SurgeGuard tunables (Escalator + FirstResponder)."""

    # ------------------------------------------------------------ Escalator
    #: Escalator decision cycle.  Faster than Parties' 500 ms (it is a
    #: node-local read of shared files, no cross-node collection).
    escalator_interval: float = 0.1
    #: Condition (3): violation when execMetric / expectedExecMetric
    #: exceeds this.  expectedExecMetric already carries the 2× profiling
    #: slack, so 1.0 means "beyond the profiled envelope".
    exec_th: float = 1.0
    #: Condition (2): violation when the window queueBuildup exceeds this.
    queue_th: float = 1.5
    #: ``pkt.upscale`` TTL stamped on a queueBuildup violation — bounds
    #: how many downstream hops react to one upstream violation (§IV).
    upscale_ttl: int = 2
    #: How long a queueBuildup stamp keeps marking outgoing packets.
    stamp_duration: float = 0.2
    #: Core allocation unit (both hyperthreads of a physical core).
    core_step: float = 1.0
    #: Floor for downscaling.
    min_cores: float = 0.5
    #: EWMA weight for the execAvg sensitivity matrix (paper: α = 0.5,
    #: "weight newer execution times quite heavily").
    alpha: float = 0.5
    #: Revoke a core when sens[container][#cores−1] is below this
    #: (paper: "revoking a core if sens < 0.02 works well").
    sens_revoke_th: float = 0.02
    #: Comfort factor for Parties-style downscaling of score-0 containers.
    comfort_ratio: float = 0.5
    #: Consecutive comfortable cycles before a score-0 core reclaim.
    #: Long enough (1 s at the default interval) that ordinary window
    #: noise cannot fake sustained comfort; a regretted reclaim is
    #: reverted within one cycle and backs off further.
    downscale_patience: int = 10
    #: Cores granted per candidate per cycle ("one core at a time").
    grant_per_cycle: float = 1.0

    # -------------------------------------------------------- FirstResponder
    #: Enable the fast path.
    firstresponder: bool = True
    #: Frequency-change hold window as a multiple of the end-to-end QoS
    #: target (paper: ~2× the end-to-end request latency).
    hold_factor: float = 2.0
    #: Modeled primary-thread cost per packet (paper §VI-D: 0.26 µs).
    hook_cost: float = 0.26e-6
    #: Coordinator→worker handoff cost (paper: 0.44 µs enqueue).
    enqueue_cost: float = 0.44e-6
    #: Worker dequeue + MSR write cost (paper: 2.1 µs, off critical path).
    msr_cost: float = 2.1e-6

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
        if self.escalator_interval <= 0:
            raise ValueError("escalator_interval must be positive")
        if self.exec_th <= 0 or self.queue_th < 1.0:
            raise ValueError("invalid thresholds")
        if self.upscale_ttl < 0:
            raise ValueError("upscale_ttl must be non-negative")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha must be in (0, 1]")
        if not (math.isfinite(self.hold_factor) and self.hold_factor > 0):
            raise ValueError(
                f"hold_factor must be finite and positive, got {self.hold_factor!r}"
            )
        # Delays the fast path schedules and the stamp window: NaN would
        # fail at the first packet or silently disable a ``now < until``.
        for name in ("stamp_duration", "hook_cost", "enqueue_cost", "msr_cost"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )
        if self.core_step <= 0 or self.min_cores <= 0:
            raise ValueError("core sizes must be positive")
