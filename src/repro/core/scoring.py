"""Upscaling-candidate selection — Table II of the paper.

Escalator checks three conditions per container each decision cycle:

1. an incoming ``pkt.upscale`` hint was received (an *upstream*
   container saw queue buildup and this container is within the hint's
   TTL reach) → **this container** is a candidate;
2. this container's window ``queueBuildup`` exceeds ``QUEUE_TH`` →
   **downstream containers** are candidates (and outgoing packets are
   stamped so remote downstream containers learn of it);
3. ``execMetric / expectedExecMetric`` exceeds ``EXEC_TH`` → **this
   container** is a candidate.

Each satisfied condition adds 1 to the relevant candidates' scores, so
containers implicated by more evidence sort first.  Scoring is a pure
function of one container's window + targets — no global state — which
is what keeps Escalator decentralized.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.cluster.runtime import RuntimeWindow
from repro.core.config import EXEC_TH, QUEUE_TH, SurgeGuardConfig

__all__ = ["UPSCALE_RULES", "ContainerScore", "score_container"]

#: Table II, verbatim: detected condition → upscaling candidates.
UPSCALE_RULES: Mapping[str, str] = {
    "pkt.upscale > 0": "container c",
    "queueBuildup violation": "downstream containers, set pkt.upscale",
    "execMetric violation": "container c",
}


@dataclass(frozen=True)
class ContainerScore:
    """Outcome of the three Table II checks for one container."""

    name: str
    #: Condition 1: incoming hint seen this window.
    hint: bool
    #: Condition 2: local queueBuildup over QUEUE_TH.
    queue_violation: bool
    #: Condition 3: execMetric over the profiled envelope.
    exec_violation: bool

    @property
    def self_score(self) -> int:
        """Score accrued by the container itself (conditions 1 and 3;
        condition 2 scores the *downstream* containers instead)."""
        return int(self.hint) + int(self.exec_violation)

    @property
    def marks_downstream(self) -> bool:
        """True when downstream containers must be scored + stamped."""
        return self.queue_violation

    @property
    def any(self) -> bool:
        return self.hint or self.queue_violation or self.exec_violation


def score_container(
    name: str,
    window: RuntimeWindow,
    expected_exec_metric: float,
    expected_exec_time: float,
    config: SurgeGuardConfig,
) -> ContainerScore:
    """Evaluate the Table II conditions on one runtime window.

    With ``config.use_new_metrics`` disabled (the Fig. 15 ablation), the
    controller degrades to the dependence-blind check the baselines use:
    raw execTime against its profiled envelope, no hints, no queue
    metric.
    """
    if window.count == 0:
        return ContainerScore(name, False, False, False)
    if not config.use_new_metrics:
        violated = window.avg_exec_time / expected_exec_time > EXEC_TH
        return ContainerScore(name, False, False, violated)
    hint = window.upscale_hints > 0
    queue_violation = window.queue_buildup > QUEUE_TH
    exec_violation = (
        window.avg_exec_metric / expected_exec_metric > EXEC_TH
    )
    return ContainerScore(name, hint, queue_violation, exec_violation)
