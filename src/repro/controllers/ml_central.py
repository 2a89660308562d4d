"""A centralized ML-style controller (the Table I "ML" row).

The paper does not evaluate Sinan/Sage directly — it cites their
properties: *dependence-aware* (they learn inter-container dynamics and
identify root causes correctly), *centralized* (container metrics are
shipped to an inference server, decisions shipped back), and *slow*
(decision granularity >1 s even when inference itself takes tens of
milliseconds, §I/§III-A).

:class:`CentralizedMLController` models exactly that trade-off so the
detection-delay story (Fig. 4) and Table I can include the ML point:

* every ``INTERVAL`` (1 s) it *snapshots* all containers'
  windows — paying a metric-collection delay — then applies a
  root-cause-correct allocation after an additional inference delay;
* root-cause analysis is "oracle-quality" (it reuses SurgeGuard's own
  queueBuildup/execMetric scoring, globally, plus global downstream
  knowledge), so the only thing wrong with it is *when* it acts.

This is intentionally generous to the ML approach: anything it loses,
it loses to latency alone — which is the paper's argument.
"""

from __future__ import annotations

from typing import Dict, List

from repro.controllers.base import Controller, step_cores, step_frequency
from repro.core.config import SurgeGuardConfig
from repro.core.scoring import score_container
from repro.sim.engine import EventHandle

__all__ = ["CentralizedMLController"]

#: Decision granularity (Table I: >1 s for Sinan/Sage).
INTERVAL = 1.0
#: Metric collection (container → inference server) latency.
COLLECTION_DELAY = 0.05
#: Inference + decision distribution latency (paper: "tens to hundreds
#: of milliseconds" for inference alone).
INFERENCE_DELAY = 0.15
#: Core allocation unit.
CORE_STEP = 1.0


class CentralizedMLController(Controller):
    """Root-cause-correct but slow and centralized."""

    name = "ml-central"

    def __init__(self):
        super().__init__()
        # Reuse SurgeGuard's scoring thresholds for the "learned" model.
        self._score_cfg = SurgeGuardConfig()
        #: The collect/apply steps of rounds still in flight, so that
        #: :meth:`stop` cancels them with the loop.
        self._steps: List[EventHandle] = []

    def loops(self):
        return [(INTERVAL, self, "_cycle")]

    def stop(self) -> None:
        super().stop()
        for handle in self._steps:
            handle.cancel()
        self._steps = []

    def _schedule_step(self, delay: float, fn, *args) -> None:
        assert self.sim is not None
        self._steps = [h for h in self._steps if h.active]
        self._steps.append(self.sim.schedule(delay, fn, *args))

    # ----------------------------------------------------------- decision
    def _cycle(self) -> None:
        """Kick off one collect → infer → apply round."""
        self._schedule_step(COLLECTION_DELAY, self._collect)

    def _collect(self) -> None:
        assert self.cluster is not None
        windows = {n: rt.collect() for n, rt in self.cluster.runtimes.items()}
        self._schedule_step(INFERENCE_DELAY, self._apply, windows)

    def _apply(self, windows) -> None:
        assert self.cluster is not None and self.targets is not None
        self.stats.decision_cycles += 1
        scores: Dict[str, int] = {n: 0 for n in windows}
        for n, w in windows.items():
            cs = score_container(
                n,
                w,
                self.targets.expected_exec_metric[n],
                self.targets.expected_exec_time[n],
                self._score_cfg,
            )
            scores[n] += cs.self_score
            if cs.marks_downstream:
                # Centralized = global task-graph knowledge: score *all*
                # downstream containers, on any node.
                for d in self.cluster.app.downstream_of(n):
                    scores[d] += 1
        candidates: List[str] = sorted(
            (n for n in scores if scores[n] > 0),
            key=lambda n: scores[n],
            reverse=True,
        )
        for n in candidates:
            if not step_cores(self.cluster, self.stats, n, CORE_STEP):
                step_frequency(self.cluster, self.stats, n, up=True)
        # Reclaim from clearly-idle containers (generous, Escalator-like).
        for n, w in windows.items():
            if scores[n] == 0 and w.count > 0:
                target = self.targets.expected_exec_metric[n]
                if w.avg_exec_metric < 0.4 * target and w.queue_buildup < 1.05:
                    c = self.cluster.containers[n]
                    if c.frequency > c.dvfs.f_min:
                        step_frequency(self.cluster, self.stats, n, up=False)
