"""Escalator — SurgeGuard's user-space slow path (§IV-B).

One Escalator instance runs per node and sees only that node's
containers through a :class:`~repro.cluster.cluster.NodeView`.  Each
decision cycle:

1. **Collect** the per-container runtime windows (the shared-file reads
   of Fig. 7 step ④) and fold each observed ``execMetric`` into the
   sensitivity matrix at the container's current allocation.
2. **Score** every container against the three Table II conditions
   (:func:`repro.core.scoring.score_container`).  A local
   ``queueBuildup`` violation adds a point to each *same-node*
   downstream container directly and stamps the violating container's
   runtime so its outgoing packets carry ``pkt.upscale`` — which is how
   downstream containers on *other* nodes learn they are candidates
   without any controller-to-controller communication.
3. **Upscale** candidates in (score desc, core-sensitivity desc) order,
   one ``CORE_STEP`` each, while the node has free cores; candidates
   that cannot get a core get a frequency step instead.
4. **Downscale**: Parties-style reclamation from the most comfortable
   score-zero container (frequency first, then a core, with hysteresis),
   plus the sensitivity-based revocation of Design Feature #3 — any
   container whose *last* core shows sensitivity below the revocation
   threshold loses it, violating or not (this is what frees the Fig. 14
   hoarder mid-surge).

The resource-allocation skeleton is deliberately Parties' (the paper:
"SurgeGuard does not specify any particular resource-allocation policy
per se, and we use that of Parties"); Escalator's contribution is *which
containers* it picks and in *what order*.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.cluster.cluster import NodeView
from repro.controllers.base import ControllerStats, step_cores, step_frequency
from repro.controllers.targets import TargetConfig
from repro.core.config import (
    COMFORT_RATIO,
    CORE_STEP,
    DOWNSCALE_COOLDOWN_CYCLES,
    DOWNSCALE_PATIENCE,
    EXEC_TH,
    GRANT_PER_CYCLE,
    MIN_CORES,
    QUEUE_TH,
    SENS_REVOKE_TH,
    STAMP_DURATION,
    SurgeGuardConfig,
)
from repro.core.scoring import score_container
from repro.core.sensitivity import SensitivityTracker

__all__ = ["Escalator"]


class Escalator:
    """Per-node slow-path controller.

    Parameters
    ----------
    sim, view:
        The simulator and this node's local view.
    config, targets:
        SurgeGuard settings and the profiled per-container targets.
    stats:
        Shared action counters (aggregated across the per-node units by
        :class:`~repro.core.surgeguard.SurgeGuardController`).
    """

    def __init__(
        self,
        sim: Simulator,
        view: NodeView,
        config: SurgeGuardConfig,
        targets: TargetConfig,
        stats: Optional[ControllerStats] = None,
    ):
        self.sim = sim
        self.view = view
        self.config = config
        self.targets = targets
        self.stats = stats if stats is not None else ControllerStats()
        self.sensitivity = SensitivityTracker(
            alpha=config.alpha,
            step=CORE_STEP,
            max_cores=view.node.cores,
        )
        self._comfort_streak: Dict[str, int] = {
            n: 0 for n in view.container_names
        }
        # shFreq bookkeeping: last seen ∫f dt per container, used to
        # compute each window's *mean* frequency (a boost that decayed
        # mid-window is still accounted for).
        self._freq_integral: Dict[str, float] = {
            n: view.container(n).freq_seconds for n in view.container_names
        }
        self._last_decide_t = sim.now
        # Parties-style downscale verification (the allocation skeleton
        # is Parties', §IV-B): a reclaimed core that provokes a violation
        # is restored and the container left alone for a while.
        self._pending_downscale: Optional[str] = None
        self._cooldown: Dict[str, int] = {}
        self._busy_integral: Dict[str, float] = {
            n: view.container(n).busy_core_seconds
            for n in view.container_names
        }
        #: Last cycle's scores (exposed for tests and the Fig. 14 probe).
        self.last_scores: Dict[str, int] = {}
        #: Optional observer ``(container_name, window)`` called for every
        #: runtime window this Escalator collects — the attachment point
        #: for :mod:`repro.validate` metric-sanity monitors.  ``None``
        #: (the default) costs one comparison per decision cycle.
        self.window_hook: Optional[Callable[[str, object], None]] = None

    # -------------------------------------------------------------- decision
    def decide(self) -> None:
        """One full decision cycle (public for tests and ablations)."""
        cfg = self.config
        self.stats.decision_cycles += 1
        names = self.view.container_names
        windows = {n: self.view.runtime(n).collect() for n in names}
        if self.window_hook is not None:
            for n in names:
                self.window_hook(n, windows[n])

        # Frequency normalization: Escalator synchronizes state with
        # FirstResponder through shFreq (Fig. 7 step ⑥), so it knows what
        # frequency each container actually ran at during the window.
        # Observed execMetrics are scaled back to the base frequency
        # before any comfort / sensitivity judgement — otherwise a
        # fast-path boost masquerades as headroom and cores get stripped
        # mid-boost.  The *window-mean* frequency is used (not the
        # instantaneous one): a boost decaying mid-window must still be
        # normalized away.
        f_min = self.view.node.dvfs.f_min
        dt = self.sim.now - self._last_decide_t
        self._last_decide_t = self.sim.now
        norm: Dict[str, float] = {}
        avg_busy: Dict[str, float] = {}
        for n in names:
            c = self.view.container(n)
            c.sync()
            # .get with a current-value default: a container that appeared
            # mid-run (a scaled-out replica) starts from a zero delta.
            prev = self._freq_integral.get(n, c.freq_seconds)
            self._freq_integral[n] = c.freq_seconds
            prev_busy = self._busy_integral.get(n, c.busy_core_seconds)
            self._busy_integral[n] = c.busy_core_seconds
            if dt > 0:
                mean_f = (c.freq_seconds - prev) / dt
                avg_busy[n] = (c.busy_core_seconds - prev_busy) / dt
            else:
                mean_f = c.frequency
                avg_busy[n] = 0.0
            norm[n] = max(mean_f, f_min) / f_min
        eff_metric = {
            n: windows[n].avg_exec_metric * norm[n] for n in names
        }

        # 1. Sensitivity bookkeeping at the current allocations.
        if cfg.use_sensitivity:
            for n in names:
                w = windows[n]
                if w.count > 0:
                    self.sensitivity.observe(
                        n, self.view.container(n).cores, eff_metric[n]
                    )

        # 2. Table II scoring.
        scores: Dict[str, int] = {n: 0 for n in names}
        for n in names:
            # Dividing the target by the frequency ratio is equivalent to
            # frequency-normalizing the observation (see above).
            cs = score_container(
                n,
                windows[n],
                self.targets.expected_exec_metric[n] / norm[n],
                self.targets.expected_exec_time[n] / norm[n],
                cfg,
            )
            scores[n] += cs.self_score
            if cs.marks_downstream and cfg.use_new_metrics:
                self.view.runtime(n).stamp_upscale(
                    cfg.upscale_ttl, STAMP_DURATION
                )
                for d in self.view.local_downstream(n):
                    scores[d] += 1
        self.last_scores = dict(scores)

        # Verify the previous cycle's Parties-style core reclaim: if the
        # container turned into a candidate (or blew through its exec
        # envelope), give the core back and back off.
        if self._pending_downscale is not None:
            n = self._pending_downscale
            self._pending_downscale = None
            # The container may have left this node between cycles (a
            # reaped replica) — drop the pending verify in that case.
            if n in windows:
                regretted = scores.get(n, 0) > 0 or (
                    windows[n].count > 0
                    and eff_metric[n]
                    > EXEC_TH * self.targets.expected_exec_metric[n]
                )
                if regretted:
                    step_cores(self.view, self.stats, n, CORE_STEP)
                    self._cooldown[n] = DOWNSCALE_COOLDOWN_CYCLES
        for n in list(self._cooldown):
            self._cooldown[n] -= 1
            if self._cooldown[n] <= 0:
                del self._cooldown[n]

        # 3. Upscale candidates: score desc, then sensitivity desc.
        candidates = [n for n in names if scores[n] > 0]
        if cfg.use_sensitivity:
            candidates.sort(
                key=lambda n: (
                    scores[n],
                    self.sensitivity.upscale_priority(
                        n, self.view.container(n).cores
                    ),
                ),
                reverse=True,
            )
        else:
            candidates.sort(key=lambda n: scores[n], reverse=True)
        for n in candidates:
            self._comfort_streak[n] = 0
            # A grant is only useful if the candidate is actually using
            # the cores it already has (blocked-on-pool time does not
            # occupy a core, and a saturated container runs busy ≈ cores).
            # Granting below that line is pure waste — the over-allocation
            # the paper's Fig. 13 faults the baselines for.
            c = self.view.container(n)
            if avg_busy[n] < 0.8 * c.cores:
                continue
            granted = 0.0
            while granted + 1e-9 < GRANT_PER_CYCLE:
                if not step_cores(self.view, self.stats, n, CORE_STEP):
                    break
                granted += CORE_STEP
            if granted == 0.0:
                # No spare cores on this node: frequency is the lever
                # that needs no budget.
                step_frequency(self.view, self.stats, n, up=True)

        # 4a. Parties-style downscale of score-0 containers (hysteretic).
        # Frequency is per-container (no shared budget), so every
        # comfortable container steps its frequency down each cycle —
        # this unwinds FirstResponder boosts promptly once a surge ends.
        # Core reclamation is one-container-per-cycle with long
        # hysteresis and next-cycle verification: sustained comfort (a
        # full second of windows below half the profiled envelope) frees
        # a core back to the node pool, and a reclaim that provokes a
        # violation is reverted and the container blacklisted a while.
        zero = [n for n in names if scores[n] == 0 and n not in self._cooldown]
        core_candidates: List[str] = []
        for n in zero:
            w = windows[n]
            target = self.targets.expected_exec_metric[n]
            is_comfort = w.count == 0 or (
                eff_metric[n] < COMFORT_RATIO * target
                and w.queue_buildup <= QUEUE_TH
            )
            if is_comfort:
                self._comfort_streak[n] = self._comfort_streak.get(n, 0) + 1
                step_frequency(self.view, self.stats, n, up=False)
                if self._comfort_streak[n] >= DOWNSCALE_PATIENCE:
                    core_candidates.append(n)
            else:
                self._comfort_streak[n] = 0
        if core_candidates:
            pick = max(core_candidates, key=lambda n: self._comfort_streak[n])
            if step_cores(
                self.view, self.stats, pick, -CORE_STEP, MIN_CORES
            ):
                self._pending_downscale = pick
            self._comfort_streak[pick] = 0

        # 4b. Sensitivity-based revocation — applies to *any* container
        # whose last core demonstrably buys nothing (Design Feature #3).
        if cfg.use_sensitivity:
            for n in names:
                c = self.view.container(n)
                if self.sensitivity.should_revoke(
                    n, c.cores, SENS_REVOKE_TH
                ):
                    step_cores(
                        self.view, self.stats, n, -CORE_STEP, MIN_CORES
                    )
