"""Controller-zoo shootout: every vertical controller on one bench.

Not a paper figure — the companion experiment to the controller zoo
(DESIGN.md §11): the no-op baseline, the paper's two reactive baselines
(Parties, CaladanAlgo), SurgeGuard itself, and the two related-work
plugins (StatuScale, LSRAM) run the same steady and periodic-surge
traffic over the three matrix workload families, and the three axes the
scaling papers argue about are tabulated side by side:

* **violation volume** — QoS damage (excess latency integrated over the
  measurement window);
* **energy** — idle-subtracted Joules, the over-provisioning cost the
  vertical scalers exist to avoid;
* **reaction time** — seconds from the first surge's onset to the first
  core *grant* anywhere in the cluster, measured from the recorded
  allocation timeline (``NaN`` for controllers that never upscale, and
  for the steady cells of controllers that sit still — nothing to react
  to).

The grid is deliberately the validate matrix's shape at experiment
scale, so a shootout row can be read next to its golden cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.exec.specs import spec
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.experiments.scale import current_scale

__all__ = [
    "SHOOTOUT_CONTROLLERS",
    "SHOOTOUT_SCENARIOS",
    "ShootoutRow",
    "reaction_time",
    "run_shootout",
]

#: Every vertical controller in the comparison, null first.
SHOOTOUT_CONTROLLERS: Tuple[str, ...] = (
    "null",
    "parties",
    "caladan",
    "surgeguard",
    "statuscale",
    "lsram",
)

#: Traffic shapes (the spike magnitude matches the validate matrix).
SHOOTOUT_SCENARIOS: Tuple[str, ...] = ("steady", "spike")

#: Workloads compared (one per matrix family).
_WORKLOADS: Tuple[str, ...] = ("chain", "readUserTimeline", "searchHotel")

_SPIKE_MAGNITUDE = 2.0


@dataclass(frozen=True)
class ShootoutRow:
    workload: str
    scenario: str
    controller: str
    violation_volume: float
    p98: float
    #: Idle-subtracted energy (J) over the measurement window.
    energy: float
    avg_cores: float
    #: Seconds from first-surge onset to the first core grant (NaN when
    #: the controller never granted after the onset, or under steady
    #: traffic where there is no onset).
    reaction_time: float
    upscale_actions: int
    downscale_actions: int


def reaction_time(
    alloc_events: Sequence[Tuple[float, str, float]], onset: Optional[float]
) -> float:
    """First core *increase* at or after ``onset``, relative to it.

    ``alloc_events`` is the recorded allocation timeline ``(t, name,
    cores)`` including the t=0 snapshot; an increase is any event that
    raises a container's cores above its previous recorded value.
    Returns ``NaN`` when ``onset`` is ``None`` (steady traffic) or no
    post-onset increase exists.
    """
    if onset is None:
        return math.nan
    prev: dict = {}
    for t, name, cores in alloc_events:
        before = prev.get(name)
        prev[name] = cores
        if before is None or cores <= before + 1e-12:
            continue
        if t >= onset:
            return t - onset
    return math.nan


def _shootout_config(workload: str, scenario: str, controller: str) -> ExperimentConfig:
    sc = current_scale()
    cfg = ExperimentConfig(
        workload=workload,
        controller_factory=spec(controller),
        spike_magnitude=None,
        duration=sc.duration,
        warmup=sc.warmup,
        profile_duration=sc.profile_duration,
    )
    if scenario == "spike":
        from dataclasses import replace

        cfg = replace(
            cfg,
            spike_magnitude=_SPIKE_MAGNITUDE,
            spike_len=sc.spike_len,
            spike_period=sc.spike_period,
            spike_offset=sc.spike_offset,
        )
    return cfg


def run_shootout() -> List[ShootoutRow]:
    """Run the controllers × scenarios × workloads grid."""
    sc = current_scale()
    rows: List[ShootoutRow] = []
    for workload in _WORKLOADS:
        for scenario in SHOOTOUT_SCENARIOS:
            onset = sc.warmup + sc.spike_offset if scenario == "spike" else None
            for controller in SHOOTOUT_CONTROLLERS:
                res = run_experiment(
                    _shootout_config(workload, scenario, controller)
                )
                stats = res.controller_stats
                rows.append(
                    ShootoutRow(
                        workload=workload,
                        scenario=scenario,
                        controller=controller,
                        violation_volume=res.summary.violation_volume,
                        p98=res.summary.p98,
                        energy=res.energy,
                        avg_cores=res.avg_cores,
                        reaction_time=reaction_time(res.alloc_events, onset),
                        upscale_actions=stats.upscale_core_actions,
                        downscale_actions=stats.downscale_core_actions,
                    )
                )
    return rows


def main() -> None:  # pragma: no cover - exercised via run_all
    from repro.analysis.render import format_table

    rows = run_shootout()
    print(
        format_table(
            ["workload", "scenario", "controller", "viol-vol", "p98(ms)",
             "energy(J)", "avg-cores", "react(s)", "up", "down"],
            [
                [
                    r.workload,
                    r.scenario,
                    r.controller,
                    f"{r.violation_volume:.4f}",
                    f"{r.p98 * 1e3:.1f}",
                    f"{r.energy:.1f}",
                    f"{r.avg_cores:.2f}",
                    "-" if math.isnan(r.reaction_time) else f"{r.reaction_time:.2f}",
                    str(r.upscale_actions),
                    str(r.downscale_actions),
                ]
                for r in rows
            ],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
