"""Fig. 14 — core allocations over time during a long surge.

readUserTimeline, one long 1.75× surge.  The paper (surge at 15–25 s of
a longer run; here the same shape on the scaled clock) shows:

* **Parties / CaladanAlgo** keep feeding ``user-timeline-service`` —
  whose execTime contains the hidden threadpool queue — until it holds
  ~50 % of the node's cores, while the actual bottleneck tier
  (``post-storage-service``, ``post-storage-memcached``) starves;
* **SurgeGuard** spreads cores across the tier from surge onset (the
  queueBuildup hint reaches downstream) and *revokes* low-sensitivity
  cores mid-surge (the paper's 18–20 s and 23–25 s dips).

The driver records full allocation timelines and distils the figure's
claims into numbers: per-service average allocation during the surge,
the hoarder's peak share, and SurgeGuard's mid-surge revocation count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.exec.specs import spec
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.experiments.scale import current_scale
from repro.metrics.timeseries import StepSeries
from repro.services.registry import get_workload

__all__ = ["Fig14Result", "run_fig14", "FOCUS_SERVICES"]

#: The services Fig. 14 plots.
FOCUS_SERVICES = (
    "user-timeline-service",
    "post-storage-service",
    "post-storage-memcached",
)

SURGE_MAG = 1.75
SURGE_LEN = 6.0  # scaled version of the paper's 10 s surge


@dataclass
class Fig14Result:
    """Timelines and distilled statistics for one controller."""

    controller: str
    #: StepSeries of cores per service.
    timelines: Dict[str, StepSeries]
    #: Average cores per focus service during the surge window.
    surge_avg_cores: Dict[str, float]
    #: Peak share of the node's cores held by user-timeline-service.
    hoarder_peak_share: float
    #: Core revocations that happened *during* the surge (any service).
    mid_surge_revocations: int
    violation_volume: float
    surge_window: Tuple[float, float]


def _timelines(alloc_events, services, initials) -> Dict[str, StepSeries]:
    series = {s: StepSeries(0.0, initials[s]) for s in services}
    for t, name, cores in sorted(alloc_events):
        if name in series and t > 0.0:
            series[name].append(t, cores)
    return series


def run_fig14(workload: str = "readUserTimeline") -> List[Fig14Result]:
    """Regenerate Fig. 14 for the three controllers."""
    sc = current_scale()
    profile = get_workload(workload)
    app = profile.build()
    initials = {s.name: s.initial_cores for s in app.services}
    node_cores = None  # default budget
    surge_start = sc.warmup + 2.0
    surge_end = surge_start + SURGE_LEN
    results: List[Fig14Result] = []
    for label, factory in (
        ("parties", spec("parties")),
        ("caladan", spec("caladan")),
        ("surgeguard", spec("surgeguard")),
    ):
        cfg = ExperimentConfig(
            workload=workload,
            controller_factory=factory,
            spike_magnitude=SURGE_MAG,
            spike_len=SURGE_LEN,
            spike_period=1000.0,
            spike_offset=2.0,
            duration=SURGE_LEN + 6.0,
            warmup=sc.warmup,
            profile_duration=sc.profile_duration,
        )
        res = run_experiment(cfg)
        all_services = list(initials)
        tls = _timelines(res.alloc_events, all_services, initials)
        surge_avg = {
            s: tls[s].average(surge_start, surge_end) for s in FOCUS_SERVICES
        }
        node_budget_cores = sum(initials.values()) / 0.65
        peak_uts = max(
            v
            for t, v in tls["user-timeline-service"].changes()
            if t <= surge_end
        )
        # Count downward allocation steps inside the surge window.
        revocations = 0
        for s in all_services:
            changes = tls[s].changes()
            for (t0, v0), (t1, v1) in zip(changes, changes[1:]):
                if surge_start <= t1 <= surge_end and v1 < v0:
                    revocations += 1
        results.append(
            Fig14Result(
                controller=label,
                timelines=tls,
                surge_avg_cores=surge_avg,
                hoarder_peak_share=peak_uts / node_budget_cores,
                mid_surge_revocations=revocations,
                violation_volume=res.violation_volume,
                surge_window=(surge_start, surge_end),
            )
        )
    return results


def main() -> None:  # pragma: no cover - exercised via benchmarks
    from repro.analysis.render import format_table

    results = run_fig14()
    print(
        format_table(
            ["controller", *FOCUS_SERVICES, "uts peak share", "revocations", "VV (ms·s)"],
            [
                (
                    r.controller,
                    *(f"{r.surge_avg_cores[s]:.2f}" for s in FOCUS_SERVICES),
                    f"{r.hoarder_peak_share * 100:.0f}%",
                    r.mid_surge_revocations,
                    f"{r.violation_volume * 1e3:.2f}",
                )
                for r in results
            ],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
