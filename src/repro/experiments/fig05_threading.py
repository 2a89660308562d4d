"""Fig. 5 — threading models hide inter-container dependencies.

Two services, c1 → c2, under a request-rate surge:

* **connection-per-request** (Fig. 5a): the surge propagates concurrency
  into c2, both services' execution metrics rise, and even a
  dependence-blind per-container controller upscales both;
* **fixed-size threadpool** (Fig. 5b): the surge queues *implicitly*
  inside c1 waiting for pool connections; c2 never sees it.  The
  per-container controller pours cores into c1 and never touches c2;
* **SurgeGuard's metrics** (Fig. 5c): ``queueBuildup`` at c1 flags the
  hidden queue and the ``pkt.upscale`` hint upscales c2 as well.

The driver runs both topologies under Parties and under SurgeGuard's
Escalator and reports the cores *gained* by each service during the
surge — the quantity the figure's arrows depict.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.exec.specs import spec
from repro.experiments.harness import ExperimentConfig, run_experiment
from repro.experiments.scale import current_scale
from repro.metrics.timeseries import StepSeries
from repro.services.taskgraph import AppSpec, EdgeSpec, ServiceSpec, WorkDist

__all__ = ["Fig05Row", "run_fig05", "two_service_app"]

BASE_RATE = 1500.0
SURGE_MAG = 1.75


def two_service_app(pool_size: Optional[int]) -> AppSpec:
    """c1 → c2 with the given pool model (None = connection-per-request).

    The pool is Little's-Law sized for the base rate (Eq. 1):
    ``rate × downstream latency ≈ 1500/s × 1.4 ms ≈ 2`` connections in
    flight at steady state, so the default of 4 binds once the surge
    inflates c2's latency — the paper's provisioning recipe.
    """
    return AppSpec(
        name="two-service",
        action="fig05",
        services=(
            ServiceSpec(
                "c1",
                pre_work=WorkDist(1.0e6),
                children=(EdgeSpec("c2", pool_size),),
                initial_cores=1.5,
            ),
            ServiceSpec("c2", pre_work=WorkDist(1.4e6), initial_cores=2.0),
        ),
        root="c1",
        qos_target=8e-3,
        description="Fig. 5 hidden-dependency micro-topology",
    )


@dataclass(frozen=True)
class Fig05Row:
    """One (threading model, controller) run."""

    model: str
    controller: str
    c1_cores_gained: float
    c2_cores_gained: float
    violation_volume: float
    #: Whether c2 was upscaled at all during the surge.
    c2_upscaled: bool


def _cores_gained(alloc_events, service: str, t0: float, t1: float, initial: float) -> float:
    series = StepSeries(0.0, initial)
    for t, name, cores in alloc_events:
        if name == service and t > 0.0:
            series.append(t, cores)
    peak = max(v for t, v in series.changes() if t <= t1)
    return peak - initial


def run_fig05(pool_size: int = 4) -> List[Fig05Row]:
    """Regenerate Fig. 5 (both threading models × both controllers)."""
    sc = current_scale()
    rows: List[Fig05Row] = []
    surge_start = sc.warmup + sc.spike_offset
    surge_end = surge_start + sc.spike_len
    for model, pool in (("conn-per-request", None), ("fixed-pool", pool_size)):
        app = two_service_app(pool)
        for label, factory in (
            ("parties", spec("parties", interval=0.1)),
            ("surgeguard", spec("escalator")),
        ):
            cfg = ExperimentConfig(
                workload=f"fig05-{model}",
                app=app,
                base_rate=BASE_RATE,
                controller_factory=factory,
                spike_magnitude=SURGE_MAG,
                spike_len=sc.spike_len,
                spike_period=100.0,
                spike_offset=sc.spike_offset,
                duration=sc.duration,
                warmup=sc.warmup,
                cores_per_node=12.0,
                profile_duration=sc.profile_duration,
            )
            res = run_experiment(cfg)
            inits = {s.name: s.initial_cores for s in app.services}
            g1 = _cores_gained(res.alloc_events, "c1", surge_start, surge_end + 2.0, inits["c1"])
            g2 = _cores_gained(res.alloc_events, "c2", surge_start, surge_end + 2.0, inits["c2"])
            rows.append(
                Fig05Row(
                    model=model,
                    controller=label,
                    c1_cores_gained=g1,
                    c2_cores_gained=g2,
                    violation_volume=res.violation_volume,
                    c2_upscaled=g2 > 0,
                )
            )
    return rows


def main() -> None:  # pragma: no cover - exercised via benchmarks
    from repro.analysis.render import format_table

    rows = run_fig05()
    print(
        format_table(
            ["model", "controller", "c1 +cores", "c2 +cores", "c2 upscaled?", "VV (ms·s)"],
            [
                (
                    r.model,
                    r.controller,
                    f"{r.c1_cores_gained:.1f}",
                    f"{r.c2_cores_gained:.1f}",
                    "yes" if r.c2_upscaled else "NO",
                    f"{r.violation_volume * 1e3:.2f}",
                )
                for r in rows
            ],
        )
    )


if __name__ == "__main__":  # pragma: no cover
    main()
