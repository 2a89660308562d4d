#!/usr/bin/env python3
"""Hidden-dependency deep dive on socialNetwork ReadUserTimeline.

This example reproduces the intuition behind the paper's Fig. 14 at the
level of individual services: under a fixed-size Thrift threadpool, a
surge queues *inside* user-timeline-service waiting for pool
connections.  We run the surge under Parties and under SurgeGuard and
print, per service:

* the queueBuildup ratio during the surge (where is the hidden queue?),
* core-allocation timelines (who got fed, who starved, what was revoked),
* the end-to-end latency timeline as a sparkline.

Run:  python examples/social_network_surge.py
"""

from collections import defaultdict

import numpy as np

from repro import ExperimentConfig, PartiesController, SurgeGuardController
from repro.analysis.render import format_table, sparkline
from repro.experiments import run_experiment
from repro.metrics.timeseries import StepSeries
from repro.services import get_workload

SURGE_START, SURGE_LEN = 5.0, 4.0


def run(factory):
    return run_experiment(
        ExperimentConfig(
            workload="readUserTimeline",
            controller_factory=factory,
            spike_magnitude=1.75,
            spike_len=SURGE_LEN,
            spike_period=1000.0,     # a single long surge
            spike_offset=SURGE_START - 3.0,
            duration=SURGE_LEN + 6.0,
            warmup=3.0,
            seed=1,
        )
    )


def alloc_timelines(result, app):
    initials = {s.name: s.initial_cores for s in app.services}
    series = {n: StepSeries(0.0, c) for n, c in initials.items()}
    for t, name, cores in sorted(result.alloc_events):
        if t > 0:
            series[name].append(t, cores)
    return series


def main() -> None:
    app = get_workload("readUserTimeline").build()
    surge = (SURGE_START, SURGE_START + SURGE_LEN)

    for label, factory in (
        ("Parties", PartiesController),
        ("SurgeGuard", SurgeGuardController),
    ):
        result = run(factory)
        print(f"\n=== {label} ===")
        print(f"violation volume: {result.violation_volume * 1e3:.2f} ms·s   "
              f"p98: {result.p98 * 1e3:.2f} ms   avg cores: {result.avg_cores:.2f}")

        # Per-service allocation during the surge.
        tls = alloc_timelines(result, app)
        rows = []
        for name in app.service_names:
            s = tls[name]
            rows.append(
                (
                    name,
                    f"{s.value_at(surge[0] - 0.5):.1f}",
                    f"{s.average(*surge):.2f}",
                    f"{max(v for _, v in s.changes()):.1f}",
                )
            )
        print(format_table(["service", "pre-surge", "surge avg", "peak"], rows))

        # End-to-end latency timeline.
        t = result.latency_trace[:, 0]
        lat = result.latency_trace[:, 1]
        if len(t):
            bins = np.linspace(t.min(), t.max(), 80)
            idx = np.digitize(t, bins)
            series = [
                lat[idx == i].mean() if (idx == i).any() else 0.0
                for i in range(1, len(bins))
            ]
            print(f"latency timeline  : {sparkline(series)}")
            print(f"surge window      : "
                  f"{' ' * int((surge[0] - t.min()) / (t.max() - t.min()) * 79)}"
                  f"{'^' * max(1, int(SURGE_LEN / (t.max() - t.min()) * 79))}")


if __name__ == "__main__":
    main()
