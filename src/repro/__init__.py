"""SurgeGuard reproduction — fast and efficient vertical scaling for
microservices (SC'24, Ghosh / Yadwadkar / Erez).

Layout
------
``repro.sim``
    Deterministic discrete-event engine (clock, cancellable events,
    seeded RNG streams).
``repro.cluster``
    The simulated testbed: nodes, DVFS, processor-sharing containers,
    connection pools (both threading models), RPC fabric with
    SurgeGuard's packet metadata, runtime metrics, energy integrals.
``repro.services``
    The evaluated applications (CHAIN + four DeathStarBench actions).
``repro.workload``
    wrk2-style open-loop load generation with spike injection.
``repro.metrics``
    Violation volume (contribution C3), exact percentiles, step timeseries.
``repro.controllers``
    Controller interface + baselines (Parties, CaladanAlgo, Oracle).
``repro.core``
    **SurgeGuard itself**: FirstResponder (per-packet fast path) and
    Escalator (execMetric/queueBuildup scoring + sensitivity-aware
    allocation), assembled per node.
``repro.experiments`` / ``repro.analysis``
    One driver per paper table/figure, plus the 17-run trimmed-mean
    protocol and normalization used in the evaluation.

Quickstart
----------
>>> from repro import ExperimentConfig, run_experiment, SurgeGuardController
>>> cfg = ExperimentConfig(workload="chain",
...                        controller_factory=SurgeGuardController,
...                        duration=6.0, warmup=2.0)
>>> result = run_experiment(cfg)          # doctest: +SKIP
>>> result.violation_volume               # doctest: +SKIP
"""

from repro.sim import RngRegistry, Simulator
from repro.cluster import Cluster, ClusterConfig
from repro.services import AppSpec, EdgeSpec, ServiceSpec, WorkDist, get_workload
from repro.workload import OpenLoopClient, RateSchedule, Spike
from repro.metrics import (
    LatencySummary,
    StepSeries,
    summarize,
    violation_volume,
)
from repro.controllers import (
    CaladanController,
    Controller,
    NullController,
    OracleController,
    PartiesController,
    TargetConfig,
)
from repro.core import (
    Escalator,
    FirstResponder,
    SensitivityTracker,
    SurgeGuardConfig,
    SurgeGuardController,
)
from repro.experiments import ExperimentConfig, ExperimentResult, run_experiment

__version__ = "1.0.0"

__all__ = [
    "AppSpec",
    "CaladanController",
    "Cluster",
    "ClusterConfig",
    "Controller",
    "EdgeSpec",
    "Escalator",
    "ExperimentConfig",
    "ExperimentResult",
    "FirstResponder",
    "LatencySummary",
    "NullController",
    "OpenLoopClient",
    "OracleController",
    "PartiesController",
    "RateSchedule",
    "RngRegistry",
    "SensitivityTracker",
    "ServiceSpec",
    "Simulator",
    "Spike",
    "StepSeries",
    "SurgeGuardConfig",
    "SurgeGuardController",
    "TargetConfig",
    "WorkDist",
    "get_workload",
    "run_experiment",
    "summarize",
    "violation_volume",
    "__version__",
]
