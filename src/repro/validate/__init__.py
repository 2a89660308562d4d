"""Runtime validation layer: invariant monitors + differential matrix.

The behaviour contract every change runs against:

* :mod:`repro.validate.monitors` — pluggable runtime invariant monitors
  that attach to a live :class:`~repro.cluster.cluster.Cluster` /
  :class:`~repro.sim.engine.Simulator` pair and machine-check, during
  any run, conservation of requests, core-allocation feasibility,
  frequency bounds (including FirstResponder boost revert), trace
  causality, Escalator metric sanity, fault-handling hygiene, and the
  load balancer's replica routing ledger.  Zero overhead when not armed.
* :mod:`repro.validate.fingerprint` — compact per-scenario metric
  fingerprints (violation volume, tail latency, final allocations,
  event/packet counts) with exact differential comparison.
* :mod:`repro.validate.scenarios` / :mod:`repro.validate.runner` — the
  table of cell families (:data:`FAMILIES`, walked by :func:`matrix`)
  behind ``python -m repro.validate``, compared against committed
  goldens.
"""

from repro.validate.monitors import (
    CoreFeasibilityMonitor,
    EscalatorSanityMonitor,
    FrequencyBoundsMonitor,
    InvariantMonitor,
    InvariantViolation,
    MonitorSet,
    RequestConservationMonitor,
    TraceCausalityMonitor,
    default_monitors,
)
from repro.validate.fingerprint import fingerprint_diff, scenario_fingerprint
from repro.validate.scenarios import FAMILIES, Scenario, matrix
from repro.validate.runner import run_matrix

__all__ = [
    "FAMILIES",
    "CoreFeasibilityMonitor",
    "EscalatorSanityMonitor",
    "FrequencyBoundsMonitor",
    "InvariantMonitor",
    "InvariantViolation",
    "MonitorSet",
    "RequestConservationMonitor",
    "Scenario",
    "TraceCausalityMonitor",
    "default_monitors",
    "fingerprint_diff",
    "matrix",
    "run_matrix",
    "scenario_fingerprint",
]
