"""Process-pool fan-out for experiment repetitions and cells.

The repetition protocol (``repro.analysis.aggregate.run_cell``) runs the
same cell at seeds ``seed .. seed+reps−1``; every rep is an independent,
deterministically seeded discrete-event simulation, so the work is
embarrassingly parallel.  This module dispatches reps to a
:class:`concurrent.futures.ProcessPoolExecutor` while preserving the
serial protocol **bit for bit**:

* the per-(workload, topology) profiling pass is executed **once in the
  parent** and the resulting :class:`TargetConfig` is shipped to every
  worker, exactly mirroring the serial path where the first rep warms
  the memoized profile cache and later reps reuse it;
* results come back in seed order, so the trimmed means see the same
  value sequence as a serial run;
* workers re-resolve the controller from its picklable
  :class:`repro.exec.specs.ControllerSpec` (closures do not cross
  process boundaries).

Determinism is asserted by ``tests/exec/test_parallel.py`` which
compares ``jobs=4`` against ``jobs=1`` field for field.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
from concurrent.futures import ProcessPoolExecutor
from typing import List, Optional, Sequence, Tuple

from repro.controllers.targets import TargetConfig
from repro.experiments.harness import (
    ExperimentConfig,
    ExperimentResult,
    profile_targets,
    run_experiment,
)

__all__ = ["cpu_jobs", "ensure_picklable", "run_reps"]


def cpu_jobs() -> int:
    """Default worker count: every core the container exposes."""
    return os.cpu_count() or 1


def ensure_picklable(cfg: ExperimentConfig) -> None:
    """Fail fast, with a useful message, on configs that cannot cross a
    process boundary (the classic offender is a lambda controller
    factory — use :func:`repro.exec.specs.spec` instead)."""
    try:
        pickle.dumps(cfg)
    except Exception as exc:
        raise TypeError(
            f"ExperimentConfig is not picklable ({exc}); parallel execution "
            "needs a picklable controller_factory — use "
            "repro.exec.specs.spec(name, **params) instead of a "
            "lambda/closure"
        ) from exc


def _rep_worker(payload: Tuple[ExperimentConfig, TargetConfig, int]) -> ExperimentResult:
    """Run one repetition inside a worker process.

    ``targets`` is the parent's profiling result; passing it explicitly
    bypasses the worker's own (cold) profile cache so no worker ever
    redundantly re-profiles the workload.
    """
    cfg, targets, seed = payload
    return run_experiment(dataclasses.replace(cfg, seed=seed), targets=targets)


def run_reps(
    cfg: ExperimentConfig,
    reps: int,
    *,
    jobs: int,
    targets: Optional[TargetConfig] = None,
    seeds: Optional[Sequence[int]] = None,
) -> List[ExperimentResult]:
    """Run ``reps`` seeded repetitions of ``cfg`` across ``jobs`` workers.

    Returns results in seed order (``cfg.seed .. cfg.seed+reps−1`` unless
    ``seeds`` overrides them), bit-identical to running the same seeds
    serially through :func:`run_experiment`.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    if seeds is None:
        seeds = [cfg.seed + i for i in range(reps)]
    elif len(seeds) != reps:
        raise ValueError(f"got {len(seeds)} seeds for {reps} reps")
    if targets is None:
        targets = profile_targets(cfg)

    if jobs == 1 or reps == 1:
        return [_rep_worker((cfg, targets, s)) for s in seeds]

    ensure_picklable(cfg)
    with ProcessPoolExecutor(max_workers=min(jobs, reps)) as pool:
        return list(pool.map(_rep_worker, [(cfg, targets, s) for s in seeds]))
