"""Repetition + outlier-trimming protocol (artifact §"Analysis").

"For each spike pattern, we collect 17 data-points for each controller.
While averaging these data-points, we exclude the best and worst
data-points to remove extreme outliers, and average the remaining 15."

Repetition count defaults to the ``REPRO_REPS`` environment variable so
the benchmark suite stays fast by default (1 rep) while the full paper
protocol (17) is one env var away.  With fewer than 3 reps nothing is
trimmed.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.exec.pool import run_reps
from repro.experiments.harness import ExperimentConfig

__all__ = ["CellResult", "default_reps", "run_cell", "trimmed_mean"]


def default_reps() -> int:
    """Repetitions per cell: ``REPRO_REPS`` env var, default 1, paper 17."""
    try:
        reps = int(os.environ.get("REPRO_REPS", "1"))
    except ValueError:
        raise ValueError("REPRO_REPS must be an integer") from None
    if reps < 1:
        raise ValueError("REPRO_REPS must be >= 1")
    return reps


def trimmed_mean(values: Sequence[float], trim: int = 1) -> float:
    """Mean after dropping the ``trim`` best and worst values.

    With ``len(values) <= 2·trim`` nothing is dropped (you cannot trim
    more than you have); this covers the fast default of 1 repetition.
    """
    arr = np.sort(np.asarray(values, dtype=float))
    if arr.size == 0:
        raise ValueError("no values to average")
    if arr.size > 2 * trim:
        arr = arr[trim:-trim] if trim > 0 else arr
    return float(arr.mean())


@dataclass(frozen=True)
class CellResult:
    """Trimmed-mean metrics of one experiment cell."""

    workload: str
    controller: str
    reps: int
    violation_volume: float
    p98: float
    avg_cores: float
    energy: float
    #: Raw per-rep results (kept for figures that need traces).
    runs: tuple = dataclasses.field(default=(), repr=False)


def run_cell(
    cfg: ExperimentConfig,
    *,
    reps: Optional[int] = None,
    trim: int = 1,
    keep_runs: bool = False,
    jobs: Optional[int] = None,
) -> CellResult:
    """Run one cell ``reps`` times (seeds ``seed..seed+reps−1``) and trim.

    ``trim`` and ``reps`` interact: each metric drops the ``trim`` best
    and worst repetitions before averaging, so trimming needs at least
    ``2·trim + 1`` repetitions to leave anything.  The paper's default
    (``trim=1``) degrades gracefully — with 1 or 2 reps nothing is
    trimmed, which keeps the fast ``REPRO_REPS=1`` path meaningful — but
    a larger explicit ``trim`` that would discard *every* repetition is
    a configuration error and raises :class:`ValueError` instead of
    silently averaging untrimmed values.

    Repetitions run through :func:`repro.exec.pool.run_reps`: the
    profiling pass runs once and every repetition shares it.  ``jobs >
    1`` fans them out across worker processes, bit-identical to serial
    execution (same seeds, same trimmed means), and requires a
    picklable config — use :func:`repro.exec.specs.spec` controller
    factories, not lambdas.
    """
    n = default_reps() if reps is None else reps
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got {trim}")
    if trim > 1 and n <= 2 * trim:
        raise ValueError(
            f"trim={trim} would discard all {n} repetition(s); "
            f"need reps >= {2 * trim + 1} (set REPRO_REPS or pass reps=)"
        )
    n_jobs = 1 if jobs is None else int(jobs)
    if n_jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    results = run_reps(cfg, n, jobs=n_jobs)
    return CellResult(
        workload=cfg.workload,
        controller=results[0].controller_name,
        reps=n,
        violation_volume=trimmed_mean([r.violation_volume for r in results], trim),
        p98=trimmed_mean([r.p98 for r in results], trim),
        avg_cores=trimmed_mean([r.avg_cores for r in results], trim),
        energy=trimmed_mean([r.energy for r in results], trim),
        runs=tuple(results) if keep_runs else (),
    )
