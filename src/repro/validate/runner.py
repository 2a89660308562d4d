"""Matrix executor behind ``python -m repro.validate``.

For every scenario cell: run it with **all invariant monitors armed**,
extract the metric fingerprint, and compare it field-for-field against
the committed golden (``goldens.json`` next to this module).  Any
invariant violation or fingerprint drift fails the run; goldens are
regenerated only on explicit ``--update-golden``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional

from repro.experiments.harness import clear_profile_cache, run_experiment
from repro.validate.fingerprint import fingerprint_diff, scenario_fingerprint
from repro.validate.monitors import MonitorSet
from repro.validate.scenarios import (
    Scenario,
    fault_matrix,
    horizontal_matrix,
    multinode_matrix,
    scenario_matrix,
    zoo_matrix,
)

__all__ = ["CellOutcome", "MatrixReport", "golden_path", "run_matrix"]

#: Committed golden fingerprints, keyed by :attr:`Scenario.key`.
_GOLDEN_FILE = "goldens.json"


def golden_path() -> Path:
    """Path of the committed golden-fingerprint file."""
    return Path(__file__).resolve().parent / _GOLDEN_FILE


def load_goldens(path: Optional[Path] = None) -> Dict[str, dict]:
    p = golden_path() if path is None else path
    if not p.exists():
        return {}
    with open(p) as fh:
        return json.load(fh)


@dataclass
class CellOutcome:
    """Everything one matrix cell reports."""

    scenario: Scenario
    fingerprint: dict
    #: Invariant violations (stringified), empty on a clean run.
    violations: List[str]
    #: Fingerprint differences vs the golden, empty on a match.
    diffs: List[str]
    #: Individual invariant evaluations performed by the armed monitors.
    checks: int
    seconds: float
    #: True when no committed golden exists for this cell yet.
    golden_missing: bool = False

    @property
    def ok(self) -> bool:
        return not self.violations and not self.diffs and not self.golden_missing


@dataclass
class MatrixReport:
    """Aggregate of one matrix run."""

    outcomes: List[CellOutcome] = field(default_factory=list)
    updated_golden: bool = False

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.outcomes)

    @property
    def total_violations(self) -> int:
        return sum(len(c.violations) for c in self.outcomes)

    @property
    def total_checks(self) -> int:
        return sum(c.checks for c in self.outcomes)


def run_cell_validated(cell: Scenario) -> CellOutcome:
    """Run one scenario with monitors armed and fingerprint it."""
    monitors = MonitorSet()
    captured = {}

    def probe(sim, cluster) -> None:
        captured["sim"] = sim
        captured["cluster"] = cluster

    t0 = time.perf_counter()
    result = run_experiment(cell.config, monitors=monitors, probe=probe)
    seconds = time.perf_counter() - t0
    fp = scenario_fingerprint(result, captured["sim"], captured["cluster"])
    return CellOutcome(
        scenario=cell,
        fingerprint=fp,
        violations=[str(v) for v in monitors.all_violations],
        diffs=[],
        checks=monitors.total_checks,
        seconds=seconds,
    )


def run_matrix(
    cells: Optional[List[Scenario]] = None,
    *,
    update_golden: bool = False,
    golden_file: Optional[Path] = None,
    verbose: bool = True,
) -> MatrixReport:
    """Run the scenario matrix and compare against committed goldens.

    ``update_golden=True`` rewrites the golden file with the observed
    fingerprints instead of comparing (only the cells actually run are
    rewritten — a filtered run updates a filtered set).
    """
    if cells is None:
        cells = (
            scenario_matrix()
            + fault_matrix()
            + horizontal_matrix()
            + zoo_matrix()
            + multinode_matrix()
        )
    goldens = load_goldens(golden_file)
    report = MatrixReport()
    # Profiling is memoized per workload — clear once up front so the
    # matrix is reproducible regardless of what ran before it.
    clear_profile_cache()
    for cell in cells:
        outcome = run_cell_validated(cell)
        if update_golden:
            goldens[cell.key] = outcome.fingerprint
        else:
            golden = goldens.get(cell.key)
            if golden is None:
                outcome.golden_missing = True
            else:
                outcome.diffs = fingerprint_diff(golden, outcome.fingerprint)
        report.outcomes.append(outcome)
        if verbose:
            _print_cell(outcome)
    if update_golden:
        path = golden_path() if golden_file is None else golden_file
        with open(path, "w") as fh:
            json.dump(goldens, fh, indent=2, sort_keys=True)
            fh.write("\n")
        report.updated_golden = True
        if verbose:
            print(f"wrote {len(goldens)} golden fingerprint(s) to {path}")
    elif verbose:
        _print_summary(report)
    return report


def _print_cell(c: CellOutcome) -> None:
    if c.golden_missing:
        status = "NO-GOLDEN"
    elif c.violations:
        status = "INVARIANT-FAIL"
    elif c.diffs:
        status = "DRIFT"
    else:
        status = "ok"
    print(
        f"{c.scenario.key:<45} {status:>14}  "
        f"checks={c.checks:<6} {c.seconds:5.2f}s"
    )
    for v in c.violations:
        print(f"    violation: {v}")
    for d in c.diffs:
        print(f"    drift: {d}")


def _print_summary(report: MatrixReport) -> None:
    n = len(report.outcomes)
    bad = [c for c in report.outcomes if not c.ok]
    print(
        f"\n{n} cell(s), {report.total_checks} invariant checks, "
        f"{report.total_violations} violation(s), "
        f"{len(bad)} failing cell(s)"
    )
    if report.ok:
        print("matrix OK: all invariants hold, all fingerprints match goldens")
    else:
        print("matrix FAILED")
