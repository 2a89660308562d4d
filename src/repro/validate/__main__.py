"""CLI: ``PYTHONPATH=src python -m repro.validate``.

Runs the differential scenario matrix with all invariant monitors armed
and compares fingerprints against the committed goldens.  Exit status 0
only when every invariant holds and every fingerprint matches.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Optional

from repro.validate.runner import run_matrix
from repro.validate.scenarios import (
    CONTROLLERS,
    FAULT_CONTROLLERS,
    FAULT_SCENARIOS,
    HORIZONTAL_CONTROLLERS,
    HORIZONTAL_SCENARIOS,
    MULTINODE_CONTROLLERS,
    MULTINODE_SCENARIOS,
    SCENARIOS,
    WORKLOADS,
    ZOO_CONTROLLERS,
    ZOO_SCENARIOS,
    fault_matrix,
    horizontal_matrix,
    multinode_matrix,
    scenario_matrix,
    zoo_matrix,
)

#: Cell-family names accepted by ``--family`` (in matrix order).
FAMILIES = ("base", "faults", "horizontal", "zoo", "multinode")


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description=(
            "Run the workload × controller × scenario validation matrix "
            "with runtime invariant monitors armed."
        ),
    )
    parser.add_argument(
        "--workload", action="append", choices=sorted(WORKLOADS),
        help="restrict to a workload family (repeatable)",
    )
    parser.add_argument(
        "--controller", action="append",
        choices=CONTROLLERS + HORIZONTAL_CONTROLLERS + ZOO_CONTROLLERS,
        help="restrict to a controller (repeatable)",
    )
    parser.add_argument(
        "--scenario", action="append",
        choices=tuple(
            dict.fromkeys(
                SCENARIOS
                + FAULT_SCENARIOS
                + HORIZONTAL_SCENARIOS
                + ZOO_SCENARIOS
                + MULTINODE_SCENARIOS
            )
        ),
        help="restrict to a traffic shape or fault scenario (repeatable)",
    )
    parser.add_argument(
        "--family", action="append", choices=FAMILIES,
        help="restrict to a cell family (repeatable)",
    )
    parser.add_argument(
        "--update-golden", action="store_true",
        help="rewrite the committed golden fingerprints from this run",
    )
    parser.add_argument(
        "--golden", type=Path, default=None,
        help="alternate golden file (default: the committed goldens.json)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list matrix cells and exit"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    # The families share the filter flags: each family keeps the
    # controller / scenario names it recognises (a fault-only filter
    # yields no base cells and vice versa), and fault cells exist only
    # for the chain workload and its controller subset.
    base_shapes = fault_shapes = hpa_shapes = zoo_shapes = multi_shapes = None
    if args.scenario is not None:
        base_shapes = [s for s in args.scenario if s in SCENARIOS]
        fault_shapes = [s for s in args.scenario if s in FAULT_SCENARIOS]
        hpa_shapes = [s for s in args.scenario if s in HORIZONTAL_SCENARIOS]
        zoo_shapes = [s for s in args.scenario if s in ZOO_SCENARIOS]
        multi_shapes = [s for s in args.scenario if s in MULTINODE_SCENARIOS]
    base_ctrls = fault_ctrls = hpa_ctrls = zoo_ctrls = multi_ctrls = None
    if args.controller is not None:
        base_ctrls = [c for c in args.controller if c in CONTROLLERS]
        fault_ctrls = [c for c in args.controller if c in FAULT_CONTROLLERS]
        hpa_ctrls = [c for c in args.controller if c in HORIZONTAL_CONTROLLERS]
        zoo_ctrls = [c for c in args.controller if c in ZOO_CONTROLLERS]
        multi_ctrls = [c for c in args.controller if c in MULTINODE_CONTROLLERS]
    families = FAMILIES if args.family is None else tuple(args.family)
    cells = []
    if "base" in families:
        cells += scenario_matrix(
            workloads=args.workload,
            controllers=base_ctrls,
            scenarios=base_shapes,
        )
    if "faults" in families and (args.workload is None or "chain" in args.workload):
        cells += fault_matrix(controllers=fault_ctrls, scenarios=fault_shapes)
    if "horizontal" in families:
        cells += horizontal_matrix(
            workloads=args.workload,
            controllers=hpa_ctrls,
            scenarios=hpa_shapes,
        )
    if "zoo" in families:
        cells += zoo_matrix(
            workloads=args.workload,
            controllers=zoo_ctrls,
            scenarios=zoo_shapes,
        )
    if "multinode" in families:
        cells += multinode_matrix(
            workloads=args.workload,
            controllers=multi_ctrls,
            scenarios=multi_shapes,
        )
    if args.list:
        for cell in cells:
            print(cell.key)
        return 0

    report = run_matrix(
        cells, update_golden=args.update_golden, golden_file=args.golden
    )
    return 0 if (report.ok or report.updated_golden) else 1


if __name__ == "__main__":
    sys.exit(main())
