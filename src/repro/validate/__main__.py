"""CLI: ``PYTHONPATH=src python -m repro.validate``.

Runs the differential scenario matrix with all invariant monitors armed
and compares fingerprints against the committed goldens.  Exit status 0
only when every invariant holds and every fingerprint matches; 2 when
the filters select no cell.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Iterable, Optional

from repro.validate.runner import run_matrix
from repro.validate.scenarios import FAMILIES, matrix, names


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.validate",
        description=(
            "Run the workload × controller × scenario validation matrix "
            "with runtime invariant monitors armed."
        ),
    )
    parser.add_argument(
        "--workload", action="append", choices=names("workloads"),
        help="restrict to a workload family (repeatable)",
    )
    parser.add_argument(
        "--controller", action="append", choices=names("controllers"),
        help="restrict to a controller (repeatable)",
    )
    parser.add_argument(
        "--scenario", action="append", choices=names("scenarios"),
        help="restrict to a traffic shape or fault scenario (repeatable)",
    )
    parser.add_argument(
        "--family", action="append", choices=list(FAMILIES),
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

    cells = matrix(
        families=args.family,
        workloads=args.workload,
        controllers=args.controller,
        scenarios=args.scenario,
    )
    if not cells:
        chosen = [
            f"--{flag} {name}"
            for flag in ("family", "workload", "controller", "scenario")
            for name in getattr(args, flag) or ()
        ]
        parser.error(f"no matrix cell matches {' '.join(chosen)}")
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
