"""Regenerate the entire evaluation from the command line.

``python -m repro.experiments.run_all [--fast] [--only fig11,fig14]
[--out results/] [--jobs N]``

Runs every table/figure driver, prints each one's paper-shaped rows, and
writes machine-readable CSVs under ``--out``.  This is the artifact's
"analysis step", automated (the original artifact does it manually).

The figure drivers are mutually independent, so with ``--jobs N``
(default: every core) up to ``N`` of them run concurrently in worker
processes; each worker's stdout is captured and replayed in submission
order, so the output reads identically to a serial run.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional, Tuple

__all__ = ["main", "EXPERIMENTS"]


def _flat_value(v):
    """CSV-friendly scalarization of one field value.

    Scalars pass through; sequences of scalars are flattened to a
    ``;``-joined string; arrays are summarized by shape; anything else
    is stringified.  Nothing is silently dropped.  Non-finite floats
    (``inf``/``nan``) are stringified: they are not valid JSON, and CSV
    consumers parsing the export as JSON-typed columns would choke.
    """
    if isinstance(v, float) and not math.isfinite(v):
        return str(v)
    if isinstance(v, (int, float, str, bool)) or v is None:
        return v
    if isinstance(v, (tuple, list)):
        if all(isinstance(x, (int, float, str, bool)) for x in v):
            return ";".join(_fmt(x) for x in v)
        return f"<{type(v).__name__} len={len(v)}>"
    shape = getattr(v, "shape", None)  # ndarray-likes: shape, not payload
    if shape is not None:
        return f"<array shape={tuple(shape)}>"
    return str(v)


def _rows_of(result) -> List[dict]:
    """Conversion of a driver result to flat dict rows (CSV export)."""
    if isinstance(result, dict):
        return [
            {"key": k, "value": _flat_value(v)} for k, v in result.items()
        ]
    rows = []
    for item in result:
        if dataclasses.is_dataclass(item):
            d = {}
            for f in dataclasses.fields(item):
                v = getattr(item, f.name)
                if dataclasses.is_dataclass(v):
                    for sub in dataclasses.fields(v):
                        d[f"{f.name}.{sub.name}"] = _flat_value(
                            getattr(v, sub.name)
                        )
                else:
                    d[f.name] = _flat_value(v)
            rows.append(d)
        else:
            rows.append({"value": _flat_value(item)})
    return rows


def _driver(module: str, data_fn: str | None = None):
    def run(out_dir: str | None, name: str) -> None:
        mod = __import__(f"repro.experiments.{module}", fromlist=["*"])
        if data_fn is None:
            # Modules whose result is inherently presentational.
            mod.main()
            return
        result = getattr(mod, data_fn)()  # run the experiment exactly once
        rows = _rows_of(result)
        if rows:
            from repro.analysis.render import format_table

            headers = sorted(rows[0])
            print(
                format_table(
                    headers,
                    [
                        [_fmt(r.get(h, "")) for h in headers]
                        for r in rows
                    ],
                )
            )
        if out_dir and rows:
            path = os.path.join(out_dir, f"{name}.csv")
            with open(path, "w", newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=sorted(rows[0]))
                writer.writeheader()
                for r in rows:
                    writer.writerow({k: r.get(k, "") for k in sorted(rows[0])})
            print(f"  wrote {path}")

    return run


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.6g}"
    return str(v)


#: name -> runner.  data_fn (when set) also exports CSV; otherwise the
#: module's ``main()`` prints its own result.
EXPERIMENTS: Dict[str, Callable] = {
    "table1": _driver("table1_controllers", data_fn="run_table1"),
    "table3": _driver("table3_workloads", data_fn="run_table3"),
    "fig04": _driver("fig04_detection_delay", data_fn="run_fig04"),
    "fig05": _driver("fig05_threading", data_fn="run_fig05"),
    "fig06": _driver("fig06_sensitivity", data_fn="run_fig06"),
    "fig10": _driver("fig10_short_surges", data_fn="run_fig10"),
    "fig11": _driver("fig11_long_surges", data_fn="run_fig11"),
    "fig12": _driver("fig12_surge_duration", data_fn="run_fig12"),
    "fig13": _driver("fig13_node_scaling", data_fn="run_fig13"),
    "fig14": _driver("fig14_alloc_timeline", data_fn=None),
    "fig15": _driver("fig15_breakdown", data_fn="run_fig15"),
    "overheads": _driver("overheads", data_fn=None),
    "resilience": _driver("resilience", data_fn="run_resilience"),
    "horizontal": _driver("horizontal", data_fn="run_horizontal"),
    "shootout": _driver("shootout", data_fn="run_shootout"),
}


def _run_captured(name: str, out_dir: Optional[str]) -> Tuple[str, str, float]:
    """Worker entry: run one driver with stdout captured.

    Looked up by name so only strings cross the process boundary; the
    worker inherits ``REPRO_FAST``/``REPRO_REPS`` through the environment.
    """
    t0 = time.time()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        EXPERIMENTS[name](out_dir, name)
    return name, buf.getvalue(), time.time() - t0


def _run_parallel(selected: List[str], out_dir: Optional[str], jobs: int) -> None:
    """Fan independent drivers out across ``jobs`` worker processes.

    Output is replayed in submission order as results arrive, so logs
    stay deterministic while the wall clock shrinks to roughly the
    longest driver (plus queueing at ``jobs`` slots).
    """
    with ProcessPoolExecutor(max_workers=min(jobs, len(selected))) as pool:
        futures = [pool.submit(_run_captured, name, out_dir) for name in selected]
        for fut in futures:
            name, text, dt = fut.result()
            print(f"\n===== {name} =====")
            sys.stdout.write(text)
            print(f"  [{name} done in {dt:.0f}s]")


def main(argv: Iterable[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments.run_all",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--only",
        help="comma-separated experiment ids (default: all)",
        default=None,
    )
    parser.add_argument(
        "--fast", action="store_true", help="smoke scale (sets REPRO_FAST=1)"
    )
    parser.add_argument(
        "--out", default=None, help="directory for CSV exports (optional)"
    )
    parser.add_argument(
        "--jobs",
        "-j",
        type=int,
        default=None,
        help="concurrent figure drivers (default: all CPU cores)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    if args.list:
        for name in EXPERIMENTS:
            print(name)
        return 0
    if args.fast:
        os.environ["REPRO_FAST"] = "1"
    if args.out:
        os.makedirs(args.out, exist_ok=True)

    jobs = (os.cpu_count() or 1) if args.jobs is None else args.jobs
    if jobs < 1:
        parser.error(f"--jobs must be >= 1, got {jobs}")

    selected = list(EXPERIMENTS)
    if args.only:
        selected = [s.strip() for s in args.only.split(",") if s.strip()]
        unknown = [s for s in selected if s not in EXPERIMENTS]
        if unknown:
            parser.error(f"unknown experiment(s): {unknown}; see --list")

    t_start = time.time()
    if jobs > 1 and len(selected) > 1:
        _run_parallel(selected, args.out, jobs)
    else:
        for name in selected:
            print(f"\n===== {name} =====")
            t0 = time.time()
            EXPERIMENTS[name](args.out, name)
            print(f"  [{name} done in {time.time() - t0:.0f}s]")
    print(f"\nall done in {time.time() - t_start:.0f}s")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
