"""Machine-tracked performance benchmark → ``BENCH_exec.json``.

Six measurements, deliberately simple so their trajectory is
comparable across PRs (report ``schema: 8``):

* **engine** — raw event-loop throughput (events/second) on a synthetic
  workload of self-rescheduling timers plus cancel churn, exercising the
  heap's lazy-deletion path the way ``Container`` does;
* **users** (schema 4; one engine since schema 7) — the headline
  ``users_per_wall_second`` row: open-loop end-to-end requests simulated
  per wall-clock second on the standard chain cell;
* **packet_path** — packets/second through the real delivery path
  (``Network.send`` → ``_deliver`` with FirstResponder's RX hook
  installed and a per-packet slack check running), i.e. the per-RPC-hop
  cost every simulated request pays several times over.  Packets follow
  the production ownership discipline (pool acquire at injection,
  release at the serving endpoint), so the row reflects whatever
  recycling mode the process runs under;
* **lb_dispatch** (schema 5) — load-balancer routing decisions per
  second through :meth:`~repro.cluster.loadbalancer.ReplicaSet.resolve`
  for each registered policy over a 4-replica pool — the per-REQUEST
  cost every replicated hop pays at the top of ``Network.send``;
* **memory** (schema 3) — the allocation/GC profile of that same packet
  workload, measured twice (recycling on and off, in one process):
  per-generation GC collection deltas, ``tracemalloc`` peak, and
  steady-state *object churn per 100k packets* — fresh ``RpcPacket`` +
  ``EventHandle`` constructions counted by the pools themselves, so the
  number is deterministic (no timing noise) and CI-gateable;
* **cell** — wall-clock seconds for one standard experiment cell
  (CHAIN × 1.75× surges × SurgeGuard), i.e. the unit of work the
  repetition protocol fans out.

Throughput rows accept ``--best-of N``: single-shot rates on a shared
host swing ±25% run-to-run (the schema-3 → schema-5 engine-row "drop"
from ~185k to ~127k ev/s reproduces as exactly this noise on identical
code), so the committed report takes the best of a few repeats and
records the repeat count alongside the rate.

Run ``python -m repro.exec.bench`` from the repo root; it writes
``BENCH_exec.json`` there (override with ``--out``).  Pass ``--append``
to fold the previous report into a per-commit ``history`` list (capped
at the last :data:`HISTORY_MAX` entries) instead of overwriting it.  CI
runs the smoke variant (``tests/exec/test_bench.py``) which asserts
conservative events/second, packets/second, and users/second floors plus the schema-3 allocation ceilings so
catastrophic regressions fail the build.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import sys
import time
import tracemalloc
from typing import Iterable, Iterator, Optional

from repro.sim.engine import Simulator

__all__ = [
    "append_history",
    "bench_cell",
    "bench_engine",
    "bench_lb_dispatch",
    "bench_memory",
    "bench_packet_path",
    "bench_users",
    "main",
    "run_benchmarks",
]

#: Default synthetic event count for the engine measurement.
DEFAULT_EVENTS = 300_000

#: Default packet count for the packet-path measurement.
DEFAULT_PACKETS = 100_000

#: Default end-to-end requests for the users_per_wall_second row.
DEFAULT_USERS = 20_000

#: Conservative floor asserted by the CI smoke test (events/second).
#: Tightened from 40k after the PR-10 variance audit: same-code
#: single-shot rates on the dev host span 127k–171k ev/s, so even the
#: noisiest observation keeps >2× headroom over this floor.
ENGINE_FLOOR_EPS = 60_000.0

#: Floor on the headline users_per_wall_second row (end-to-end requests
#: simulated per wall-clock second; the dev-core number is >10k).
USERS_FLOOR_UPS = 2_000.0

#: Conservative packets/second floor for the packet-path smoke test.
#: Tightened from 25k in the PR-10 variance audit (same-code runs span
#: ~197k–292k pkt/s on the dev host; the floor keeps ~5× headroom under
#: the worst observation).
PACKET_FLOOR_PPS = 40_000.0

#: Default routing decisions per policy for the lb_dispatch measurement.
DEFAULT_LB_DISPATCHES = 200_000

#: Conservative floor on LB routing decisions/second (slowest policy).
#: An idle dev core resolves >1M/s round-robin and >400k/s consistent-
#: hash; the floor leaves shared CI runners an order of magnitude.
LB_DISPATCH_FLOOR = 100_000.0

#: ``--append`` history entries retained (newest last).
HISTORY_MAX = 20

#: Ceiling on pooled steady-state object churn per 100k packets.  With
#: recycling on, the packet rig constructs a handful of objects during
#: pool warm-up and then recirculates them, so steady state is ~0; the
#: ceiling only needs to sit far below the ~200k/100k-packets the
#: unpooled path constructs.
CHURN_CEILING_PER_100K = 2_000.0

#: Ceiling on gen-2 (full) GC collections during the pooled memory run.
#: Steady state allocates nothing, so the mature generation should not
#: churn at all; a couple are allowed for interpreter background noise.
GC_GEN2_CEILING = 2


def bench_engine(
    n_events: int = DEFAULT_EVENTS, fanout: int = 64, best_of: int = 1
) -> dict:
    """Measure event-loop throughput on a synthetic timer workload.

    ``fanout`` timers each reschedule themselves on a fixed small delay;
    every firing also schedules a decoy event and cancels the previous
    decoy, so roughly half of all heap entries are lazily cancelled —
    the same churn profile ``Container`` rescheduling produces.

    ``best_of`` repeats the measurement and keeps the fastest run:
    single-shot rates on a shared host swing ±25%, and the *best* run is
    the one least polluted by other tenants, i.e. closest to the code's
    actual cost.
    """
    if n_events < 1:
        raise ValueError("n_events must be >= 1")
    if best_of < 1:
        raise ValueError("best_of must be >= 1")
    best = None
    for _ in range(best_of):
        sim = Simulator()
        decoys = [None] * fanout

        def tick(slot: int, delay: float) -> None:
            old = decoys[slot]
            if old is not None:
                old.cancel()
            decoys[slot] = sim.schedule(delay * 7.0, _noop)
            sim.schedule(delay, tick, slot, delay)

        for i in range(fanout):
            sim.schedule(0.0, tick, i, 1e-4 * (1 + i % 7))

        t0 = time.perf_counter()
        sim.run(max_events=n_events)
        dt = time.perf_counter() - t0
        fired = sim.events_fired
        row = {
            "events": fired,
            "seconds": dt,
            "events_per_sec": fired / dt if dt > 0 else float("inf"),
            "pending_at_end": sim.events_pending,
            "repeats": best_of,
        }
        if best is None or row["events_per_sec"] > best["events_per_sec"]:
            best = row
    return best


def _noop() -> None:
    pass


def bench_users(n_requests: int = DEFAULT_USERS) -> dict:
    """The headline row: open-loop users simulated per wall second.

    The standard chain app under a steady rate sized so the cluster
    keeps up, driven through the full ingress → RPC-tree → completion
    path.
    """
    if n_requests < 1:
        raise ValueError("n_requests must be >= 1")
    from repro.cluster.cluster import Cluster, ClusterConfig
    from repro.services.registry import get_workload
    from repro.sim.rng import RngRegistry
    from repro.workload.arrivals import RateSchedule
    from repro.workload.generator import OpenLoopClient

    workload = get_workload("chain")
    sim = Simulator()
    cluster = Cluster(
        sim, workload.build(), ClusterConfig(n_nodes=1), RngRegistry(3)
    )
    rate = workload.base_rate
    client = OpenLoopClient(
        sim,
        cluster,
        RateSchedule(rate),
        duration=n_requests / rate,
        pacing="poisson",
        rng=RngRegistry(11).stream("client"),
    )
    client.begin()
    t0 = time.perf_counter()
    sim.run(until=n_requests / rate + 1.0)
    dt = time.perf_counter() - t0
    return {
        "requests": n_requests,
        "users_per_wall_second": client.stats.sent / dt if dt > 0 else float("inf"),
    }


@contextlib.contextmanager
def _pool_env(pooled: bool) -> Iterator[None]:
    """Temporarily force ``REPRO_POOL`` for objects *constructed* inside.

    The recycling switches are read at construction time (see
    :mod:`repro.sim.recycle`), so wrapping only the rig build is enough
    to get both modes in one process.
    """
    before = os.environ.get("REPRO_POOL")
    os.environ["REPRO_POOL"] = "1" if pooled else "0"
    try:
        yield
    finally:
        if before is None:
            del os.environ["REPRO_POOL"]
        else:
            os.environ["REPRO_POOL"] = before


class _PacketRig:
    """The packet-path workload behind the throughput and memory rows.

    A real single-node CHAIN cluster with a FirstResponder installed on
    its node, so every delivery pays the authentic RX path: route
    resolution, jitter draw, surge lookup, hook overhead, the slack
    check, and handler dispatch.  Packets ping-pong through a sink
    endpoint whose progress target is generous enough that no boost ever
    fires — this exercises the steady-state fast path, not the (rare)
    violation path.  Packet ownership follows the production discipline:
    pool acquire at injection, release at the serving endpoint.
    """

    def __init__(self) -> None:
        from repro.cluster.cluster import Cluster, ClusterConfig
        from repro.controllers.targets import TargetConfig
        from repro.core.config import SurgeGuardConfig
        from repro.core.firstresponder import FirstResponder
        from repro.services.registry import get_workload
        from repro.sim.rng import RngRegistry

        self.sim = Simulator()
        self.cluster = Cluster(
            self.sim,
            get_workload("chain").build(),
            ClusterConfig(n_nodes=1),
            RngRegistry(1),
        )
        sink_name = "bench_sink"
        names = list(self.cluster.containers) + [sink_name]
        targets = TargetConfig(
            expected_exec_metric={n: 1.0 for n in names},
            expected_exec_time={n: 1.0 for n in names},
            expected_time_from_start={n: 1.0 for n in names},
            qos_target=0.05,
        )
        self.responder = FirstResponder(
            self.sim, self.cluster.node_views[0], SurgeGuardConfig(), targets
        )
        self.responder.install()

        from repro.cluster.packet import REQUEST

        net = self.cluster.network
        self.delivered = 0
        self._target = 0

        def fire() -> None:
            net.send(
                net.pool.acquire(
                    self.delivered, REQUEST, "client", sink_name, self.sim.now
                )
            )

        def sink(pkt) -> None:
            self.delivered += 1
            # The sink is the serving endpoint: the request's life ends
            # here (server-side release point, as in ServiceInstance).
            net.pool.release(pkt)
            if self.delivered < self._target:
                fire()

        net.register(sink_name, self.cluster.nodes[0], sink)
        self._fire = fire

    def pump(self, n_packets: int) -> None:
        """Deliver ``n_packets`` more packets, back to back."""
        self._target = self.delivered + n_packets
        self._fire()
        self.sim.run()

    def alloc_counters(self) -> dict:
        """Cumulative construction/recycle counters of both free lists."""
        pool = self.cluster.network.pool
        return {
            "packets_constructed": pool.constructed,
            "packets_recycled": pool.recycled,
            "packets_released": pool.released,
            "handles_constructed": self.sim.handles_constructed,
            "handles_recycled": self.sim.handles_recycled,
        }


def bench_packet_path(n_packets: int = DEFAULT_PACKETS, best_of: int = 1) -> dict:
    """Measure packets/second through ``Network.send`` → ``_deliver``.

    ``best_of`` keeps the fastest of N fresh-rig repeats (see
    :func:`bench_engine` for the rationale).
    """
    if n_packets < 1:
        raise ValueError("n_packets must be >= 1")
    if best_of < 1:
        raise ValueError("best_of must be >= 1")
    best = None
    for _ in range(best_of):
        rig = _PacketRig()
        t0 = time.perf_counter()
        rig.pump(n_packets)
        dt = time.perf_counter() - t0
        row = {
            "packets": rig.delivered,
            "seconds": dt,
            "packets_per_sec": rig.delivered / dt if dt > 0 else float("inf"),
            "hook_inspected": rig.responder.packets_inspected,
            "repeats": best_of,
        }
        if best is None or row["packets_per_sec"] > best["packets_per_sec"]:
            best = row
    return best


#: Packets pumped before the measured segment of a memory run, so pool
#: warm-up and cluster assembly don't pollute the steady-state numbers.
_MEMORY_WARMUP_PACKETS = 4_096


def _measure_memory_mode(n_packets: int, *, pooled: bool) -> dict:
    with _pool_env(pooled):
        rig = _PacketRig()
    rig.pump(min(_MEMORY_WARMUP_PACKETS, n_packets))
    base = rig.alloc_counters()
    gc.collect()
    gc_before = [s["collections"] for s in gc.get_stats()]
    tracemalloc.start()
    rig.pump(n_packets)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gc_after = [s["collections"] for s in gc.get_stats()]
    counters = rig.alloc_counters()
    delta = {k: counters[k] - base[k] for k in counters}
    churn = delta["packets_constructed"] + delta["handles_constructed"]
    return {
        "packets": n_packets,
        "gc_collections": [a - b for a, b in zip(gc_after, gc_before)],
        "tracemalloc_peak_kb": peak / 1024.0,
        "objects_constructed": churn,
        "objects_constructed_per_100k": churn * 100_000.0 / n_packets,
        "alloc_counters": delta,
    }


def bench_memory(n_packets: int = DEFAULT_PACKETS) -> dict:
    """Allocation/GC profile of the packet workload, recycling on vs off.

    Untimed (it runs under ``tracemalloc``, which slows the interpreter);
    the throughput story lives in :func:`bench_packet_path`.  The churn
    counters come from the pools themselves — fresh ``RpcPacket`` and
    ``EventHandle`` constructions after a warm-up segment — so both
    modes' numbers are exactly reproducible on any machine.
    """
    if n_packets < 1:
        raise ValueError("n_packets must be >= 1")
    return {
        "packets": n_packets,
        "warmup_packets": min(_MEMORY_WARMUP_PACKETS, n_packets),
        "pooled": _measure_memory_mode(n_packets, pooled=True),
        "unpooled": _measure_memory_mode(n_packets, pooled=False),
    }


class _DispatchPkt:
    """Stub packet for the LB rig: policies only read the request id."""

    __slots__ = ("request_id",)

    def __init__(self) -> None:
        self.request_id = 0


def bench_lb_dispatch(n_dispatches: int = DEFAULT_LB_DISPATCHES) -> dict:
    """Measure LB routing decisions/second per policy (4-replica pool).

    Drives :meth:`ReplicaSet.resolve` — the exact per-REQUEST decision
    point at the top of ``Network.send`` — with all replicas READY and
    healthy, so the row times the steady-state policy cost (RR counter,
    least-loaded scan, consistent-hash ring lookup), not lifecycle
    filtering edge cases.
    """
    if n_dispatches < 1:
        raise ValueError("n_dispatches must be >= 1")
    from repro.cluster.loadbalancer import (
        LB_POLICIES,
        Replica,
        ReplicaSet,
        make_policy,
        replica_name,
    )

    class _Inst:
        def __init__(self) -> None:
            self.inflight = 0
            self._down = False

    policies = {}
    pkt = _DispatchPkt()
    for name in sorted(LB_POLICIES):
        rset = ReplicaSet("svc", make_policy(name))
        for i in range(4):
            r = Replica(replica_name("svc", i), "svc", i)
            r.instance = _Inst()
            rset.add(r)
        resolve = rset.resolve
        t0 = time.perf_counter()
        for i in range(n_dispatches):
            pkt.request_id = i
            resolve(pkt)
        dt = time.perf_counter() - t0
        if rset.dispatched != n_dispatches:  # pragma: no cover - rig bug
            raise AssertionError("LB rig dropped dispatches")
        policies[name] = {
            "dispatches": n_dispatches,
            "dispatches_per_sec": n_dispatches / dt if dt > 0 else float("inf"),
        }
    return {
        "replicas": 4,
        "policies": policies,
        "min_dispatches_per_sec": min(
            p["dispatches_per_sec"] for p in policies.values()
        ),
    }


def bench_cell(
    *, reps: int = 1, jobs: int = 1, workload: str = "chain"
) -> dict:
    """Time one standard experiment cell (profiling pass included)."""
    from repro.analysis.aggregate import run_cell
    from repro.exec.specs import spec
    from repro.experiments.harness import ExperimentConfig, clear_profile_cache

    cfg = ExperimentConfig(
        workload=workload,
        controller_factory=spec("surgeguard"),
        spike_magnitude=1.75,
        spike_len=1.0,
        spike_period=5.0,
        duration=6.0,
        warmup=2.0,
        profile_duration=2.0,
        seed=1,
    )
    clear_profile_cache()  # cold, comparable across runs
    t0 = time.perf_counter()
    cell = run_cell(cfg, reps=reps, jobs=jobs)
    dt = time.perf_counter() - t0
    return {
        "workload": workload,
        "controller": cell.controller,
        "reps": reps,
        "jobs": jobs,
        "seconds": dt,
        "seconds_per_rep": dt / reps,
        "violation_volume": cell.violation_volume,
    }


def run_benchmarks(
    *,
    n_events: int = DEFAULT_EVENTS,
    n_packets: int = DEFAULT_PACKETS,
    n_users: int = DEFAULT_USERS,
    n_lb_dispatches: int = DEFAULT_LB_DISPATCHES,
    best_of: int = 1,
    reps: int = 1,
    jobs: int = 1,
    skip_cell: bool = False,
    skip_memory: bool = False,
) -> dict:
    """Run all measurements and return the report dict (schema 8)."""
    report = {
        "schema": 8,
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "machine": {
            "cpu_count": os.cpu_count(),
            "platform": platform.platform(),
            "python": sys.version.split()[0],
        },
        "engine": bench_engine(n_events, best_of=best_of),
        "users": bench_users(n_users),
        "packet_path": bench_packet_path(n_packets, best_of=best_of),
        "lb_dispatch": bench_lb_dispatch(n_lb_dispatches),
    }
    if not skip_memory:
        report["memory"] = bench_memory(n_packets)
    if not skip_cell:
        report["cell"] = bench_cell(reps=reps, jobs=jobs)
    return report


def _history_entry(report: dict) -> dict:
    """Compact one prior report into a per-commit trajectory point."""
    entry = {
        "generated_at": report.get("generated_at"),
        "schema": report.get("schema"),
        "engine_events_per_sec": report.get("engine", {}).get("events_per_sec"),
        "packet_path_packets_per_sec": report.get("packet_path", {}).get(
            "packets_per_sec"
        ),
    }
    density = report.get("engine_density")
    if density:
        entry["high_density_speedup"] = density.get("high_density_speedup")
    users = report.get("users")
    if users:
        entry["users_per_wall_second"] = users.get("users_per_wall_second")
    lb = report.get("lb_dispatch")
    if lb:
        entry["lb_min_dispatches_per_sec"] = lb.get("min_dispatches_per_sec")
    cell = report.get("cell")
    if cell:
        entry["cell_seconds_per_rep"] = cell.get("seconds_per_rep")
    memory = report.get("memory")
    if memory:
        entry["churn_per_100k_pooled"] = memory.get("pooled", {}).get(
            "objects_constructed_per_100k"
        )
        entry["churn_per_100k_unpooled"] = memory.get("unpooled", {}).get(
            "objects_constructed_per_100k"
        )
    return entry


def append_history(report: dict, out_path: str) -> dict:
    """Fold the previous ``out_path`` report into ``report["history"]``.

    The prior snapshot is compacted to its headline rates and appended
    to the trajectory it was itself carrying, so ``--append`` across
    commits yields one per-commit series instead of only the latest
    numbers.  The series keeps only the newest :data:`HISTORY_MAX`
    entries — the trajectory is a trend indicator, not an archive, and
    an unbounded list would grow the committed report forever.  Missing
    or unparsable prior files are ignored.
    """
    try:
        with open(out_path) as fh:
            prior = json.load(fh)
    except (OSError, ValueError):
        return report
    if not isinstance(prior, dict):
        return report
    history = [h for h in prior.get("history", ()) if isinstance(h, dict)]
    history.append(_history_entry(prior))
    report["history"] = history[-HISTORY_MAX:]
    return report


def main(argv: Optional[Iterable[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.exec.bench",
        description="Benchmark the engine + a standard cell; write BENCH_exec.json.",
    )
    parser.add_argument(
        "--events", type=int, default=DEFAULT_EVENTS,
        help=f"synthetic engine events (default {DEFAULT_EVENTS})",
    )
    parser.add_argument(
        "--packets", type=int, default=DEFAULT_PACKETS,
        help=f"packet-path packets (default {DEFAULT_PACKETS})",
    )
    parser.add_argument(
        "--users", type=int, default=DEFAULT_USERS,
        help=f"end-to-end requests for the users row (default {DEFAULT_USERS})",
    )
    parser.add_argument(
        "--lb-dispatches", type=int, default=DEFAULT_LB_DISPATCHES,
        help="LB routing decisions per policy "
             f"(default {DEFAULT_LB_DISPATCHES})",
    )
    parser.add_argument(
        "--best-of", type=int, default=1,
        help="repeats per throughput row, fastest kept (default 1; the "
             "committed report uses 3 to suppress shared-host noise)",
    )
    parser.add_argument(
        "--reps", type=int, default=1, help="cell repetitions (default 1)"
    )
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes for the cell reps (default 1)",
    )
    parser.add_argument(
        "--skip-cell", action="store_true", help="engine measurement only"
    )
    parser.add_argument(
        "--skip-memory", action="store_true",
        help="skip the allocation/GC profile (schema-3 memory section)",
    )
    parser.add_argument(
        "--append", action="store_true",
        help="fold the previous report at --out into a per-commit "
             "'history' list instead of discarding it",
    )
    parser.add_argument(
        "--out", default="BENCH_exec.json",
        help="output path (default: BENCH_exec.json in the current directory)",
    )
    args = parser.parse_args(list(argv) if argv is not None else None)

    report = run_benchmarks(
        n_events=args.events,
        n_packets=args.packets,
        n_users=args.users,
        n_lb_dispatches=args.lb_dispatches,
        best_of=args.best_of,
        reps=args.reps,
        jobs=args.jobs,
        skip_cell=args.skip_cell,
        skip_memory=args.skip_memory,
    )
    if args.append:
        append_history(report, args.out)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")

    eng = report["engine"]
    print(f"engine: {eng['events']} events in {eng['seconds']:.3f}s "
          f"= {eng['events_per_sec']:,.0f} ev/s")
    users = report["users"]
    print(f"users:  {users['users_per_wall_second']:,.0f} users/wall-s")
    pkt = report["packet_path"]
    print(f"packet: {pkt['packets']} packets in {pkt['seconds']:.3f}s "
          f"= {pkt['packets_per_sec']:,.0f} pkt/s")
    lb = report["lb_dispatch"]
    lb_parts = ", ".join(
        f"{name} {row['dispatches_per_sec']:,.0f}/s"
        for name, row in lb["policies"].items()
    )
    print(f"lb:     {lb_parts} (min {lb['min_dispatches_per_sec']:,.0f}/s)")
    memory = report.get("memory")
    if memory:
        pooled, unpooled = memory["pooled"], memory["unpooled"]
        print(f"memory: churn/100k packets {pooled['objects_constructed_per_100k']:,.0f} "
              f"pooled vs {unpooled['objects_constructed_per_100k']:,.0f} unpooled; "
              f"gc {pooled['gc_collections']} vs {unpooled['gc_collections']}; "
              f"peak {pooled['tracemalloc_peak_kb']:,.0f} KiB vs "
              f"{unpooled['tracemalloc_peak_kb']:,.0f} KiB")
    cell = report.get("cell")
    if cell:
        print(f"cell:   {cell['workload']}×{cell['controller']} "
              f"reps={cell['reps']} jobs={cell['jobs']} "
              f"→ {cell['seconds']:.2f}s ({cell['seconds_per_rep']:.2f}s/rep)")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
