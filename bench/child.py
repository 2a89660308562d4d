"""One benchmark repetition: a fresh process that builds, runs and checks a cell.

Run by :mod:`bench.run` as ``python -m bench.child '<json>'``; prints its
result as one JSON line.  Exit code 0 on success, 3 when the ``repro`` on
the path cannot build the workload (the line then carries ``skipped``).

:func:`run_rep` is the same work as a function, for tests.
"""

from __future__ import annotations

import dataclasses
import heapq
import json
import resource
import signal
import statistics
import sys
import time
from array import array
from typing import Optional

__all__ = ["EXIT_SKIPPED", "SAMPLE_EVERY", "SAMPLE_REF_S", "SpeedSampler", "counters", "run_rep"]

EXIT_SKIPPED = 3

#: Wall seconds between two host-speed samples.
SAMPLE_EVERY = 0.1
#: Reference seconds of one :class:`SpeedSampler` sample: about the median
#: sample of a child on an idle 2-vCPU VM with CPython 3.11.7.  Host times
#: are reported at this speed.
SAMPLE_REF_S = 1.0e-3


class SpeedSampler:
    """Host speed, sampled all through a child from a timer signal.

    The host this benchmark was calibrated on slows down by up to 2x for
    anything from a fraction of a second to minutes, so every
    :data:`SAMPLE_EVERY` seconds ``SIGALRM`` interrupts whatever runs and
    times a fixed piece of pure-Python work: a heap-and-dict loop
    (interpreter speed) and a pointer chase through a 2 MB array (memory
    speed).  It shares no code with ``repro``, so a change to ``repro``
    never moves it while a slower host does.  :meth:`scaled` turns a
    window's wall seconds into seconds at the reference speed: the time the
    samples took is taken out, and the rest is multiplied by
    ``SAMPLE_REF_S / median sample``.  Sampling costs about 1% of wall time.
    """

    #: Entries of the pointer-chase array (a power of two).
    CHASE = 1 << 19

    def __init__(self) -> None:
        # Zeros: the chase reads an entry only so that the next address
        # depends on the load.
        self._data = array("i", bytes(4 * self.CHASE))
        self._at = 0
        #: (wall time at its end, probe seconds, handler seconds) per sample.
        self.samples: list = []

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY, SAMPLE_EVERY)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def probe(self) -> float:
        """Seconds of one fixed piece of interpreter and memory work."""
        t0 = time.monotonic()
        heap, counts = [], {}
        for i in range(600):
            heapq.heappush(heap, ((i * 7919) % 1009 * 1e-3, i))
        while heap:
            _, i = heapq.heappop(heap)
            counts[i & 255] = counts.get(i & 255, 0) + 1
        # i -> (5 i + 1) mod 2^19 visits every entry once per cycle
        # (Hull-Dobell), with strides no prefetcher follows.
        data, at, mask = self._data, self._at, self.CHASE - 1
        for _ in range(3000):
            at = (5 * at + 1 + data[at]) & mask
        self._at = at
        return time.monotonic() - t0

    def _sample(self, _signum, _frame) -> None:
        t0 = time.monotonic()
        seconds = self.probe()
        t1 = time.monotonic()
        self.samples.append((t1, seconds, t1 - t0))

    def scaled(self, t0: float, t1: float) -> dict:
        """The window ``[t0, t1]`` of ``time.monotonic()``, at reference speed.

        ``raw_s`` is its wall time less the samples taken in it, ``speed``
        the host speed over it relative to the reference, and ``s`` the
        product: seconds the window would have taken at reference speed.
        """
        inside = [s for s in self.samples if t0 < s[0] <= t1]
        raw = (t1 - t0) - sum(s[2] for s in inside)
        # A window shorter than the sampling period is timed right after.
        probes = [s[1] for s in inside] or [self.probe()]
        speed = SAMPLE_REF_S / statistics.median(probes)
        return {"raw_s": raw, "samples": len(inside), "speed": speed, "s": raw * speed}


def run_rep(
    workload: str,
    seed: int,
    *,
    scale: float = 1.0,
    trace: bool = False,
    spawned_at: Optional[float] = None,
    src: Optional[str] = None,
) -> dict:
    """Set up, run and fingerprint one cell; return its measurements.

    ``spawned_at`` is the parent's ``time.monotonic()`` just before it
    started this process (a system-wide clock on Linux), so the set-up
    window covers interpreter start, imports and profiling.  ``src``, when
    given, is the directory ``repro`` must be imported from.
    """
    start = time.monotonic() if spawned_at is None else spawned_at
    sampler = SpeedSampler()
    sampler.start()
    tracer = None
    try:
        t0 = time.monotonic()
        import repro
        import repro.exec.specs  # noqa: F401  (controller registry, part of set-up)
        from repro.experiments.harness import (
            clear_profile_cache,
            profile_targets,
            run_experiment,
        )

        try:
            from repro.validate.fingerprint import scenario_fingerprint
        except ImportError:  # repro predates the validation layer
            scenario_fingerprint = None
        from bench.workloads import build_config

        import_s = time.monotonic() - t0
        if src is not None and not repro.__file__.startswith(src):
            raise RuntimeError(f"repro imported from {repro.__file__}, not from {src}")

        cfg = build_config(workload, seed, scale)
        built = []
        make_controller = cfg.controller_factory

        def recording_factory():
            controller = make_controller()
            built.append(controller)
            return controller

        cfg = dataclasses.replace(cfg, controller_factory=recording_factory)
        clear_profile_cache()
        t1 = time.monotonic()
        targets = profile_targets(cfg)
        ready = time.monotonic()
        profile_s = ready - t1

        if trace:
            from bench.trace import Tracer

            tracer = Tracer()
            tracer.install()
        ends = {}

        def capture(sim, cluster):
            ends["sim"] = sim
            ends["cluster"] = cluster

        t2 = time.monotonic()
        if tracer is None:
            result = run_experiment(cfg, targets, probe=capture)
        else:
            result = tracer.root("harness", run_experiment, cfg, targets, probe=capture)
        t3 = time.monotonic()
    finally:
        if tracer is not None:
            tracer.uninstall()
        sampler.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = sampler.scaled(start, ready)

    sim, cluster = ends["sim"], ends["cluster"]
    summary = result.summary
    rep = {
        "workload": workload,
        "seed": seed,
        "setup": setup,
        "run": sampler.scaled(t2, t3),
        "run_s": t3 - t2,
        "import_s": import_s * setup["speed"],
        "profile_s": profile_s * setup["speed"],
        "rss_mb": rss_mb,
        "sim": {
            "p50_ms": summary.p50 * 1e3,
            "p98_ms": summary.p98 * 1e3,
            "avg_cores": result.avg_cores,
            "energy_j": result.energy,
            "vv_ms_s": summary.violation_volume * 1e3,
        },
        "completed": summary.count,
        "attempted": result.requests_sent,
        "failed": result.errors + result.outstanding,
        "fingerprint": (
            None
            if scenario_fingerprint is None
            else scenario_fingerprint(result, sim, cluster)
        ),
        "counters": counters(result, sim, cluster, built[0]),
    }
    if tracer is not None:
        report = tracer.report()
        report["restored"] = tracer.restored()
        rep["trace"] = report
    return rep


def counters(result, sim, cluster, controller) -> dict:
    """Public work counters of one finished run, named after the layer.

    Counters an older ``repro`` does not have read as 0.
    """
    net = cluster.network
    pool = getattr(net, "pool", None)
    constructed = getattr(pool, "constructed", 0)
    recycled = getattr(pool, "recycled", 0)
    replica_sets = (getattr(cluster, "replica_sets", None) or {}).values()
    # The injector detaches the RPC layer after the run; its counters
    # survive in the result.
    faults = getattr(result, "fault_stats", None) or {}
    alloc = sum(c.alloc_core_seconds for c in cluster.containers.values())
    busy = sum(c.busy_core_seconds for c in cluster.containers.values())
    runtimes = cluster.runtimes.values()
    exec_time = sum(rt.total_exec_time for rt in runtimes)
    stats = result.controller_stats
    # SurgeGuard alone, or the SurgeGuard half of the hybrid controller.
    fast_path = controller
    if not hasattr(fast_path, "boosts_applied"):
        fast_path = getattr(controller, "surgeguard", None)
    return {
        "sim.events": sim.events_fired,
        "sim.handles_constructed": getattr(sim, "handles_constructed", 0),
        "workload.arrivals": result.requests_sent,
        "network.sends": net.packets_sent,
        "network.dropped": getattr(net, "packets_dropped", 0),
        "network.pool_constructed": constructed,
        "network.pool_reuse_frac": (
            recycled / (recycled + constructed) if recycled + constructed else 0.0
        ),
        "lb.resolves": sum(r.dispatched + r.unroutable for r in replica_sets),
        "lb.unroutable": getattr(net, "packets_unroutable", 0),
        # Simulated time requests spent waiting for a pooled connection,
        # as a share of their simulated execution time.
        "threadpool.conn_wait_frac": (
            sum(rt.total_conn_wait for rt in runtimes) / exec_time if exec_time else 0.0
        ),
        "container.busy_frac": busy / alloc if alloc else 0.0,
        "firstresponder.inspected": getattr(fast_path, "packets_inspected", 0),
        "firstresponder.boosts": getattr(fast_path, "boosts_applied", 0),
        "controller.decisions": stats.decision_cycles,
        "controller.actions": stats.total_actions,
        "rpc.retries": faults.get("rpc_retries", 0),
        "rpc.errors": faults.get("rpc_errors", 0),
        "rpc.fail_fast": faults.get("rpc_fail_fast", 0),
    }


def main(argv=None) -> int:
    args = json.loads((sys.argv[1:] if argv is None else argv)[0])
    from bench.workloads import Unsupported

    try:
        rep = run_rep(
            args["workload"],
            args["seed"],
            scale=args["scale"],
            trace=args["trace"],
            spawned_at=args["spawned_at"],
            src=args["src"],
        )
    except Unsupported as exc:
        print(json.dumps({"skipped": str(exc)}))
        return EXIT_SKIPPED
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
