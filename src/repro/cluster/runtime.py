"""Per-container runtime metrics — the paper's modified service runtimes.

The paper instruments DeathStarBench so each container reports averaged
metrics to Escalator over shared files (Fig. 7 step ④).  This module is
that instrumentation.  For every completed request at a container it
records:

* ``execTime`` — wall time from request arrival at the container to the
  response leaving it (includes downstream round trips, exactly as a
  service-side span would measure it);
* ``timeWaitingForFreeConn`` — total time blocked waiting for a pooled
  connection (the *implicit* threadpool queue of §III-B);
* ``execMetric = execTime − timeWaitingForFreeConn``  (Eq. 2);
* ``observedTimeFromStart`` at arrival — used for profiling
  ``expectedTimeFromStart``.

Controllers read *windows* — aggregates over all requests completed
since their previous read — via :meth:`ContainerRuntime.collect`; the
window-level ``queueBuildup = Σ execTime / Σ execMetric`` (Eq. 3, the
ratio of the window means).

The runtime also implements the decentralized **upscale-hint plumbing**
(Table II / §IV):

* Escalator stamps a container via :meth:`stamp_upscale`; while the stamp
  is live, outgoing request packets carry ``upscale = ttl``.
* A request arriving with ``pkt.upscale = k > 0`` marks the container as
  an upscaling candidate *and* propagates ``k − 1`` on that request's own
  downstream packets.
"""

from __future__ import annotations

from dataclasses import dataclass
from repro.sim.engine import Simulator

__all__ = ["ContainerRuntime", "RuntimeWindow"]


@dataclass(frozen=True)
class RuntimeWindow:
    """Aggregated metrics for one reporting window of one container."""

    #: Window boundaries (simulated seconds).
    t_start: float
    t_end: float
    #: Requests completed in the window.
    count: int
    #: Mean wall execution time per request (seconds).
    avg_exec_time: float
    #: Mean connection-wait per request (seconds).
    avg_conn_wait: float
    #: Mean execMetric per request (seconds) — Eq. 2.
    avg_exec_metric: float
    #: Window queue-buildup ratio — Eq. 3 (1.0 when idle or no pools).
    queue_buildup: float
    #: Requests that *arrived* carrying a positive ``upscale`` hint.
    upscale_hints: int
    #: Largest incoming hint TTL seen in the window.
    max_hint_ttl: int
    #: Mean observedTimeFromStart at arrival (seconds).
    avg_time_from_start: float

    @property
    def throughput(self) -> float:
        """Completed requests per second over the window."""
        dt = self.t_end - self.t_start
        return self.count / dt if dt > 0 else 0.0


class ContainerRuntime:
    """Metric collector and hint relay for one container.

    Parameters
    ----------
    sim:
        The simulator (timestamps).
    name:
        Container name (matches the :class:`~repro.cluster.container.Container`).
    """

    def __init__(self, sim: Simulator, name: str):
        self.sim = sim
        self.name = name
        self._reset_window()
        self._window_start = sim.now
        # Live upscale stamp (set by Escalator on a queueBuildup violation).
        self._stamp_ttl = 0
        self._stamp_until = -1.0
        # Lifetime totals (used by profiling and diagnostics).
        self.total_count = 0
        self.total_exec_time = 0.0
        self.total_exec_metric = 0.0
        self.total_conn_wait = 0.0
        self.total_arrivals = 0
        self.total_time_from_start = 0.0

    def reset_window(self) -> None:
        """Discard the in-progress window (container restart semantics).

        A restarted container's runtime starts a fresh reporting window
        at the restart time: pre-crash partial sums describe a process
        that no longer exists and would skew the controller's first
        post-restart window.  Lifetime totals are kept (profiling reads
        them once, before any fault fires).  The live upscale stamp is
        cleared — stamps live in the crashed process's memory.
        """
        self._reset_window()
        self._window_start = self.sim.now
        self._stamp_ttl = 0
        self._stamp_until = -1.0

    def _reset_window(self) -> None:
        self._sum_exec = 0.0
        self._sum_wait = 0.0
        self._sum_metric = 0.0
        self._sum_tfs = 0.0
        self._count = 0
        self._hints = 0
        self._max_ttl = 0

    # ------------------------------------------------------------ recording
    def on_arrival(self, time_from_start: float, upscale_ttl: int) -> None:
        """Record request-arrival observations (progress + incoming hints)."""
        self._sum_tfs += time_from_start
        self.total_arrivals += 1
        self.total_time_from_start += time_from_start
        if upscale_ttl > 0:
            self._hints += 1
            if upscale_ttl > self._max_ttl:
                self._max_ttl = upscale_ttl

    def on_complete(self, exec_time: float, conn_wait: float) -> None:
        """Record one finished request at this container."""
        if exec_time < 0 or conn_wait < 0:
            raise ValueError("negative timing")
        # Clamp: with parallel fan-out the accumulated wait is capped by the
        # invocation layer, but guard against float slop regardless.  The
        # same float as ``min(conn_wait, exec_time)``, without the call.
        if exec_time < conn_wait:
            conn_wait = exec_time
        metric = exec_time - conn_wait
        self._sum_exec += exec_time
        self._sum_wait += conn_wait
        self._sum_metric += metric
        self._count += 1
        self.total_count += 1
        self.total_exec_time += exec_time
        self.total_exec_metric += metric
        self.total_conn_wait += conn_wait

    # ----------------------------------------------------------- collection
    def collect(self) -> RuntimeWindow:
        """Return the window since the previous collect, and start a new one."""
        t0, t1 = self._window_start, self.sim.now
        n = self._count
        if n > 0:
            avg_exec = self._sum_exec / n
            avg_wait = self._sum_wait / n
            avg_metric = self._sum_metric / n
            qb = self._sum_exec / self._sum_metric if self._sum_metric > 0 else 1.0
            avg_tfs = self._sum_tfs / n
        else:
            avg_exec = avg_wait = avg_metric = avg_tfs = 0.0
            qb = 1.0
        win = RuntimeWindow(
            t_start=t0,
            t_end=t1,
            count=n,
            avg_exec_time=avg_exec,
            avg_conn_wait=avg_wait,
            avg_exec_metric=avg_metric,
            queue_buildup=qb,
            upscale_hints=self._hints,
            max_hint_ttl=self._max_ttl,
            avg_time_from_start=avg_tfs,
        )
        self._reset_window()
        self._window_start = t1
        return win

    # ------------------------------------------------------------ hint relay
    def stamp_upscale(self, ttl: int, duration: float) -> None:
        """Escalator marks this container: outgoing requests carry ``ttl``
        for the next ``duration`` seconds (Table II, row *queueBuildup*)."""
        if ttl < 0 or duration < 0:
            raise ValueError("ttl and duration must be non-negative")
        self._stamp_ttl = ttl
        self._stamp_until = self.sim.now + duration

    @property
    def stamp_active(self) -> bool:
        """True while an Escalator queueBuildup stamp is live."""
        return self._stamp_ttl > 0 and self.sim.now < self._stamp_until

    def outgoing_upscale(self, incoming_ttl: int) -> int:
        """TTL for this request's downstream packets.

        The propagated hint is ``incoming − 1`` (bounded reach, §IV); a
        live local stamp overrides it if larger.  This runs on every child
        call, so it reads the clock itself rather than :attr:`stamp_active`.
        """
        propagated = incoming_ttl - 1 if incoming_ttl > 1 else 0
        stamp = self._stamp_ttl
        if stamp > propagated and self.sim.now < self._stamp_until:
            return stamp
        return propagated
