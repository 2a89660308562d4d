"""Processor-sharing container execution model.

A container (one service instance in its own cgroup, as in the paper's
Docker deployment) owns ``c`` allocated cores running at frequency ``f``.
Its active *compute phases* (request handler segments that are actually
on-CPU, not blocked on a downstream RPC or a connection pool) share the
cores in the classic egalitarian processor-sharing discipline: with ``n``
active phases each progresses at

    ``rate = f · min(1, c / n)``   [cycles / second]

This single rule produces all three phenomena the paper's design keys on:

* **load → latency contention** — more concurrent requests slow each one
  down, so a rate surge raises ``execMetric`` (Fig. 5a/5c);
* **diminishing-returns sensitivity curves** — once ``c ≥ n`` extra cores
  change nothing, giving the flat tails of Fig. 6 that sensitivity-based
  revocation exploits;
* **linear frequency scaling** — FirstResponder's fast-path boost shrinks
  service times proportionally.

The implementation is event-driven: every event that can change the
sharing rate (arrival, completion, allocation or frequency change) runs
one processor-sharing step (:meth:`Container._step`).  It advances job
state lazily to now and, in the same single pass over the jobs, collects
the finished ones and picks the next finisher — all jobs progress at the
same rate, so that is simply the job with minimal remaining work, with n
rarely above a few dozen.  The single pending next-completion event is
then cancelled and re-issued — unless the winning job and shared rate
are both unchanged, in which case the pending event is provably still
exact and is kept (the common case for arrivals under ``c ≥ n`` and for
pure accounting syncs).

A phase that finishes on its completion tick costs that one event: the
tick is the step itself (``_step(None, True)``), and it runs the
continuations (``done(*args)``) of the phases it finished, in finish
order, once it has updated the container and rescheduled itself.  A
phase can also finish off the tick — a ``submit`` of zero or
sub-epsilon work, or a ``set_*`` / ``sync`` landing exactly on a
completion.  Then the caller is still mid-call and a continuation may
re-enter ``submit`` / ``set_cores``, so the continuation waits for a
zero-delay event of its own: no continuation ever runs inside
``submit``, a ``set_*`` call or ``sync``.

Energy bookkeeping (allocated core-seconds, busy core-seconds, and the
f³-weighted busy integral that
:func:`repro.experiments.harness.run_experiment` turns into joules) is
folded into the same step so it costs nothing extra.
"""

from __future__ import annotations

import itertools
import math
from typing import Any, Callable, Dict, Optional, Tuple, TYPE_CHECKING

from repro.sim.engine import EventHandle, Simulator
from repro.cluster.frequency import DvfsModel

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.node import Node

__all__ = ["Container"]

#: Completion slop, in cycles.  Sub-nanosecond at GHz clock rates.
_EPS_CYCLES = 1e-3


class _Job:
    __slots__ = ("jid", "remaining", "done", "args")

    def __init__(self, jid: int, remaining: float, done: Callable[..., None], args: tuple):
        self.jid = jid
        self.remaining = remaining
        self.done = done
        self.args = args


class Container:
    """One service instance with processor-shared cores and DVFS.

    Parameters
    ----------
    sim:
        The simulator.
    name:
        Container name, unique within the cluster (e.g.
        ``"user-timeline-service"``).
    dvfs:
        Shared DVFS model of the host node.
    cores:
        Initial core allocation (may be fractional: CaladanAlgo allocates
        hyperthread, i.e. 0.5-core, units).
    frequency:
        Initial frequency in Hz; clamped to the DVFS range.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        dvfs: DvfsModel,
        *,
        cores: float = 1.0,
        frequency: Optional[float] = None,
    ):
        if not 0.0 < cores < math.inf:
            raise ValueError(
                f"cores must be finite and positive, got {cores!r} (container {name!r})"
            )
        self.sim = sim
        self.name = name
        self.dvfs = dvfs
        self._cores = float(cores)
        self._freq = dvfs.clamp(dvfs.f_min if frequency is None else frequency)
        #: Execution-efficiency multiplier in (0, 1]: models interference
        #: from co-located work (cache/membw contention, noisy
        #: neighbours) — the "other disruptions" surge type.  1.0 = clean.
        self._speed_factor = 1.0
        # Products of the settings, recomputed only where a setting
        # changes (``_step``): the rate of a phase with a core to itself,
        # and the (f/f_max)^3 dynamic-energy weight of a busy core-second.
        self._peak_rate = self._freq * self._speed_factor
        self._dyn_weight = (self._freq / dvfs.f_max) ** 3
        self.node: Optional["Node"] = None  # set by Node.add_container

        self._jobs: Dict[int, _Job] = {}
        self._jid = itertools.count()
        self._last_t = sim.now
        self._next: Optional[EventHandle] = None
        # Bound once: the completion tick, ``_step(None, True)``, is
        # scheduled on most steps.
        self._tick = self._step
        #: A reaped replica's container stops accruing alloc/freq
        #: integrals (its cores are returned to the node) until revived.
        self.decommissioned = False
        # Winning job + rate behind the pending next-completion event, so
        # rescheduling can be skipped when neither changed (see _step):
        # all jobs burn at the same rate, so an unchanged (winner, rate)
        # pair means the already-scheduled fire time is still exact.
        self._next_jid = -1
        self._next_rate = 0.0

        # ---- cumulative integrals (energy / utilization accounting) ----
        self.alloc_core_seconds = 0.0
        self.busy_core_seconds = 0.0
        #: busy core-seconds weighted by (f/f_max)^3 — dynamic-energy integral.
        self.busy_weighted_seconds = 0.0
        #: ∫ frequency dt — lets controllers compute the mean frequency
        #: over a window (shFreq synchronization in the paper).
        self.freq_seconds = 0.0
        self.completed_jobs = 0
        #: Fault-injected crashes survived (see :meth:`crash`).
        self.crashes = 0

    # ----------------------------------------------------------- properties
    @property
    def cores(self) -> float:
        """Currently allocated cores (fractional allowed)."""
        return self._cores

    @property
    def frequency(self) -> float:
        """Current frequency in Hz."""
        return self._freq

    @property
    def active_jobs(self) -> int:
        """Number of on-CPU compute phases right now (runnable threads)."""
        return len(self._jobs)

    @property
    def speed_factor(self) -> float:
        """Current interference multiplier (1.0 = no interference)."""
        return self._speed_factor

    @property
    def rate_per_job(self) -> float:
        """Current per-phase progress rate in cycles/second."""
        n = len(self._jobs)
        if n == 0:
            return self._peak_rate
        return self._peak_rate * min(1.0, self._cores / n)

    # ------------------------------------------------------------- control
    def set_cores(self, cores: float) -> None:
        """Change the core allocation (controller-facing)."""
        if not 0.0 < cores < math.inf:
            raise ValueError(
                f"cores must be finite and positive, got {cores!r} "
                f"(container {self.name!r})"
            )
        if cores == self._cores:
            return
        self._step(cores=float(cores))

    def set_frequency(self, frequency: float) -> None:
        """Change the DVFS level (controller- or FirstResponder-facing)."""
        f = self.dvfs.clamp(frequency)
        if f == self._freq:
            return
        self._step(freq=f)

    def set_speed_factor(self, factor: float) -> None:
        """Apply or lift execution interference (environment-facing:
        injected by experiments, never by controllers — controllers only
        *observe* its latency effect through the runtime metrics)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"speed factor must be in (0, 1], got {factor!r}")
        if factor == self._speed_factor:
            return
        self._step(speed=factor)

    # ---------------------------------------------------------------- faults
    def crash(self) -> int:
        """Kill every in-progress compute phase (fault injection).

        Accounting integrals are brought up to now first (the cores were
        genuinely busy until the crash), then all jobs are discarded
        *without* firing their ``done`` callbacks and the pending
        next-completion event is cancelled.  Returns the number of jobs
        killed.  The container object itself survives — a restart is
        just new ``submit()`` traffic.
        """
        killed = len(self._jobs)
        self._step(kill=True)
        self._next_jid = -1
        self._next_rate = 0.0
        self.crashes += 1
        return killed

    # ---------------------------------------------------------- replica ops
    def decommission(self) -> None:
        """Stop the accounting clock: the replica was reaped.

        The container must be idle (scale-in drains first); its pending
        completion event, if any, is cancelled and alloc/freq integrals
        freeze until :meth:`recommission`.
        """
        if self._jobs:
            raise RuntimeError(f"decommission of busy container {self.name!r}")
        self._step()  # idle: accrues to now and cancels the pending event
        self._next_jid = -1
        self._next_rate = 0.0
        self.decommissioned = True

    def recommission(self) -> None:
        """Restart the accounting clock for a revived replica."""
        if not self.decommissioned:
            raise RuntimeError(f"container {self.name!r} is not decommissioned")
        self.decommissioned = False
        self._last_t = self.sim.now

    # -------------------------------------------------------------- compute
    def submit(self, work_cycles: float, done: Callable[..., None], *args: Any) -> int:
        """Start a compute phase of ``work_cycles``; ``done(*args)`` runs on finish.

        It runs from the completion tick that finishes the phase.
        Zero-work phases complete via a scheduled zero-delay event (never
        synchronously) so callers can rely on uniform re-entrancy rules.
        """
        if not 0.0 <= work_cycles < math.inf:
            raise ValueError(
                f"work_cycles must be finite and non-negative, got {work_cycles!r}"
            )
        jid = next(self._jid)
        self._step(_Job(jid, work_cycles, done, args), False)
        return jid

    def sync(self) -> None:
        """Bring the accounting integrals up to the current time.

        Called by the cluster before reading energy/utilization totals.
        """
        self._step()

    # ------------------------------------------------------------ internals
    def _step(
        self,
        job: Optional[_Job] = None,
        tick: bool = False,
        *,
        cores: Optional[float] = None,
        freq: Optional[float] = None,
        speed: Optional[float] = None,
        kill: bool = False,
    ) -> None:
        """One processor-sharing step at the current time.

        Integrates progress and accounting from ``_last_t`` to now under
        the settings in force since then, applies the new ``cores`` /
        ``freq`` / ``speed`` (``None`` keeps one), admits ``job``, and
        (re-)issues the next-completion event.  ``kill`` discards every
        job after the accounting, without firing callbacks.  The
        finished jobs' continuations are scheduled as zero-delay events,
        unless ``tick`` says this step is the completion tick: then it
        runs them itself, in finish order, once the step is complete.

        A single pass over the jobs burns the progress, collects the
        finished ones (within epsilon) and picks the winner.  The burn
        rate is ``_next_rate``: whenever jobs exist it holds the rate the
        last step computed from the current settings and job count.
        Subtracting a zero burn leaves every remaining value bit-equal.
        The setting products ``_peak_rate`` and ``_dyn_weight`` are
        recomputed only here, when ``freq`` or ``speed`` changes; each
        is the same float the full expression would give.

        Cheap path: when a pending event exists and neither the winning
        job nor the shared progress rate changed (e.g. a new arrival with
        more work than the current winner while ``c ≥ n`` keeps the rate
        at ``f``, or a pure accounting :meth:`sync`), the already-scheduled
        event is still exact — keep it instead of cancel + re-push, which
        otherwise dominates heap churn under load.
        """
        sim = self.sim
        now = sim.now
        if tick:
            self._next = None  # the event firing now
        dt = now - self._last_t
        if dt < 0:  # pragma: no cover - engine guarantees monotonic time
            raise RuntimeError("time went backwards")
        self._last_t = now
        jobs = self._jobs
        burned = 0.0
        if dt != 0.0 and not self.decommissioned:
            n = len(jobs)
            self.alloc_core_seconds += self._cores * dt
            self.freq_seconds += self._freq * dt
            if n:
                # An int n multiplies a float exactly as float(n) does.
                busy = n if n < self._cores else self._cores
                self.busy_core_seconds += busy * dt
                self.busy_weighted_seconds += busy * self._dyn_weight * dt
                burned = self._next_rate * dt
        if cores is not None:
            self._cores = cores
        if freq is not None:
            self._freq = freq
            self._dyn_weight = (freq / self.dvfs.f_max) ** 3
            self._peak_rate = freq * self._speed_factor
        if speed is not None:
            self._speed_factor = speed
            self._peak_rate = self._freq * speed
        if kill:
            jobs.clear()

        # A tuple that grows only when a job finishes: ``()`` is shared,
        # so a step that finishes nothing allocates nothing here.
        finished: Tuple[_Job, ...] = ()
        winner = None
        min_rem = math.inf
        for j in jobs.values():
            rem = j.remaining - burned
            j.remaining = rem
            if rem <= _EPS_CYCLES:
                finished += (j,)
            elif rem < min_rem:
                min_rem = rem
                winner = j
        if job is not None:
            # Admitted after the burn: it did no work before now.
            jobs[job.jid] = job
            rem = job.remaining
            if rem <= _EPS_CYCLES:
                finished += (job,)
            elif rem < min_rem:
                min_rem = rem
                winner = job
        if finished:
            self.completed_jobs += len(finished)
            # Continuations may re-enter submit()/set_cores().  Off the
            # tick, the caller (an invocation's submit, a controller's
            # set_cores) is still mid-call, so each one waits for a
            # zero-delay event of its own; the tick runs them itself
            # once this step is complete (below).
            for j in finished:
                del jobs[j.jid]
                if not tick:
                    sim.schedule_at(now, j.done, *j.args)

        pending = self._next
        if jobs:
            share = self._cores / len(jobs)
            # Positive: cores, frequency and speed factor are validated
            # positive.
            rate = self._peak_rate * (share if share < 1.0 else 1.0)
            if (
                pending is None
                or pending.fn is None
                or self._next_jid != winner.jid
                or self._next_rate != rate
            ):
                if pending is not None:
                    pending.cancel()
                self._next = sim.schedule_at(
                    now + min_rem / rate, self._tick, None, True
                )
                self._next_jid = winner.jid
                self._next_rate = rate
            # else the pending event's fire time is unchanged
        elif pending is not None:
            pending.cancel()
            self._next = None
        if tick:
            # The step is complete before any continuation runs, so one
            # that resubmits here sees the finished phases gone.
            for j in finished:
                j.done(*j.args)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Container {self.name!r} cores={self._cores} "
            f"f={self._freq / 1e9:.1f}GHz jobs={len(self._jobs)}>"
        )
