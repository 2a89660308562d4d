"""The fused processor-sharing step ≡ the two-pass reference model.

The reference below is the container's earlier ``_advance`` /
``_reschedule`` pair, kept as the specification: integrate progress and
accounting, then collect finished jobs, pick the winner with a second
scan, recompute the rate from the settings, and keep the pending
completion only when winner and rate are both unchanged.  It also
states the completion rule: the completion tick calls the continuations
of the jobs its own reschedule finished, in finish order, once that
reschedule is done; every other step that finishes a job (a zero or
sub-epsilon submit, a setting change or sync landing on a completion)
schedules the continuation as a zero-delay event.
Random programs of submit / ``set_cores`` / ``set_frequency`` /
``set_speed_factor`` / ``sync`` / ``crash`` at random times (some at
equal times, some from inside completion callbacks) must produce the
same completion log — times and order — the same four accounting
integrals and ``completed_jobs`` after every op, and the same number of
fired events.  Plain ``==`` throughout — no ``approx``.
"""

import itertools
import math

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.cluster.container import Container
from repro.cluster.frequency import DvfsModel
from repro.sim.engine import Simulator

_EPS_CYCLES = 1e-3


class _RefJob:
    __slots__ = ("jid", "remaining", "done")

    def __init__(self, jid, remaining, done):
        self.jid = jid
        self.remaining = remaining
        self.done = done


class _ReferenceContainer:
    """Two passes per change: ``_advance`` then ``_reschedule``."""

    def __init__(self, sim, dvfs, cores, frequency):
        self.sim = sim
        self.dvfs = dvfs
        self._cores = float(cores)
        self._freq = dvfs.clamp(frequency)
        self._speed_factor = 1.0
        self._jobs = {}
        self._jid = itertools.count()
        self._last_t = sim.now
        self._next = None
        self._next_jid = -1
        self._next_rate = 0.0
        self.decommissioned = False
        self.alloc_core_seconds = 0.0
        self.busy_core_seconds = 0.0
        self.busy_weighted_seconds = 0.0
        self.freq_seconds = 0.0
        self.completed_jobs = 0

    @property
    def rate_per_job(self):
        n = len(self._jobs)
        if n == 0:
            return self._freq * self._speed_factor
        return self._freq * self._speed_factor * min(1.0, self._cores / n)

    def set_cores(self, cores):
        if cores == self._cores:
            return
        self._advance()
        self._cores = float(cores)
        self._reschedule()

    def set_frequency(self, frequency):
        f = self.dvfs.clamp(frequency)
        if f == self._freq:
            return
        self._advance()
        self._freq = f
        self._reschedule()

    def set_speed_factor(self, factor):
        if factor == self._speed_factor:
            return
        self._advance()
        self._speed_factor = factor
        self._reschedule()

    def crash(self):
        self._advance()
        killed = len(self._jobs)
        self._jobs.clear()
        if self._next is not None:
            self._next.cancel()
            self._next = None
        self._next_jid = -1
        self._next_rate = 0.0
        return killed

    def submit(self, work_cycles, done):
        self._advance()
        jid = next(self._jid)
        self._jobs[jid] = _RefJob(jid, max(work_cycles, 0.0), done)
        self._reschedule()
        return jid

    def sync(self):
        self._advance()
        self._reschedule()

    def _advance(self):
        now = self.sim.now
        dt = now - self._last_t
        self._last_t = now
        if dt == 0.0 or self.decommissioned:
            return
        n = len(self._jobs)
        self.alloc_core_seconds += self._cores * dt
        self.freq_seconds += self._freq * dt
        if n == 0:
            return
        busy = min(float(n), self._cores)
        self.busy_core_seconds += busy * dt
        self.busy_weighted_seconds += (
            busy * (self._freq / self.dvfs.f_max) ** 3 * dt
        )
        burned = self._freq * self._speed_factor * min(1.0, self._cores / n) * dt
        for job in self._jobs.values():
            job.remaining -= burned

    def _reschedule(self, tick=False):
        jobs = self._jobs
        finished = [j for j in jobs.values() if j.remaining <= _EPS_CYCLES]
        if finished:
            for j in finished:
                del jobs[j.jid]
            self.completed_jobs += len(finished)
            if not tick:
                for j in finished:
                    self.sim.schedule(0.0, j.done)
        pending = self._next
        if not jobs:
            if pending is not None:
                pending.cancel()
                self._next = None
            return finished
        winner = None
        min_rem = math.inf
        for j in jobs.values():
            if j.remaining < min_rem:
                min_rem = j.remaining
                winner = j
        rate = self.rate_per_job
        if (
            pending is not None
            and pending.active
            and self._next_jid == winner.jid
            and self._next_rate == rate
        ):
            return finished
        if pending is not None:
            pending.cancel()
        self._next = self.sim.schedule(min_rem / rate, self._on_tick)
        self._next_jid = winner.jid
        self._next_rate = rate
        return finished

    def _on_tick(self):
        self._next = None
        self._advance()
        for j in self._reschedule(tick=True):
            j.done()


# Quantized values force ties (equal fire times, equal remaining work);
# the continuous ranges exercise general arithmetic.  Work includes zero
# and sub-epsilon phases, which finish on submission.
_work = st.one_of(
    st.sampled_from([0.0, 5e-4, 0.4e9, 0.8e9, 1.6e9]),
    st.floats(0.0, 4e9, allow_nan=False, allow_infinity=False),
)
_times = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(0.0, 4.0, allow_nan=False, allow_infinity=False),
)
_cores = st.one_of(
    st.sampled_from([0.5, 1.0, 1.5, 2.0, 3.0]),
    st.floats(0.1, 6.0, allow_nan=False, allow_infinity=False),
)
_freqs = st.floats(1.0e9, 4.0e9, allow_nan=False, allow_infinity=False)
_speeds = st.one_of(
    st.just(1.0), st.floats(0.05, 1.0, allow_nan=False, allow_infinity=False)
)

_ops = st.lists(
    st.tuples(
        _times,
        st.one_of(
            st.tuples(st.just("submit"), _work, st.integers(0, 2)),
            st.tuples(st.just("cores"), _cores, st.just(0)),
            st.tuples(st.just("freq"), _freqs, st.just(0)),
            st.tuples(st.just("speed"), _speeds, st.just(0)),
            st.tuples(st.just("sync"), st.just(0.0), st.just(0)),
            st.tuples(st.just("crash"), st.just(0.0), st.just(0)),
        ),
    ),
    max_size=40,
)


def _state(c):
    return (
        c.alloc_core_seconds,
        c.busy_core_seconds,
        c.busy_weighted_seconds,
        c.freq_seconds,
        c.completed_jobs,
    )


def _execute(ops, make):
    """Run one op program on a fresh simulator; return what it observed."""
    sim = Simulator()
    c = make(sim)
    fresh = isinstance(c, Container)
    log = []
    states = []

    def finished(tag, respawn, work):
        log.append((sim.now, tag))
        if respawn:
            # Re-entrant submit from a completion, as invocation does.
            submit((tag * 31 + 7) % 9973, respawn - 1, work * 0.5)

    def submit(tag, respawn, work):
        if fresh:
            c.submit(work, finished, tag, respawn, work)
        else:
            c.submit(work, lambda: finished(tag, respawn, work))

    def apply(i, kind, value, respawn):
        if kind == "submit":
            submit(i, respawn, value)
        elif kind == "cores":
            c.set_cores(value)
        elif kind == "freq":
            c.set_frequency(value)
        elif kind == "speed":
            c.set_speed_factor(value)
        elif kind == "sync":
            c.sync()
        else:
            c.crash()
        states.append((i, sim.now) + _state(c))

    for i, (t, (kind, value, respawn)) in enumerate(ops):
        sim.schedule_at(t, apply, i, kind, value, respawn)
    sim.run()
    c.sync()
    return log, states, _state(c), sim.events_fired


@given(_ops)
@settings(max_examples=200, deadline=None)
@example(
    # Two equal jobs on one core are due at exactly t=2, and the crash
    # runs first at that instant: it must discard them without
    # completions, as the two-pass model does.
    [(0.0, ("cores", 1.0, 0))]
    + [(0.0, ("submit", 1.6e9, 0))] * 2
    + [(2.0, ("crash", 0.0, 0)), (2.0, ("submit", 0.4e9, 0))]
)
@example(
    # Three equal jobs finish together after a mid-flight core change:
    # completion order must follow submission order.
    [(0.0, ("submit", 1.6e9, 0))] * 3
    + [(0.5, ("cores", 1.0, 0)), (0.5, ("sync", 0.0, 0)), (2.0, ("speed", 0.5, 0))]
)
@example(
    # Zero and sub-epsilon work at the same time as a rate change.
    [(1.0, ("submit", 0.0, 1)), (1.0, ("submit", 5e-4, 0)),
     (1.0, ("freq", 3.2e9, 0)), (1.0, ("submit", 0.8e9, 2))]
)
def test_container_matches_reference_model(ops):
    dvfs = DvfsModel()
    got = _execute(ops, lambda sim: Container(sim, "c", dvfs, cores=2.0, frequency=1.6e9))
    want = _execute(ops, lambda sim: _ReferenceContainer(sim, dvfs, 2.0, 1.6e9))
    assert got == want
