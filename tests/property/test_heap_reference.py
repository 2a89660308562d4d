"""The heap Simulator ≡ a plain sorted-list reference model.

The reference keeps every scheduled event in a list sorted by
``(time, seq)`` with a cancel flag, and spells out the engine's
contract directly: fire the head, drop lazily-cancelled heads as they
surface, push nothing back out of order, and compact once cancelled
entries pass the floor *and* outnumber the live ones.  Random
interleavings of schedule, cancel, respawn-from-callback, partial
``run(max_events=...)`` and ``run(until=...)`` must produce the same
fire log and the same ``events_pending`` / ``live_events_pending``
accounting after every op.  A cancel may also drop the program's
reference to the handle, which lets the engine recycle it (on pop or
in a compaction) for a later schedule.

``Simulator._COMPACT_MIN`` is lowered for the run so compaction fires
inside short programs too.  Plain ``==`` throughout — no ``approx``.
"""

import bisect
import math
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sim.engine import Simulator

#: Compaction floor used by both sides of the comparison.
_COMPACT_MIN = 4

# Quantized delays force timestamp ties (insertion-order pops); the
# continuous range exercises general ordering.
_delays = st.one_of(
    st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
)

_ops = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), _delays, st.integers(0, 2)),
        st.tuples(st.just("cancel"), st.integers(0, 10_000), st.integers(0, 1)),
        st.tuples(st.just("run"), st.integers(1, 8), st.just(0)),
        st.tuples(st.just("until"), _delays, st.just(0)),
    ),
    max_size=60,
)


class _RefEvent:
    __slots__ = ("time", "seq", "fn", "cancelled", "model")

    def __init__(self, model, time, seq, fn):
        self.model = model
        self.time = time
        self.seq = seq
        self.fn = fn
        self.cancelled = False

    def cancel(self):
        self.model._cancel(self)


class _Reference:
    """The specification the heap must match, one sorted list deep."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._entries = []  # sorted by (time, seq)
        self._cancelled = 0

    @property
    def events_pending(self):
        return len(self._entries)

    @property
    def live_events_pending(self):
        return len(self._entries) - self._cancelled

    def schedule(self, delay, fn):
        ev = _RefEvent(self, self.now + delay, self._seq, fn)
        self._seq += 1
        bisect.insort(self._entries, ev, key=lambda e: (e.time, e.seq))
        return ev

    def _cancel(self, ev):
        if ev.cancelled or ev.fn is None:  # idempotent; fired is a no-op
            return
        ev.cancelled = True
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN and self._cancelled * 2 > len(self._entries):
            self._entries = [e for e in self._entries if not e.cancelled]
            self._cancelled = 0

    def _drop_cancelled_heads(self):
        while self._entries and self._entries[0].cancelled:
            self._entries.pop(0)
            self._cancelled -= 1

    def run(self, until=None, max_events=None):
        budget = math.inf if max_events is None else max_events
        while budget > 0:
            self._drop_cancelled_heads()
            if not self._entries:
                break
            head = self._entries[0]
            if until is not None and head.time > until:
                break
            self._entries.pop(0)
            self.now = head.time
            fn, head.fn = head.fn, None
            fn()
            budget -= 1
        if until is not None and self.now < until:
            self.now = until


class _Dropped:
    """Stands in for a handle the program no longer holds."""

    def cancel(self):
        pass


_DROPPED = _Dropped()


def _execute(ops, sim):
    """Run one op program; return ``(fire_log, accounting_trace)``."""
    log = []
    handles = []
    trace = []

    def make_cb(tag, respawn, delay):
        def cb():
            log.append((sim.now, tag))
            if respawn:
                # Deterministic child event: same params on both sides.
                child = (tag * 31 + 7) % 9973
                handles.append(
                    sim.schedule(delay * 0.5 + 1e-3, make_cb(child, respawn - 1, delay))
                )

        return cb

    def snapshot():
        trace.append((sim.now, sim.events_pending, sim.live_events_pending))

    for kind, a, b in ops:
        if kind == "schedule":
            tag = len(handles)
            handles.append(sim.schedule(a, make_cb(tag, b, a)))
        elif kind == "cancel":
            if handles:
                i = a % len(handles)
                handles[i].cancel()
                if b:
                    # Drop the program's reference, so the engine may
                    # recycle the handle once its entry leaves the heap
                    # (popped, or dropped by a compaction).
                    handles[i] = _DROPPED
        elif kind == "run":
            sim.run(max_events=a)
        else:
            sim.run(until=sim.now + a)
        snapshot()
    sim.run()  # drain
    snapshot()
    return log, trace


@given(_ops)
@settings(max_examples=150, deadline=None)
@example(
    # Four cancels of eight pending: at the floor but not a majority,
    # so no compaction.
    [("schedule", d, 0) for d in (4.0, 9.0, 1.0, 7.0, 1.0, 7.0, 2.0, 4.0)]
    + [("cancel", i, 0) for i in (7, 1, 4, 0)]
    + [("run", 8, 0)]
)
@example(
    # Compaction leaves the array [8, 3], which only a re-heapify turns
    # back into a heap.  The fourth cancel also hits the head, so this
    # pins that the cancel which triggers compaction is dropped with it.
    [("schedule", d, 0) for d in (4.0, 1.0, 3.0, 8.0, 6.0, 3.0)]
    + [("cancel", i, 0) for i in (2, 0, 4, 1)]
    + [("run", 8, 0)]
)
@example(
    # The same compaction with every cancelled handle still held: none
    # may be recycled, so cancelling one again after the next schedule
    # must not hit the new event.
    [("schedule", d, 0) for d in (4.0, 1.0, 3.0, 8.0, 6.0, 3.0)]
    + [("cancel", i, 0) for i in (2, 0, 4, 1)]
    + [("schedule", 5.0, 0)]
    + [("cancel", i, 0) for i in (0, 1, 2, 4)]
    + [("run", 8, 0)]
)
def test_simulator_matches_reference_model(ops):
    with mock.patch.object(Simulator, "_COMPACT_MIN", _COMPACT_MIN):
        got = _execute(ops, Simulator())
    want = _execute(ops, _Reference())
    assert got == want
