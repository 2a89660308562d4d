"""Core discrete-event simulation loop.

Design notes
------------
* Events are totally ordered by ``(time, seq)``, which gives deterministic
  FIFO ordering for simultaneous events — essential for reproducibility of
  the experiment protocol (17 seeded repetitions, trim, average).  The
  scheduler is one binary heap of ``(time, seq, handle)`` tuples: ``seq``
  is unique, so ``heapq`` orders entries with C-level tuple comparisons
  and never compares two handles (DESIGN.md §9).
* Events are *cancellable*: :meth:`Simulator.schedule` returns an
  :class:`EventHandle`; cancelled handles stay in the heap and are skipped
  on pop (the standard "lazy deletion" trick).  Re-scheduling a container's
  next-completion event on every allocation change relies on this being
  cheap.
* Handlers are plain callables ``fn(*args)``.  Coroutine-style processes are
  intentionally avoided in the hot path (per the profiling-first HPC guide:
  the event loop is the bottleneck, so it stays minimal); a controller's
  periodic decision loops are scheduled by
  :class:`repro.controllers.base.Controller`.
* Handles are *recycled*: after an event fires (or a lazily-cancelled entry
  is dropped, on pop or by compaction) the handle goes back on a free list
  and the next
  :meth:`Simulator.schedule` reuses it — but **only** when
  ``sys.getrefcount`` proves the run loop holds the last reference.  A
  handle someone kept (say, for a later ``cancel()``) is never recycled,
  which makes stale-handle corruption impossible by construction rather
  than by convention.  ``REPRO_POOL=0`` disables recycling (see
  :mod:`repro.sim.recycle`).
"""

from __future__ import annotations

import sys
from heapq import heapify, heappop, heappush
from math import inf
from typing import Any, Callable, Optional

from repro.sim.recycle import pool_enabled

__all__ = ["EventHandle", "Simulator", "SimulationError"]


class SimulationError(RuntimeError):
    """Raised on invalid use of the simulator (e.g. scheduling in the past)."""


class EventHandle:
    """A cancellable reference to a scheduled event.

    Instances are created by :meth:`Simulator.schedule`; user code should
    only ever call :meth:`cancel` and read :attr:`time`.  ``fn is None``
    is the one dead mark: the event fired, was cancelled or was drained.
    """

    __slots__ = ("time", "seq", "fn", "args", "owner")

    def __init__(
        self,
        time: float,
        seq: int,
        fn: Callable[..., Any],
        args: tuple,
        owner: "Simulator",
    ):
        self.time = time
        self.seq = seq
        self.fn: Optional[Callable[..., Any]] = fn
        self.args = args
        #: The :class:`Simulator` that built the handle, so cancellation
        #: can keep its lazily-cancelled-entry count (heap compaction
        #: trigger) honest.  Fixed for life: a handle only ever returns
        #: to its builder's free list.
        self.owner = owner

    def cancel(self) -> None:
        """Cancel the event.  Idempotent; cancelling a fired event is a no-op.

        Counts the lazily-cancelled entry on the owning simulator and,
        past :attr:`Simulator._COMPACT_MIN` of them, offers the heap for
        compaction.
        """
        if self.fn is None:
            return
        # Drop references so a cancelled handle retained by user code does not
        # keep a whole object graph alive until the heap drains.
        self.fn = None
        self.args = ()
        # Only now, so a compaction this cancel triggers already sees the
        # entry as dead and drops it along with the count it resets.
        sim = self.owner
        sim._cancelled_pending += 1
        if sim._cancelled_pending >= Simulator._COMPACT_MIN:
            sim._compact()

    @property
    def active(self) -> bool:
        """True while the event is scheduled and not yet fired or cancelled."""
        return self.fn is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "active" if self.fn is not None else "dead"
        return f"<EventHandle t={self.time:.9f} seq={self.seq} {state}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    start_time:
        Initial simulated clock value (seconds).  Defaults to ``0.0``.

    Examples
    --------
    >>> sim = Simulator()
    >>> fired = []
    >>> h = sim.schedule(1.5, fired.append, "a")
    >>> _ = sim.schedule(0.5, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    __slots__ = (
        "now",
        "_heap",
        "_seq",
        "_running",
        "_fired_count",
        "_cancelled_pending",
        "_free",
        "_handles_constructed",
        "trace_hook",
    )

    #: Compact the heap once this many lazily-cancelled entries pile up
    #: *and* they outnumber the live ones (see :meth:`_compact`).
    _COMPACT_MIN = 64

    def __init__(self, start_time: float = 0.0):
        #: Current simulated time in seconds.  A plain attribute, read on
        #: every hop; only :meth:`run` writes it.
        self.now = float(start_time)
        #: ``(time, seq, handle)`` entries; ``seq`` is unique, so tuple
        #: comparison never reaches the handle.
        self._heap: list[tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._running = False
        self._fired_count = 0
        self._cancelled_pending = 0
        # Handle free list (``None`` = recycling off).  A fired/cancelled
        # handle is only appended when ``sys.getrefcount`` proves the
        # loop holds the sole remaining reference, so a handle retained
        # by user code (for a later ``cancel()``) is never reused under
        # it.  That proof is CPython-specific; other interpreters simply
        # allocate fresh handles.
        self._free: Optional[list[EventHandle]] = (
            [] if pool_enabled() and sys.implementation.name == "cpython" else None
        )
        self._handles_constructed = 0
        #: optional callable ``(time, fn, args)`` invoked before each event;
        #: used by tests and the debugging tracer, ``None`` in production
        #: runs.  :meth:`run` reads it once, on entry.
        self.trace_hook: Optional[Callable[[float, Callable, tuple], None]] = None

    # ------------------------------------------------------------- counters
    @property
    def events_fired(self) -> int:
        """Number of events executed so far (for engine benchmarks)."""
        return self._fired_count

    @property
    def events_pending(self) -> int:
        """Number of pending entries, *including* lazily-cancelled ones."""
        return len(self._heap)

    @property
    def handles_recycled(self) -> int:
        """Schedules served from the handle free list."""
        return self._seq - self._handles_constructed

    @property
    def handles_constructed(self) -> int:
        """Fresh :class:`EventHandle` allocations so far."""
        return self._handles_constructed

    @property
    def live_events_pending(self) -> int:
        """Number of *live* (not lazily-cancelled) pending events.

        Exact: ``_cancelled_pending`` counts every cancelled entry still
        sitting in the heap.  The validation layer uses this to decide
        whether a run has fully drained (no in-flight work remains).
        """
        return len(self._heap) - self._cancelled_pending

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now.

        ``delay`` must be finite and non-negative.  Returns a cancellable
        :class:`EventHandle`.
        """
        # One chained comparison: NaN fails both halves, ±inf one of them.
        if not 0.0 <= delay < inf:
            raise SimulationError(f"invalid event delay {delay!r}")
        return self.schedule_at(self.now + delay, fn, *args)

    def schedule_at(self, time: float, fn: Callable[..., Any], *args: Any) -> EventHandle:
        """Schedule ``fn(*args)`` at absolute simulated ``time``.

        ``time`` must be finite and not in the past.
        """
        if not self.now <= time < inf:
            raise SimulationError(
                f"cannot schedule at t={time!r} (now={self.now!r})"
            )
        seq = self._seq
        free = self._free
        if free:
            handle = free.pop()
            handle.time = time
            handle.seq = seq
            handle.fn = fn
            handle.args = args
        else:
            handle = EventHandle(time, seq, fn, args, self)
            self._handles_constructed += 1
        self._seq = seq + 1
        heappush(self._heap, (time, seq, handle))
        return handle

    def _compact(self) -> None:
        """Rebuild the heap without its lazily-cancelled entries, if they
        make up over half of it.

        :meth:`EventHandle.cancel` calls this once the cancelled entries
        reach the floor :attr:`_COMPACT_MIN`: RPC timers and the
        container rescheduling pattern can otherwise leave the heap
        dominated by dead entries.  Live entries keep their
        ``(time, seq)`` keys, so the pop order is unchanged.  A dropped
        handle goes on the free list when ``sys.getrefcount`` proves its
        heap entry held the last reference.
        """
        heap = self._heap
        if self._cancelled_pending * 2 > len(heap):
            free = self._free
            getrefcount = sys.getrefcount
            live = []
            for entry in heap:
                handle = entry[2]
                if handle.fn is not None:
                    live.append(entry)
                # 3 = the entry tuple + the local ``handle`` +
                # getrefcount's argument; the handle being cancelled
                # right now reads higher, as its canceller holds it.
                elif free is not None and getrefcount(handle) == 3:
                    free.append(handle)
            # In-place so loops holding a reference to the list stay valid.
            heap[:] = live
            heapify(heap)
            self._cancelled_pending = 0

    # ---------------------------------------------------------------- running
    def step(self) -> bool:
        """Execute the next pending event.  Returns ``False`` if none remain."""
        fired = self._fired_count
        self.run(max_events=1)
        return self._fired_count != fired

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` is reached, or ``max_events`` fire.

        When ``until`` is given the clock is advanced to exactly ``until`` on
        return (even if the last event fired earlier), so back-to-back
        ``run(until=...)`` calls behave like a continuous timeline.

        This is the hot loop of every simulation, so a fired event costs
        one ``heappop`` plus the handler call.  The head that overshoots
        ``until`` is popped and pushed straight back — the same key, so
        the pop order is unchanged.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        budget = inf if max_events is None else max_events
        horizon = inf if until is None else until
        heap = self._heap
        free = self._free
        getrefcount = sys.getrefcount
        trace_hook = self.trace_hook
        try:
            while heap and budget > 0:
                # Unpacked, never bound: once the popped tuple dies the
                # local ``handle`` is the loop's only reference to it.
                time, seq, handle = heappop(heap)
                if handle.fn is None:  # lazily-cancelled entry: drop and rescan
                    self._cancelled_pending -= 1
                    # ``cancel()`` already cleared fn/args; a refcount of
                    # 2 (the local + getrefcount's arg) proves the
                    # canceller dropped its reference too.
                    if free is not None and getrefcount(handle) == 2:
                        free.append(handle)
                    continue
                if time > horizon:
                    heappush(heap, (time, seq, handle))
                    break
                self.now = time
                fn, args = handle.fn, handle.args
                handle.fn = None  # mark fired
                # Cleared unconditionally, not only on the recycle path: a
                # fired handle someone retained must not pin the callback's
                # argument graph until GC.
                handle.args = ()
                if trace_hook is not None:
                    trace_hook(time, fn, args)
                self._fired_count += 1
                fn(*args)
                budget -= 1
                # 2 = the local ``handle`` + getrefcount's argument.
                if free is not None and getrefcount(handle) == 2:
                    free.append(handle)
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until

    def drain(self) -> None:
        """Discard all pending events without running them.

        Every dropped handle is marked dead first, exactly like a fired
        one, so a later ``cancel()`` on it is the usual no-op and cannot
        drive :attr:`live_events_pending` below zero.
        """
        for _, _, handle in self._heap:
            handle.fn = None
            handle.args = ()
        self._heap.clear()
        self._cancelled_pending = 0
