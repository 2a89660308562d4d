"""Caller-side connection pools — the two threading models of §II-A.

The paper identifies the *fixed-size threadpool* connection model as the
source of **hidden inter-container dependencies**: when the pool is
exhausted, extra requests queue *implicitly* inside the upstream service
(threads polling / sleeping for a free connection), invisible to network
queue monitors like Caladan's.  The pool is provisioned via Little's Law
(Eq. 1): ``ThPoolSize = DesiredReqRate × DownstreamLatency``.

:class:`ConnectionPool` models one (caller-service → callee-service) edge:

* ``capacity=None`` ⇒ *connection-per-request*: every acquire succeeds
  immediately but pays a connection-setup delay (the paper's motivation
  for pools at high request rates).
* ``capacity=k`` ⇒ *fixed-size pool*: at most ``k`` connections in
  flight; excess acquirers wait FIFO, accumulating the
  ``timeWaitingForFreeConn`` that feeds ``execMetric`` (Eq. 2).

The pool exposes instantaneous and cumulative statistics used both by the
runtime metrics and by the tests' invariant checks.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.sim.engine import Simulator

__all__ = ["ConnectionPool"]


class ConnectionPool:
    """A connection pool on one task-graph edge.

    Parameters
    ----------
    sim:
        The simulator (for timestamps and scheduling setup delays).
    capacity:
        Number of pooled connections, or ``None`` for
        connection-per-request.
    setup_latency:
        One-way cost of establishing a fresh connection.  Paid on *every*
        acquire in connection-per-request mode and never in pool mode
        (pooled connections are pre-established — that is the point of
        the model, per the gRPC performance guidance the paper cites).
    name:
        Edge label, e.g. ``"frontend->geo"`` (diagnostics only).
    """

    def __init__(
        self,
        sim: Simulator,
        capacity: Optional[int],
        *,
        setup_latency: float = 20e-6,
        name: str = "",
    ):
        if capacity is not None and not 1 <= capacity < math.inf:
            raise ValueError(
                f"capacity must be finite and >= 1, or None, got {capacity!r}"
            )
        if setup_latency < 0:
            raise ValueError("setup_latency must be non-negative")
        self.sim = sim
        self.capacity = capacity
        self.setup_latency = setup_latency
        self.name = name
        self.in_flight = 0
        #: Queued acquirers: ``(enqueue time, done, args)``.
        self._waiters: Deque[Tuple[float, Callable[..., None], tuple]] = deque()
        # --- cumulative statistics -------------------------------------
        self.total_acquires = 0
        self.total_waited = 0  # acquires that had to queue
        self.total_wait_time = 0.0
        self.max_queue_len = 0

    # ------------------------------------------------------------ properties
    @property
    def is_per_request(self) -> bool:
        """True in connection-per-request mode (unbounded concurrency)."""
        return self.capacity is None

    @property
    def queue_len(self) -> int:
        """Number of callers currently waiting for a free connection."""
        return len(self._waiters)

    @property
    def free(self) -> Optional[int]:
        """Free pooled connections (``None`` when unbounded)."""
        if self.capacity is None:
            return None
        return self.capacity - self.in_flight

    # --------------------------------------------------------------- acquire
    def acquire(self, done: Callable[..., None], *args: Any) -> None:
        """Request a connection; ``done(wait_time, *args)`` fires when granted.

        The continuation convention of ``Simulator.schedule`` and
        ``Container.submit``: the caller passes a bound method and its
        state, so no closure is built per call.  ``wait_time`` is the
        time spent blocked waiting for a *pooled* connection (zero in
        per-request mode — setup latency is a network cost, not an
        implicit-queue cost, and must *not* pollute
        ``timeWaitingForFreeConn``; with unlimited pools the paper notes
        ``execMetric == execTime``).
        """
        self.total_acquires += 1
        if self.capacity is None:
            self.in_flight += 1
            if self.setup_latency > 0.0:
                self.sim.schedule(self.setup_latency, done, 0.0, *args)
            else:
                done(0.0, *args)
            return
        if self.in_flight < self.capacity:
            self.in_flight += 1
            done(0.0, *args)
            return
        self.total_waited += 1
        self._waiters.append((self.sim.now, done, args))
        if len(self._waiters) > self.max_queue_len:
            self.max_queue_len = len(self._waiters)

    def release(self) -> None:
        """Return a connection; wakes the oldest waiter if any."""
        if self.in_flight <= 0:
            raise RuntimeError(f"release() on idle pool {self.name!r}")
        if self.capacity is None:
            self.in_flight -= 1
            return
        if self._waiters:
            # Hand the connection straight to the next waiter: in_flight
            # stays constant, the waiter's wait time ends now.
            enq_t, done, args = self._waiters.popleft()
            wait = self.sim.now - enq_t
            self.total_wait_time += wait
            done(wait, *args)
        else:
            self.in_flight -= 1

    def flush(self) -> int:
        """Drop all in-flight grants and queued waiters (crash semantics).

        When the owning service instance crashes, its threads die with
        it: connections held by in-flight calls are gone (the matching
        ``release()`` will never come — callers are marked dead and must
        not release after a flush) and queued acquirers are abandoned.
        Returns the number of waiters discarded (their continuations and
        arguments go with them).  Cumulative statistics
        are left intact — they describe history, not live state.
        """
        dropped = len(self._waiters)
        self.in_flight = 0
        self._waiters.clear()
        return dropped

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cap = "inf" if self.capacity is None else str(self.capacity)
        return (
            f"<ConnectionPool {self.name!r} cap={cap} in_flight={self.in_flight} "
            f"queued={self.queue_len}>"
        )
