"""Open-loop client: paced arrivals, latency recording, violation volume.

wrk2 semantics: the client fires requests on a fixed schedule derived
from the rate function, *regardless* of completions.  During a surge the
backlog therefore shows up as latency (no coordinated omission), which
is what the violation-volume metric integrates.

``pacing="uniform"`` reproduces wrk2's constant pacing (deterministic
inter-arrival 1/rate); ``pacing="poisson"`` draws exponential gaps via
the unit-rate transform (``advance(t, Exp(1))``).

Each arrival is its own event: the fired arrival inverts the rate
schedule once (``advance``) to place its successor, so arrival
generation adds exactly one heap entry per in-flight client.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.cluster.cluster import Cluster
from repro.cluster.packet import RpcPacket
from repro.metrics.buffers import FloatBuffer
from repro.workload.arrivals import RateSchedule

__all__ = ["ClientStats", "OpenLoopClient"]


@dataclass
class ClientStats:
    """Per-request outcome log of one client run.

    The per-request columns are :class:`~repro.metrics.buffers.FloatBuffer`
    (geometrically-grown ``float64``, not boxed-float lists), so the
    metrics layer scans them without an ``np.asarray`` conversion pass.
    """

    #: Arrival (injection) timestamps, seconds.
    arrival_times: FloatBuffer = field(default_factory=FloatBuffer)
    #: End-to-end latencies; ``nan`` while a request is outstanding and
    #: for requests that completed as errors (their wall time measures
    #: timeout policy, not service latency).
    latencies: FloatBuffer = field(default_factory=FloatBuffer)
    sent: int = 0
    completed: int = 0
    #: Requests that completed as an *error* (RPC retry exhaustion under
    #: an armed fault layer).  Always 0 on fault-free runs.
    errored: int = 0

    def completed_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(arrival_times, latencies) of completed requests, time-ordered."""
        t = self.arrival_times.view()
        lat = self.latencies.view()
        mask = ~np.isnan(lat)
        return t[mask], lat[mask]

    @property
    def outstanding(self) -> int:
        """Requests injected but not resolved when the run stopped."""
        return self.sent - self.completed - self.errored

    @property
    def error_rate(self) -> float:
        """Fraction of injected requests that completed as errors."""
        return self.errored / self.sent if self.sent else 0.0


class OpenLoopClient:
    """Drives a cluster with an open-loop arrival schedule.

    Parameters
    ----------
    sim, cluster:
        The simulation and the deployed application.
    schedule:
        Rate function (base + spikes).
    start, duration:
        Injection window: requests are injected in ``[start, start+duration)``.
    pacing:
        ``"uniform"`` (wrk2 constant pacing, default) or ``"poisson"``.
    rng:
        Required for Poisson pacing.
    on_complete:
        Optional callback ``(request_index, arrival_t, latency)`` per
        completion — used by figure scripts for live timelines.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        schedule: RateSchedule,
        *,
        start: float = 0.0,
        duration: float,
        pacing: str = "uniform",
        rng: Optional[np.random.Generator] = None,
        on_complete: Optional[Callable[[int, float, float], None]] = None,
    ):
        if duration <= 0:
            raise ValueError("duration must be positive")
        if pacing not in ("uniform", "poisson"):
            raise ValueError(f"unknown pacing {pacing!r}")
        if pacing == "poisson" and rng is None:
            raise ValueError("poisson pacing requires an rng")
        self.sim = sim
        self.cluster = cluster
        self.schedule = schedule
        self.start = start
        self.end = start + duration
        self.pacing = pacing
        self.rng = rng
        self.on_complete = on_complete
        self.stats = ClientStats()
        self._next_id = 0
        self._started = False
        # Per-arrival fast path: bind the schedule inversion and the
        # cluster's prebound ingress sender once.
        self._advance = schedule.advance
        self._uniform = pacing == "uniform"
        self._send = cluster.client_sender()

    def begin(self) -> None:
        """Arm the client (schedules the first arrival)."""
        if self._started:
            raise RuntimeError("client already started")
        self._started = True
        # wrk2 fires its first request immediately; Poisson pacing draws
        # a fresh exponential gap (memorylessness makes either choice
        # statistically equivalent, the immediate start keeps counts
        # exactly rate × duration under uniform pacing).
        first = self.start if self._uniform else self._next_arrival(self.start)
        if first < self.end:
            self.sim.schedule_at(first, self._fire)

    def _next_arrival(self, frm: float) -> float:
        """The single draw-and-invert path shared by ``begin``/``_fire``."""
        if self._uniform:
            return self._advance(frm, 1.0)
        return self._advance(frm, float(self.rng.exponential(1.0)))  # type: ignore[union-attr]

    def _fire(self) -> None:
        now = self.sim.now
        idx = self._next_id
        self._next_id = idx + 1
        stats = self.stats
        stats.arrival_times.append(now)
        stats.latencies.append(float("nan"))
        stats.sent += 1
        # The error callback only exists when the RPC resilience layer is
        # armed — the fault-free hot path allocates nothing extra and
        # goes through the prebound sender.
        if self.cluster.rpc is None:
            self._send(idx, self._make_callback(idx, now))
        else:
            self.cluster.client_send(
                idx,
                self._make_callback(idx, now),
                on_error=self._make_error_callback(idx),
            )
        nxt = self._next_arrival(now)
        if nxt < self.end:
            self.sim.schedule_at(nxt, self._fire)

    def _make_callback(self, idx: int, arrival: float):
        def cb(pkt: RpcPacket) -> None:
            if pkt.error:
                # Propagated failure: the root completed the request as
                # an error.  Recorded in the error ledger, not latency.
                self.stats.errored += 1
                return
            latency = self.sim.now - arrival
            # Direct slot write into the latency column: the nan placed
            # at injection time is overwritten in place.
            self.stats.latencies[idx] = latency
            self.stats.completed += 1
            if self.on_complete is not None:
                self.on_complete(idx, arrival, latency)

        return cb

    def _make_error_callback(self, idx: int):
        def cb(_pkt: RpcPacket) -> None:
            # Local retry exhaustion at the client→root call: no response
            # ever arrived, but the request is resolved (not hung).
            self.stats.errored += 1

        return cb
