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
generation adds exactly one heap entry per in-flight client.  Every
response goes to one bound handler, which finds the request's arrival
time by its id (the arrival index), so no closure is built per request.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.cluster.cluster import Cluster
from repro.cluster.packet import RpcPacket
from repro.workload.arrivals import RateSchedule

__all__ = ["PACINGS", "ClientStats", "OpenLoopClient"]

#: Arrival pacing modes accepted by :class:`OpenLoopClient`.
PACINGS = ("uniform", "poisson")


@dataclass
class ClientStats:
    """Per-request outcome log of one client run.

    The per-request columns are stdlib ``array('d')`` (unboxed
    ``float64``, not lists of float objects); a Python float stored in a
    ``'d'`` slot is exact, so they hold simulation timestamps bit for bit.
    """

    #: Arrival (injection) timestamps, seconds.
    arrival_times: array = field(default_factory=lambda: array("d"))
    #: End-to-end latencies; ``nan`` while a request is outstanding and
    #: for requests that completed as errors (their wall time measures
    #: timeout policy, not service latency).
    latencies: array = field(default_factory=lambda: array("d"))
    sent: int = 0
    completed: int = 0
    #: Requests that completed as an *error* (RPC retry exhaustion under
    #: an armed fault layer).  Always 0 on fault-free runs.
    errored: int = 0

    def completed_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """(arrival_times, latencies) of completed requests, time-ordered.

        Both results are copies: the zero-copy ``np.frombuffer`` views die
        with this call, because an array with a live export cannot grow
        (its next append would raise ``BufferError``).
        """
        t = np.frombuffer(self.arrival_times)
        lat = np.frombuffer(self.latencies)
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
    duration:
        Injection window: requests are injected in ``[0, duration)``.
    pacing:
        ``"uniform"`` (wrk2 constant pacing, default) or ``"poisson"``.
    rng:
        Required for Poisson pacing.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        schedule: RateSchedule,
        *,
        duration: float,
        pacing: str = "uniform",
        rng: Optional[np.random.Generator] = None,
    ):
        if duration <= 0:
            raise ValueError("duration must be positive")
        if pacing not in PACINGS:
            raise ValueError(f"unknown pacing {pacing!r}")
        if pacing == "poisson" and rng is None:
            raise ValueError("poisson pacing requires an rng")
        self.sim = sim
        self.cluster = cluster
        self.schedule = schedule
        self.end = duration
        self.pacing = pacing
        self.rng = rng
        self.stats = ClientStats()
        self._next_id = 0
        self._started = False
        # Per-arrival fast path: bind the schedule inversion and the
        # cluster's ingress once.
        self._advance = schedule.advance
        self._uniform = pacing == "uniform"
        self._send = cluster.client_send

    def begin(self) -> None:
        """Arm the client (schedules the first arrival)."""
        if self._started:
            raise RuntimeError("client already started")
        self._started = True
        # wrk2 fires its first request immediately; Poisson pacing draws
        # a fresh exponential gap (memorylessness makes either choice
        # statistically equivalent, the immediate start keeps counts
        # exactly rate × duration under uniform pacing).
        first = 0.0 if self._uniform else self._next_arrival(0.0)
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
        self._send(idx, self._on_response)
        nxt = self._next_arrival(now)
        if nxt < self.end:
            self.sim.schedule_at(nxt, self._fire)

    def _on_response(self, pkt: Optional[RpcPacket]) -> None:
        stats = self.stats
        if pkt is None or pkt.error:
            # The client→root call was exhausted (no response ever
            # arrived), or the root completed the request as an error.
            # Recorded in the error ledger, not latency.
            stats.errored += 1
            return
        idx = pkt.request_id
        # Direct slot write into the latency column: the nan placed at
        # injection time is overwritten in place.
        stats.latencies[idx] = self.sim.now - stats.arrival_times[idx]
        stats.completed += 1
