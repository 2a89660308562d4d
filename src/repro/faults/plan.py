"""Declarative, deterministic fault plans.

A :class:`FaultPlan` is a frozen, picklable description of every fault a
run injects — packet-loss windows, container crashes with restart
delays, controller-stall windows — plus the :class:`RpcPolicy` that
makes the system survive them (per-call timeouts, bounded retries with
exponential backoff).  Plans are *data*: arming one against a live
cluster is the :class:`repro.faults.injector.FaultInjector`'s job.

Determinism contract: everything here is a fixed schedule or a draw from
the dedicated ``faults.*`` RNG streams (see
:class:`repro.sim.rng.RngRegistry` — streams are keyed by name, so the
fault streams' existence does not perturb any other stream).  A run with
``FaultPlan`` absent is bit-identical to one where the faults package
was never imported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

__all__ = [
    "ContainerCrash",
    "ControllerStall",
    "FaultPlan",
    "LossWindow",
    "RpcPolicy",
]


def _require_finite(what: str, obj, *names: str) -> None:
    """Reject NaN and infinite values in ``obj``'s named fields.

    Without this a NaN bound disables its window or backoff silently, and
    an infinite time fails deep inside the run.  ``None`` (an optional
    field left unset) passes.
    """
    for name in names:
        value = getattr(obj, name)
        if value is not None and not math.isfinite(value):
            raise ValueError(f"{what} {name} must be finite, got {value!r}")


@dataclass(frozen=True)
class LossWindow:
    """Drop each packet sent in ``[start, end)`` with probability ``rate``."""

    start: float
    end: float
    rate: float

    def __post_init__(self) -> None:
        _require_finite("loss window", self, "start", "end")
        if self.end <= self.start:
            raise ValueError(f"empty loss window [{self.start}, {self.end})")
        if not 0.0 < self.rate <= 1.0:
            raise ValueError(f"loss rate must be in (0, 1], got {self.rate!r}")


@dataclass(frozen=True)
class ContainerCrash:
    """Crash ``container`` at ``time``; restart it ``restart_delay`` later."""

    container: str
    time: float
    restart_delay: float

    def __post_init__(self) -> None:
        _require_finite("crash", self, "time", "restart_delay")
        if self.time < 0:
            raise ValueError("crash time must be non-negative")
        if self.restart_delay <= 0:
            raise ValueError("restart_delay must be positive")


@dataclass(frozen=True)
class ControllerStall:
    """Suppress controller decision cycles during ``[start, end)``.

    Models a wedged control plane (GC pause, config push, leader
    election): the decision loop ticks but takes no action.  SurgeGuard's
    FirstResponder fast path keeps running — it lives in the data plane
    (per-packet RX hooks), which is precisely the paper's argument for
    having it.
    """

    start: float
    end: float

    def __post_init__(self) -> None:
        _require_finite("stall", self, "start", "end")
        if self.end <= self.start:
            raise ValueError(f"empty stall window [{self.start}, {self.end})")


@dataclass(frozen=True)
class RpcPolicy:
    """Per-call timeout / bounded-retry policy for every RPC edge.

    An attempt that sees no response within ``timeout`` is retried after
    an exponential backoff ``backoff_base * backoff_factor**(attempt-1)``
    multiplied by ``1 + U(0, backoff_jitter)`` (drawn from the dedicated
    ``faults.rpc`` stream).  After ``max_retries`` retries (i.e. at most
    ``max_retries + 1`` attempts) the call completes as an *error* — it
    never hangs the caller.

    ``retry_budget`` is the Envoy/Finagle-style storm brake: retries
    spend from a token bucket capped at ``retry_burst`` tokens and
    refilled ``retry_budget`` tokens per delivered response.  An
    open-loop client near saturation otherwise turns one loss burst into
    a metastable congestion collapse — queueing pushes latency past the
    timeout, every request retries, the amplified load sustains the
    queue forever.  With the budget, a storm drains the bucket, further
    timeouts fail fast (errors, no retransmission), load amplification
    stops, and the system recovers on its own.  ``None`` disables the
    budget (retries limited only by ``max_retries``).
    """

    timeout: float = 50e-3
    max_retries: int = 2
    backoff_base: float = 10e-3
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    retry_budget: Optional[float] = None
    retry_burst: float = 50.0

    def __post_init__(self) -> None:
        _require_finite(
            "RpcPolicy", self, "timeout", "backoff_base", "backoff_factor",
            "backoff_jitter", "retry_budget", "retry_burst",
        )
        if self.timeout <= 0:
            raise ValueError("timeout must be positive")
        if self.max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        if self.backoff_base < 0 or self.backoff_factor < 1.0:
            raise ValueError("invalid backoff parameters")
        if self.backoff_jitter < 0:
            raise ValueError("backoff_jitter must be non-negative")
        if self.retry_budget is not None and self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        if self.retry_burst < 1.0:
            raise ValueError("retry_burst must allow at least one retry")


@dataclass(frozen=True)
class FaultPlan:
    """The complete fault schedule of one run (frozen and picklable)."""

    loss_windows: Tuple[LossWindow, ...] = ()
    crashes: Tuple[ContainerCrash, ...] = ()
    stalls: Tuple[ControllerStall, ...] = ()
    rpc: Optional[RpcPolicy] = field(default=None)

    def __post_init__(self) -> None:
        windows = sorted(self.loss_windows, key=lambda w: w.start)
        for a, b in zip(windows, windows[1:]):
            if b.start < a.end:
                raise ValueError(f"overlapping loss windows: {a} and {b}")
        if (self.loss_windows or self.crashes) and self.rpc is None:
            # Without caller-side timeouts a dropped packet hangs its
            # request forever — a deterministic deadlock, not a scenario.
            raise ValueError(
                "loss/crash faults require an RpcPolicy (rpc=...) so "
                "affected requests resolve as errors instead of hanging"
            )

    @property
    def empty(self) -> bool:
        """True when the plan injects nothing and arms no RPC layer."""
        return not (
            self.loss_windows or self.crashes or self.stalls or self.rpc
        )
