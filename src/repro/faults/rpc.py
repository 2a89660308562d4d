"""RPC resilience: per-call timeouts, bounded retries, error completion.

:class:`RpcCaller` wraps the network's fire-and-forget ``send`` with the
standard client-library loop (gRPC/Finagle shape):

* every call arms a timeout; the first response for the *current or any
  previous* attempt wins and cancels it;
* a timed-out attempt is retransmitted after exponential backoff with
  multiplicative jitter, up to ``max_retries`` retries;
* retries additionally spend from a token-bucket **retry budget**
  (refilled by delivered responses) when the policy sets one — the
  storm brake that keeps timeout-retry feedback from amplifying a
  transient overload into a metastable collapse;
* exhaustion (of retries or budget) completes the call as an **error**:
  ``on_reply(None)`` — a call can resolve exactly once and can never hang;
* an ``error=True`` response (a failure the callee itself propagated) is
  terminal and is delivered without consuming retries: transport loss is
  retryable, an application-level failure is not.

Packet ownership is the direct path's: the caller's pooled packet is
attempt 1, and every retry is a fresh packet from the network's pool,
built from the fields the call keeps.  The call never holds a packet, so
the server turns each request into its response, which the network
releases after delivery, and a loss-window drop releases what it drops,
whichever attempt it was.

Determinism: backoff jitter is the only randomness and comes from the
dedicated ``faults.rpc`` stream, so arming the layer with a no-fault
plan consumes zero draws from every other stream.  Duplicate responses
(a retransmission racing a slow original — duplicated server work is
real and intended) are absorbed by the per-call ``done`` latch.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.cluster.network import Network
from repro.cluster.packet import REQUEST, PacketPool, RpcPacket
from repro.faults.plan import RpcPolicy
from repro.sim.engine import EventHandle, Simulator

__all__ = ["RpcCaller"]


class _Call:
    """State of one logical RPC call across its attempts.

    It keeps the request's fields, not the packet: once sent, a packet
    belongs to the network and the server, which release it.  Every
    attempt's reply continuation is the bound :meth:`reply`, never a
    closure per attempt.
    """

    __slots__ = (
        "caller", "request_id", "src", "dst", "start_time", "upscale",
        "on_reply", "attempt", "timer", "done",
    )

    def __init__(self, caller: "RpcCaller", pkt: RpcPacket, on_reply):
        self.caller = caller
        self.request_id = pkt.request_id
        self.src = pkt.src
        #: The address the caller chose (a service name under the LB
        #: tier, which re-resolves every attempt).
        self.dst = pkt.dst
        self.start_time = pkt.start_time
        self.upscale = pkt.upscale
        self.on_reply = on_reply
        self.attempt = 0
        #: Pending timeout *or* backoff event (at most one at a time).
        self.timer: Optional[EventHandle] = None
        self.done = False

    def reply(self, resp: RpcPacket) -> None:
        """Reply continuation of every attempt of this call."""
        self.caller._on_reply(self, resp)

    def retry_packet(self, pool: PacketPool) -> RpcPacket:
        """A fresh pooled request for the next attempt of this call."""
        return pool.acquire(
            self.request_id, REQUEST, self.src, self.dst, self.start_time,
            self.upscale,
        )


class RpcCaller:
    """Timeout/retry wrapper shared by every edge of one cluster.

    Parameters
    ----------
    sim, network:
        The simulation and the fabric to send on.
    policy:
        Timeout/retry/backoff parameters.
    rng:
        Dedicated stream for backoff jitter (``faults.rpc``).
    """

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        policy: RpcPolicy,
        rng: np.random.Generator,
    ):
        self.sim = sim
        self.network = network
        self.policy = policy
        self.rng = rng
        # ---- counters (fingerprinted under faults, monitor-checked) ----
        self.calls = 0
        self.retries = 0
        self.errors = 0
        self.expirations = 0
        self.open_calls = 0
        self.max_attempts_observed = 0
        #: Timeouts failed fast because the retry budget was drained.
        self.budget_exhausted = 0
        self._budget_on = policy.retry_budget is not None
        #: Token bucket: starts full so cold-start faults can retry.
        self._retry_tokens = policy.retry_burst if self._budget_on else 0.0

    # ------------------------------------------------------------------ API
    def call(
        self,
        pkt: RpcPacket,
        on_reply: Callable[[Optional[RpcPacket]], None],
    ) -> None:
        """Send request ``pkt`` with timeout/retry protection.

        ``on_reply`` fires exactly once, in bounded time: with the first
        response of any attempt, or with ``None`` when the call is
        exhausted.  ``pkt`` is handed over like a direct send.
        """
        self.calls += 1
        self.open_calls += 1
        self._attempt(_Call(self, pkt, on_reply), pkt)

    # ------------------------------------------------------------ internals
    def _attempt(self, call: _Call, pkt: RpcPacket) -> None:
        call.attempt += 1
        if call.attempt > self.max_attempts_observed:
            self.max_attempts_observed = call.attempt
        pkt.context = call.reply
        call.timer = self.sim.schedule(self.policy.timeout, self._on_timeout, call)
        self.network.send(pkt)

    def _retry(self, call: _Call) -> None:
        self._attempt(call, call.retry_packet(self.network.pool))

    def _on_reply(self, call: _Call, resp: RpcPacket) -> None:
        if call.done:
            return  # stale duplicate from a superseded attempt
        call.done = True
        if self._budget_on:
            # Any delivered response proves the transport is moving and
            # earns budget (error responses included — they traveled).
            tokens = self._retry_tokens + self.policy.retry_budget
            burst = self.policy.retry_burst
            self._retry_tokens = tokens if tokens < burst else burst
        if call.timer is not None:
            call.timer.cancel()
            call.timer = None
        self.open_calls -= 1
        call.on_reply(resp)

    def _on_timeout(self, call: _Call) -> None:
        call.timer = None
        if call.done:  # pragma: no cover - reply cancels the timer
            return
        self.expirations += 1
        exhausted = call.attempt > self.policy.max_retries
        if not exhausted and self._budget_on and self._retry_tokens < 1.0:
            # Storm brake: the bucket is dry, fail fast instead of
            # adding retransmission load to an already-slow system.
            self.budget_exhausted += 1
            exhausted = True
        if exhausted:
            call.done = True
            self.open_calls -= 1
            self.errors += 1
            call.on_reply(None)
            return
        if self._budget_on:
            self._retry_tokens -= 1.0
        self.retries += 1
        p = self.policy
        delay = p.backoff_base * p.backoff_factor ** (call.attempt - 1)
        if p.backoff_jitter > 0.0 and delay > 0.0:
            delay *= 1.0 + float(self.rng.random()) * p.backoff_jitter
        if delay > 0.0:
            call.timer = self.sim.schedule(delay, self._backoff_fire, call)
        else:
            self._retry(call)

    def _backoff_fire(self, call: _Call) -> None:
        call.timer = None
        if call.done:
            return  # the straggling response arrived during the backoff
        self._retry(call)
