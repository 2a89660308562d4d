"""RPC fabric: packet routing, latency, and injectable latency surges.

Every packet between endpoints (containers or the external client) takes
one network hop with a configurable base latency — small for same-node
(bridge/loopback) traffic, larger for cross-node traffic — plus optional
lognormal-ish jitter.  On arrival at a *server* node the packet first
passes through the node's RX hooks (FirstResponder's attachment point,
see :mod:`repro.cluster.node`), whose modeled per-packet cost is added to
the delivery latency, and is then handed to the destination endpoint.

The abstract says SurgeGuard guards QoS "during surges in load and
network latency"; :meth:`Network.add_latency_surge` injects the latter —
an additive delay applied to packets sent inside a time window.

**Fast lane.**  The per-packet path is the hottest code in the whole
simulation (one ``send`` + one delivery per RPC hop), so it avoids
re-deriving anything that is invariant per (src, dst) pair or per time
window:

* **Route cache** — endpoints register exactly once (duplicates are
  rejected), so the (base latency, destination node, handler) triple of
  a pair never changes after first use and is cached in a flat dict.
* **Batched jitter** — uniform draws come from
  :func:`repro.sim.rng.block_draws` over the network's private stream,
  which pre-draws them a block at a time; numpy Generators produce
  bit-identical streams whether drawn one at a time or in blocks, so
  results match the unbatched path exactly.
* **Surge timeline** — surges are kept sorted by start; the currently
  active extra and the timestamp until which it is valid are cached, so
  the common case is one comparison.  Expired windows are pruned (sim
  time is monotonic on the send path), so long runs never scan dead
  surges.
* **Packet recycling** — the network owns a
  :class:`~repro.cluster.packet.PacketPool`; a server turns each request
  into its response in place, and delivery is the central release point
  for responses, so the steady state re-circulates a handful of packet
  objects instead of allocating one per RPC (DESIGN.md §8).
* **One bound delivery** — every send schedules the same bound
  ``_deliver``, made once at construction.
"""

from __future__ import annotations

import math
from bisect import insort
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.rng import block_draws
from repro.cluster.node import Node
from repro.cluster.packet import REQUEST, RESPONSE, PacketPool, RpcPacket

__all__ = ["Network", "NetworkConfig"]

Endpoint = Callable[[RpcPacket], None]


@dataclass(frozen=True)
class NetworkConfig:
    """Latency parameters of the simulated fabric.

    Defaults approximate a ToR-switched datacenter rack: ~20 µs
    kernel-stack RTT share per one-way cross-node hop, ~6 µs for
    same-node container-to-container traffic, and client traffic treated
    as cross-node (the paper's client is a separate machine).
    """

    intra_node_latency: float = 6e-6
    inter_node_latency: float = 20e-6
    #: Relative jitter: one-way latency is multiplied by ``1 + U(0, jitter)``.
    jitter: float = 0.1

    def __post_init__(self) -> None:
        for name in ("intra_node_latency", "inter_node_latency", "jitter"):
            value = getattr(self, name)
            if not math.isfinite(value) or value < 0:
                raise ValueError(
                    f"{name} must be finite and non-negative, got {value!r}"
                )


@dataclass
class _LatencySurge:
    start: float
    end: float
    extra: float


class Network:
    """Routes :class:`RpcPacket` objects between registered endpoints.

    Parameters
    ----------
    sim:
        The simulator.
    config:
        Latency parameters.
    rng:
        Generator for jitter draws (pass a dedicated stream).
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        rng: Optional[np.random.Generator] = None,
    ):
        self.sim = sim
        self.config = config
        self.rng = rng
        #: Free-list recycler and the one builder of packets: client
        #: requests, downstream requests and RPC retries all come from
        #: it, and a server turns each request into its response in
        #: place.  The network owns it because the network is the one
        #: place every packet passes: responses are released centrally
        #: in :meth:`_deliver` once the destination handler returns
        #: (nothing retains a response — callers copy what they need
        #: synchronously), and an armed loss window or an unroutable
        #: request releases what it discards.
        self.pool = PacketPool()
        self._endpoints: Dict[str, Tuple[Optional[Node], Endpoint]] = {}
        self._surges: List[_LatencySurge] = []
        self._observers: List[Endpoint] = []
        self.packets_sent = 0
        self.packets_delivered = 0
        #: Packets discarded by an armed fault injector's loss windows
        #: (never incremented on the fault-free path — see repro.faults).
        self.packets_dropped = 0
        # (src, dst) -> (base latency, dst node, handler); safe to cache
        # forever because registration is once-only.
        self._routes: Dict[Tuple[str, str], Tuple[float, Optional[Node], Endpoint]] = {}
        # Load-balancer tier: service name -> ReplicaSet, one alias per
        # service (a bare network, as in unit tests, has none).  Every
        # REQUEST to a service resolves through its set on send.
        self._virtual: Dict[str, object] = {}
        #: REQUESTs the LB could not place (no READY replica); the packet
        #: is released, not sent — mirrors a connection-refused at the VIP.
        self.packets_unroutable = 0
        # Pre-drawn U(0,1) jitter values (nothing else reads ``rng``);
        # ``None`` when jitter is off.
        self._jitter = (
            block_draws(rng.random) if rng is not None and config.jitter > 0 else None
        )
        self._jitter_scale = config.jitter
        # Active-surge cache: total extra valid for t in [_surge_from, _surge_until).
        self._surge_active = 0.0
        self._surge_from = -math.inf
        self._surge_until = math.inf
        # Bound once: every send schedules it.
        self._delivery = self._deliver

    def add_observer(self, fn: Endpoint) -> None:
        """Register a read-only tap invoked on *every* delivery —
        including to external endpoints, which node RX hooks never see.
        Zero modeled cost: observers are measurement, not mechanism."""
        self._observers.append(fn)

    def remove_observer(self, fn: Endpoint) -> None:
        """Detach a previously-added observer (no-op if absent).

        Lets the validation monitors disarm cleanly, restoring the
        zero-observer fast path.  Equality (not identity) comparison, so
        a re-derived bound method like ``tracer._on_packet`` matches the
        one originally registered."""
        self._observers = [obs for obs in self._observers if obs != fn]

    # ------------------------------------------------------------- registry
    def register(self, name: str, node: Optional[Node], handler: Endpoint) -> None:
        """Register an endpoint.  ``node=None`` marks an external endpoint
        (the client machine — no RX hooks run for packets it receives)."""
        if name in self._endpoints:
            raise ValueError(f"duplicate endpoint {name!r}")
        self._endpoints[name] = (node, handler)

    def add_virtual(self, name: str, rset: object) -> None:
        """Alias service ``name`` to its replica set for LB resolution
        on send."""
        self._virtual[name] = rset

    def _route(self, src: str, dst: str) -> Tuple[float, Optional[Node], Endpoint]:
        """Resolve and cache the (base latency, dst node, handler) of a pair."""
        if dst not in self._endpoints:
            raise KeyError(f"unknown destination endpoint {dst!r}")
        if src not in self._endpoints:
            raise KeyError(f"unknown source endpoint {src!r}")
        src_node = self._endpoints[src][0]
        dst_node, handler = self._endpoints[dst]
        if src_node is not None and src_node is dst_node:
            base = self.config.intra_node_latency
        else:
            base = self.config.inter_node_latency
        route = (base, dst_node, handler)
        self._routes[(src, dst)] = route
        return route

    # -------------------------------------------------------------- surges
    def add_latency_surge(self, start: float, end: float, extra: float) -> None:
        """Add ``extra`` seconds to every packet sent in ``[start, end)``.

        Windows entirely in the past (``end <= now``) can never affect a
        packet and are dropped immediately rather than kept on the
        timeline.
        """
        for name, value in (("start", start), ("end", end), ("extra", extra)):
            if not math.isfinite(value):
                raise ValueError(f"latency surge {name} must be finite, got {value!r}")
        if end <= start or extra < 0:
            raise ValueError("invalid latency surge window")
        if end <= self.sim.now:
            return
        insort(self._surges, _LatencySurge(start, end, extra), key=attrgetter("start"))
        # Invalidate the active-window cache.
        self._surge_from = math.inf
        self._surge_until = -math.inf

    def _surge_rescan(self, t: float) -> float:
        """Recompute the active extra at ``t`` and its validity window,
        pruning surges that ended at or before ``t``."""
        surges = self._surges
        if surges:
            live = [s for s in surges if s.end > t]
            if len(live) != len(surges):
                self._surges = surges = live
        extra = 0.0
        until = math.inf
        for s in surges:  # sorted by start
            if s.start <= t:
                extra += s.extra
                if s.end < until:
                    until = s.end
            else:
                # First future window bounds the cache validity.
                if s.start < until:
                    until = s.start
                break
        self._surge_active = extra
        self._surge_from = t
        self._surge_until = until
        return extra

    # ------------------------------------------------------------- delivery
    def send(self, packet: RpcPacket) -> None:
        """Send ``packet``; it is delivered after the modeled latency.

        The latency is the route's base, times ``1 + U(0, jitter)``, plus
        the active surge extra and the destination node's RX hook cost.
        Delivery runs the destination node's RX hooks (if any) and then
        the endpoint handler.
        """
        if packet.kind == REQUEST:
            rset = self._virtual.get(packet.dst)
            if rset is not None:
                resolved = rset.resolve(packet)
                if resolved is None:
                    # No READY replica: the request dies at the VIP.
                    self.packets_unroutable += 1
                    packet.send_time = self.sim.now
                    self.pool.release(packet)
                    return
                packet.dst = resolved
        route = self._routes.get((packet.src, packet.dst))
        if route is None:
            route = self._route(packet.src, packet.dst)
        base, dst_node, handler = route
        jitter = self._jitter
        if jitter is not None:
            base *= 1.0 + next(jitter) * self._jitter_scale
        sim = self.sim
        t = sim.now
        if self._surge_from <= t < self._surge_until:
            base += self._surge_active
        else:
            base += self._surge_rescan(t)
        if dst_node is not None:
            base += dst_node._rx_overhead
        packet.send_time = t
        self.packets_sent += 1
        # ``schedule(base, ...)`` without its delay check: ``base`` is
        # non-negative by construction, and ``schedule_at`` still
        # rejects a non-finite time.
        sim.schedule_at(t + base, self._delivery, packet, dst_node, handler)

    def _deliver(
        self, packet: RpcPacket, node: Optional[Node], handler: Endpoint
    ) -> None:
        self.packets_delivered += 1
        for obs in self._observers:
            obs(packet)
        if node is not None:
            for hook in node._hook_fns:
                hook(packet)
        # Read first: a server that completes a request inside its
        # handler has already sent the same packet back as its response.
        response = packet.kind == RESPONSE
        handler(packet)
        if response:
            # Central release point: a response's life ends with its
            # delivery — every consumer (client callback, invocation
            # continuation, RPC reply latch, monitors, tracer) reads it
            # synchronously inside ``handler`` and retains nothing.
            self.pool.release(packet)
