"""Request lifecycle at one service instance.

This module is the glue between the task-graph spec and the execution
substrate: a :class:`ServiceInstance` owns a container, the connection
pools to its children, and a :class:`~repro.cluster.runtime.ContainerRuntime`,
and drives each incoming request through the state machine

    arrive → pre-work compute → [for each child: acquire connection →
    downstream round trip → release] → post-work compute → reply

The two details that carry the paper's Fig. 5 phenomenology:

* compute phases run on the container (processor-shared, on-CPU); the
  downstream round trip and the wait for a pooled connection do *not*
  occupy a core (the thread is blocked — that is precisely why the
  threadpool queue is invisible to per-container CPU metrics);
* connection-wait time is accumulated per request and reported to the
  runtime, which derives ``execMetric``/``queueBuildup`` from it.

Fan-out: ``sequential`` sums the per-child waits (the same thread blocks
for each in turn); ``parallel`` takes the maximum (waits overlap in wall
time), keeping ``execMetric = execTime − wait`` non-negative.

Continuations follow one convention, ``fn, *args`` (``Container.submit``,
``ConnectionPool.acquire``): a bound method and the request state, never
a closure per call.  A sequential child's pool follows from the request's
``child_idx``, so its reply continuation is the request state's bound
:meth:`_Invocation.sequential_reply`, which also starts the next child;
a parallel branch binds its pool with :func:`functools.partial`.

One packet serves a whole RPC: a child call acquires the request, and
the server turns it into its response in place
(:func:`repro.cluster.packet.respond`), which the network releases after
delivering it.
"""

from __future__ import annotations

from functools import partial
from typing import Dict, Optional

import numpy as np

from repro.sim.engine import Simulator
from repro.sim.rng import BLOCK, block_draws
from repro.cluster.container import Container
from repro.cluster.network import Network
from repro.cluster.packet import REQUEST, RESPONSE, RpcPacket, respond
from repro.cluster.runtime import ContainerRuntime
from repro.cluster.threadpool import ConnectionPool
from repro.services.taskgraph import SEQUENTIAL, ServiceSpec

__all__ = ["ServiceInstance"]


class _Invocation:
    """Per-request state at one service instance."""

    __slots__ = (
        "instance",
        "pkt",
        "t_arrive",
        "upscale_in",
        "conn_wait",
        "child_idx",
        "pending",
        "failed",
        "dead",
    )

    def __init__(self, instance: "ServiceInstance", pkt: RpcPacket, t_arrive: float):
        self.instance = instance
        self.pkt = pkt
        self.t_arrive = t_arrive
        self.upscale_in = pkt.upscale
        #: Connection wait reported at completion: the sum of the child
        #: waits under sequential fan-out, their running maximum under
        #: parallel fan-out (waits are non-negative, so the maximum of
        #: all of them is the same float).
        self.conn_wait = 0.0
        self.child_idx = 0
        self.pending = 0
        #: A child call failed (error response or retry exhaustion);
        #: the request will complete as an error once branches resolve.
        self.failed = False
        #: Invocation was killed (container crash) or already finished as
        #: an error: every late callback must drop on the floor — in
        #: particular it must NOT release pools that were flushed.
        self.dead = False

    def sequential_reply(self, resp: Optional[RpcPacket]) -> None:
        """Reply continuation of this request's current sequential child:
        release its connection, then call the next child or start the
        post-work."""
        if self.dead:
            return
        instance = self.instance
        edges = instance._edges
        edges[self.child_idx][1].release()
        if resp is None or resp.error:
            # Child failed (retry exhaustion or explicit error): skip the
            # remaining children — the request cannot succeed anyway.
            instance._finish_error(self)
            return
        idx = self.child_idx + 1
        self.child_idx = idx
        if idx < len(edges):
            edges[idx][1].acquire(instance._sequential_granted, self)
        else:
            instance._after_children(self)


class ServiceInstance:
    """One deployed service: container + pools + runtime + state machine.

    Parameters
    ----------
    sim, spec, container, runtime, network:
        Wired by :class:`repro.cluster.cluster.Cluster`.
    pools:
        Connection pool per child name (one per outgoing edge).
    rng:
        Stream for per-request work draws.  It must be private to this
        instance: draws are taken from it a block at a time.
    """

    def __init__(
        self,
        sim: Simulator,
        spec: ServiceSpec,
        container: Container,
        runtime: ContainerRuntime,
        network: Network,
        pools: Dict[str, ConnectionPool],
        rng: np.random.Generator,
        name: Optional[str] = None,
    ):
        missing = {e.child for e in spec.children} - set(pools)
        if missing:
            raise ValueError(f"{spec.name!r}: missing pools for {sorted(missing)}")
        self.sim = sim
        self.spec = spec
        #: Endpoint name — the replica name when this instance is one of
        #: several copies of ``spec``; defaults to the bare service name
        #: (and replica 0 of a replicated service keeps it too).
        self.name = name or spec.name
        self.container = container
        self.runtime = runtime
        self.network = network
        self.pools = pools
        #: ``(child name, pool)`` per outgoing edge, in call order.
        self._edges = tuple((e.child, pools[e.child]) for e in spec.children)
        self._sequential = spec.fanout == SEQUENTIAL
        self.rng = rng
        # One shared iterator per standard-variate kind, so same-kind pre
        # and post phases read the stream in request order, as scalar
        # draws did.  Two kinds interleave on the one stream, so then
        # each draws a single value per refill to keep that order too.
        pre, post = spec.pre_work, spec.post_work
        kinds = {pre.variate, post.variate} - {None}
        block = BLOCK if len(kinds) < 2 else 1
        variates = {k: block_draws(getattr(rng, k), block) for k in kinds}
        self._pre_work = pre.sampler(variates.get(pre.variate))
        self._post_work = post.sampler(variates.get(post.variate))
        self.requests_started = 0
        self.requests_completed = 0
        #: Requests that completed as an *error* (a child call failed).
        self.requests_failed = 0
        #: REQUESTs that arrived while the process was down and vanished
        #: at the dead socket (replica-conservation bookkeeping).
        self.requests_dropped_down = 0
        #: In-flight invocations killed by :meth:`crash`.
        self.inflight_killed = 0
        #: Optional :class:`repro.faults.rpc.RpcCaller` installed by a
        #: fault injector; ``None`` (always, on fault-free runs) keeps
        #: child calls on the direct fire-and-forget path.
        self.rpc = None
        #: True between :meth:`crash` and :meth:`restart` — the process
        #: is gone and nothing listens on its socket.
        self._down = False
        #: Live invocations, so a crash can fail them all (and a drained
        #: run can prove none were orphaned).
        self._live: set = set()

    @property
    def inflight(self) -> int:
        """Live invocations on this instance (least-loaded LB signal)."""
        return len(self._live)

    # --------------------------------------------------------------- ingress
    def handle_packet(self, pkt: RpcPacket) -> None:
        """Network endpoint handler for this service's container."""
        if self._down:
            # Crashed process: requests and responses alike vanish at the
            # dead socket.  Caller-side RPC timeouts are the recovery
            # path (see repro.faults.rpc).
            if pkt.kind == REQUEST:
                self.requests_dropped_down += 1
            return
        if pkt.kind == RESPONSE:
            # Resume the waiting caller-side continuation.
            if pkt.context is None:  # pragma: no cover - wiring bug guard
                raise RuntimeError(f"response without context at {self.spec.name!r}")
            pkt.context(pkt)
            return
        if pkt.kind != REQUEST:  # pragma: no cover - wiring bug guard
            raise RuntimeError(f"unknown packet kind {pkt.kind!r}")
        self.requests_started += 1
        now = self.sim.now
        self.runtime.on_arrival(now - pkt.start_time, pkt.upscale)
        inv = _Invocation(self, pkt, now)
        self._live.add(inv)
        work = self._pre_work()
        if work > 0.0:
            self.container.submit(work, self._after_pre, inv)
        else:
            self._after_pre(inv)

    # ---------------------------------------------------------------- faults
    def crash(self) -> int:
        """Fault injection: the service process dies right now.

        In-flight invocations are marked dead (their pending callbacks
        become no-ops), the container's compute phases are discarded,
        and the caller-side connection pools are flushed — the threads
        holding/awaiting those connections died with the process.
        Returns the number of invocations killed.  The instance stays
        ``_down`` (dropping all arriving packets) until :meth:`restart`.
        """
        self._down = True
        for inv in self._live:
            inv.dead = True
        killed = len(self._live)
        self.inflight_killed += killed
        self._live.clear()
        self.container.crash()
        for pool in self.pools.values():
            pool.flush()
        return killed

    def restart(self) -> None:
        """Bring a crashed instance back up with a cold runtime window."""
        if not self._down:
            raise RuntimeError(f"{self.name!r}: restart without crash")
        self._down = False
        self.runtime.reset_window()

    def shutdown(self) -> None:
        """Orderly stop of a *drained* replica (scale-in reaping).

        Unlike :meth:`crash` there is nothing to kill — reaping waits for
        the in-flight set to empty — but the socket goes dead the same
        way, and :meth:`restart` is the shared revival path.
        """
        if self._live:
            raise RuntimeError(f"{self.name!r}: shutdown with live invocations")
        self._down = True

    def _call_child(self, inv: _Invocation, dst: str, on_reply) -> None:
        """Send ``inv``'s job to child ``dst``: directly, or via the RPC layer.

        The request is a pooled packet either way; ``start_time``
        propagates unchanged and the runtime sets the ``upscale`` hint.
        The server returns it as its response.  ``on_reply(resp)`` fires
        once with the response (check ``resp.error``), or with ``None``
        when the RPC layer exhausts the call.  The direct path is the
        fault-free hot path (one ``is None`` check of separation).
        """
        net = self.network
        pkt = inv.pkt
        upscale = self.runtime.outgoing_upscale(inv.upscale_in)
        if self.rpc is None:
            net.send(
                net.pool.acquire(
                    pkt.request_id, REQUEST, self.name, dst, pkt.start_time,
                    upscale, False, on_reply,
                )
            )
        else:
            self.rpc.call(
                net.pool.acquire(
                    pkt.request_id, REQUEST, self.name, dst, pkt.start_time,
                    upscale,
                ),
                on_reply,
            )

    # ------------------------------------------------------------- children
    def _after_pre(self, inv: _Invocation) -> None:
        if inv.dead:
            return
        edges = self._edges
        if not edges:
            self._after_children(inv)
            return
        if self._sequential:
            edges[0][1].acquire(self._sequential_granted, inv)
        else:
            inv.pending = len(edges)
            for child, pool in edges:
                pool.acquire(self._parallel_granted, inv, child, pool)

    def _sequential_granted(self, wait: float, inv: _Invocation) -> None:
        if inv.dead:
            return  # pool was flushed with the crash; do not send
        inv.conn_wait += wait
        self._call_child(inv, self._edges[inv.child_idx][0], inv.sequential_reply)

    def _parallel_granted(
        self, wait: float, inv: _Invocation, child: str, pool: ConnectionPool
    ) -> None:
        if inv.dead:
            return  # pool was flushed with the crash; do not send
        if wait > inv.conn_wait:
            inv.conn_wait = wait
        self._call_child(inv, child, partial(self._parallel_child_done, inv, pool))

    def _parallel_child_done(
        self, inv: _Invocation, pool: ConnectionPool, resp: Optional[RpcPacket]
    ) -> None:
        if inv.dead:
            return
        pool.release()
        if resp is None or resp.error:
            inv.failed = True
        inv.pending -= 1
        if inv.pending == 0:
            if inv.failed:
                # All branches resolved (success, error, or exhaustion):
                # only now can the request complete, as an error.
                self._finish_error(inv)
                return
            self._after_children(inv)

    # --------------------------------------------------------------- egress
    def _after_children(self, inv: _Invocation) -> None:
        work = self._post_work()
        if work > 0.0:
            self.container.submit(work, self._finish, inv)
        else:
            self._finish(inv)

    def _finish(self, inv: _Invocation) -> None:
        if inv.dead:
            return
        self._live.discard(inv)
        self.requests_completed += 1
        exec_time = self.sim.now - inv.t_arrive
        self.runtime.on_complete(exec_time, inv.conn_wait)
        # The request becomes its response.  An RPC caller keeps the
        # call's fields, never this packet, so a retry racing it is a
        # packet of its own.
        self.network.send(respond(inv.pkt, self.name))

    def _finish_error(self, inv: _Invocation) -> None:
        """Complete ``inv`` as a failure: error response, no metrics.

        The runtime's ``on_complete`` is deliberately *not* called — a
        failed request's wall time measures timeout/backoff policy, not
        container execution, and would poison ``execMetric`` windows.
        """
        inv.dead = True  # any straggling branch callback must no-op
        self._live.discard(inv)
        self.requests_failed += 1
        self.network.send(respond(inv.pkt, self.name, True))
