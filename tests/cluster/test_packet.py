"""Unit tests for RPC packets and the Fig. 8 metadata rules.

Every packet is built by :meth:`PacketPool.acquire`: the next hop's
request (``ServiceInstance._call_child``) and an RPC retry
(``_Call.retry_packet``).  A response is the served request itself,
turned around in place by :func:`respond`.  Each pool builder is tested
here on a *recycled* packet, so a field that ``acquire`` forgot to
overwrite would show.
"""

import dataclasses

from repro.cluster.cluster import Cluster, ClusterConfig
from repro.cluster.invocation import _Invocation
from repro.cluster.packet import (
    _LIVE,
    REQUEST,
    RESPONSE,
    PacketPool,
    RpcPacket,
    respond,
)
from repro.faults.rpc import _Call
from repro.services.taskgraph import AppSpec, EdgeSpec, ServiceSpec, WorkDist
from repro.sim.engine import Simulator
from repro.sim.rng import RngRegistry


def mk(upscale=0, start_time=1.25):
    return RpcPacket(
        request_id=7,
        kind=REQUEST,
        src="a",
        dst="b",
        start_time=start_time,
        upscale=upscale,
    )


def pool():
    return PacketPool(enabled=True, debug=False)


def serving_instance(packets, server="b", child="c"):
    """Service ``server`` of a two-stage chain ``server → child``.

    Its network builds packets from ``packets`` and records every send
    in ``sent`` instead of delivering it.  Returns ``(instance, sent)``.
    """
    work = WorkDist(1e6, "deterministic")
    app = AppSpec(
        name="pair",
        action="pair",
        services=(
            ServiceSpec(server, pre_work=work, children=(EdgeSpec(child, None),)),
            ServiceSpec(child, pre_work=work),
        ),
        root=server,
        qos_target=20e-3,
    )
    cluster = Cluster(Simulator(), app, ClusterConfig(n_nodes=1), RngRegistry(1))
    net = cluster.network
    net.pool = packets
    sent = []
    net.send = sent.append
    return cluster.instances[server], sent


def call_child(packets, pkt, dst="c", on_reply=None, server="b"):
    """The request ``server`` sends to ``dst`` while it serves ``pkt``."""
    instance, sent = serving_instance(packets, server, dst)
    instance._call_child(_Invocation(instance, pkt, 0.0), dst, on_reply)
    (out,) = sent
    return out


class TestForkDownstream:
    """The next hop's request, built by ``ServiceInstance._call_child``."""

    def test_start_time_propagates_unchanged(self):
        child = call_child(pool(), mk(start_time=3.5))
        assert child.start_time == 3.5
        assert child.request_id == 7
        assert child.kind == REQUEST
        assert child.src == "b" and child.dst == "c"

    def test_upscale_set_by_caller(self):
        # The runtime's hint rule: an incoming TTL of 3 propagates as 2.
        child = call_child(pool(), mk(upscale=3))
        assert child.upscale == 2

    def test_context_not_inherited_downstream(self):
        pkt = mk()
        pkt.context = object()
        reply = object()
        child = call_child(pool(), pkt, on_reply=reply)
        # The direct path hands the reply continuation over with the
        # packet; the request's own continuation stays with the request.
        assert child.context is reply
        assert child is not pkt


class TestMakeResponse:
    """The response: ``respond`` turns the served request around in place."""

    def test_response_routes_back_to_sender(self):
        pkt = mk()
        resp = respond(pkt, "b")
        assert resp is pkt
        assert resp.kind == RESPONSE
        assert resp.dst == "a"
        assert resp.src == "b"

    def test_response_preserves_context_and_start_time(self):
        pkt = mk(start_time=9.0)
        marker = object()
        pkt.context = marker
        resp = respond(pkt, "b")
        assert resp.context is marker
        assert resp.start_time == 9.0

    def test_response_carries_no_upscale(self):
        resp = respond(mk(upscale=3), "b")
        assert resp.upscale == 0
        assert resp.error is False
        assert respond(mk(), "b", True).error is True


class TestRetryPacket:
    def test_fresh_send_time_and_context(self):
        pkt = mk()
        call = _Call(None, pkt, None)
        pkt.send_time = 4.0  # what the network does to the first attempt
        pkt.context = object()
        retry = call.retry_packet(pool())
        assert retry is not pkt
        assert retry.send_time == 0.0
        assert retry.context is None

    def test_retry_is_addressed_to_the_call_destination(self):
        # The load balancer rewrites a sent request's ``dst`` to the
        # replica it picked; the retry goes to the name the caller chose,
        # so it is resolved afresh.
        pkt = mk()
        call = _Call(None, pkt, None)
        pkt.dst = "b@1"
        assert call.retry_packet(pool()).dst == "b"


#: Marker in a ledger row: the field is copied from the source packet.
SAME = object()


class TestFieldLedger:
    """Every RpcPacket field must be *classified* by each packet builder.

    The pool builders overwrite each field of a recycled packet
    explicitly, so a field they forget keeps whatever the packet carried
    on its previous trip.  The in-place response keeps the request's
    fields unless it sets them, so a field it forgets keeps the request's
    value.  This ledger records, per builder, every field's value: the
    source packet's as it was before the build (``SAME``) or one set
    deliberately.  Each pool builder runs on a released packet whose
    fields hold junk no builder writes, so a forgotten overwrite fails
    here; the response runs on the source packet itself, whose values no
    response carries.  Adding a field to ``RpcPacket`` fails this test
    until the field is classified for all three builders.
    """

    #: Distinctive non-default source values, one per init field.
    SOURCE = dict(
        request_id=91,
        kind=REQUEST,
        src="caller",
        dst="callee",
        start_time=6.5,
        upscale=4,
        send_time=2.25,
        error=True,
        context=("ctx-marker",),
    )

    #: Junk left on the recycled packet: values of no type or range a
    #: builder produces.
    DIRTY = dict(
        request_id=-1,
        kind="dirty",
        src="dirty",
        dst="dirty",
        start_time=-1.0,
        upscale=-1,
        send_time=-1.0,
        error="dirty",
        context="dirty",
    )

    #: The reply continuation a downstream call hands over.
    REPLY = ("reply-marker",)

    #: builder -> {field: expected value, or SAME}.
    LEDGER = {
        # ``upscale``: the incoming TTL 4 propagates as 3.
        "downstream": dict(
            request_id=SAME, kind=REQUEST, src="callee", dst="next",
            start_time=SAME, upscale=3, send_time=0.0, error=False,
            context=REPLY, _pool_state=_LIVE,
        ),
        # ``send_time`` is kept: the network stamps it on send.
        "respond": dict(
            request_id=SAME, kind=RESPONSE, src="callee", dst="caller",
            start_time=SAME, upscale=0, send_time=SAME, error=False,
            context=SAME, _pool_state=SAME,
        ),
        # ``error`` is response-only: a request never carries True, so
        # the retry of one is built with False.
        "retry": dict(
            request_id=SAME, kind=REQUEST, src=SAME, dst=SAME,
            start_time=SAME, upscale=SAME, send_time=0.0, error=False,
            context=None, _pool_state=_LIVE,
        ),
    }

    BUILDERS = {
        "downstream": lambda pool, p: call_child(
            pool, p, "next", TestFieldLedger.REPLY, server="callee"
        ),
        "respond": lambda pool, p: respond(p, "callee", False),
        "retry": lambda pool, p: _Call(None, p, None).retry_packet(pool),
    }

    #: Builders that return the source packet itself, not a pooled one.
    IN_PLACE = {"respond"}

    def dirty_pool(self):
        """A pool whose free list holds one released, junk-filled packet."""
        pool = PacketPool(enabled=True, debug=False)
        dirty = pool.acquire(0, REQUEST, "x", "y", 0.0)
        pool.release(dirty)
        for name, value in self.DIRTY.items():
            setattr(dirty, name, value)
        return pool, dirty

    def test_ledger_classifies_every_field(self):
        field_names = {f.name for f in dataclasses.fields(RpcPacket)}
        assert set(self.BUILDERS) == set(self.LEDGER)
        assert self.IN_PLACE <= set(self.BUILDERS)
        for builder, ledger in self.LEDGER.items():
            assert set(ledger) == field_names, f"{builder} ledger is incomplete"
        # The source and the junk must set a distinctive value for every
        # init field, so both copying and overwriting are observable.
        init_fields = {f.name for f in dataclasses.fields(RpcPacket) if f.init}
        assert set(self.SOURCE) == init_fields
        assert set(self.DIRTY) == init_fields

    def test_every_field_propagated_or_deliberately_reset(self):
        field_names = [f.name for f in dataclasses.fields(RpcPacket)]
        for builder, build in self.BUILDERS.items():
            src = RpcPacket(**self.SOURCE)
            before = {name: getattr(src, name) for name in field_names}
            pool, dirty = self.dirty_pool()
            out = build(pool, src)
            if builder in self.IN_PLACE:
                assert out is src, f"{builder} did not return the source packet"
                assert pool.free == 1, f"{builder} took a packet from the pool"
            else:
                assert out is dirty, f"{builder} did not recycle the free packet"
            for name, want in self.LEDGER[builder].items():
                got = getattr(out, name)
                if want is SAME:
                    want = before[name]
                assert got == want, (
                    f"{builder}: field {name!r} should be {want!r}, got "
                    f"{got!r}; classify it in LEDGER if the value is intended"
                )
