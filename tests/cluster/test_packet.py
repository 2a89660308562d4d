"""Unit tests for RPC packets and the Fig. 8 metadata rules.

Every packet is built by :class:`PacketPool`: the next hop's request
(``fork_downstream``), the response (``make_response``) and an RPC retry
(``_Call.retry_packet``).  Each builder is tested here on a *recycled*
packet, so a field that ``acquire`` forgot to overwrite would show.
"""

import dataclasses

from repro.cluster.packet import _LIVE, REQUEST, RESPONSE, PacketPool, RpcPacket
from repro.faults.rpc import _Call


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


class TestForkDownstream:
    def test_start_time_propagates_unchanged(self):
        pkt = mk(start_time=3.5)
        child = pool().fork_downstream(pkt, dst="c", src="b", upscale=0)
        assert child.start_time == 3.5
        assert child.request_id == 7
        assert child.kind == REQUEST
        assert child.src == "b" and child.dst == "c"

    def test_upscale_set_by_caller(self):
        child = pool().fork_downstream(mk(), dst="c", src="b", upscale=2)
        assert child.upscale == 2

    def test_context_not_inherited_downstream(self):
        pkt = mk()
        pkt.context = object()
        child = pool().fork_downstream(pkt, dst="c", src="b", upscale=0)
        assert child.context is None


class TestMakeResponse:
    def test_response_routes_back_to_sender(self):
        resp = pool().make_response(mk(), src="b")
        assert resp.kind == RESPONSE
        assert resp.dst == "a"
        assert resp.src == "b"

    def test_response_preserves_context_and_start_time(self):
        pkt = mk(start_time=9.0)
        marker = object()
        pkt.context = marker
        resp = pool().make_response(pkt, src="b")
        assert resp.context is marker
        assert resp.start_time == 9.0

    def test_response_carries_no_upscale(self):
        resp = pool().make_response(mk(upscale=3), src="b")
        assert resp.upscale == 0


class TestRetryPacket:
    def test_fresh_send_time_and_context(self):
        pkt = mk()
        call = _Call(pkt, None)
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
        call = _Call(pkt, None)
        pkt.dst = "b@1"
        assert call.retry_packet(pool()).dst == "b"


#: Marker in a ledger row: the field is copied from the source packet.
SAME = object()


class TestFieldLedger:
    """Every RpcPacket field must be *classified* by each packet builder.

    The builders overwrite each field of a recycled packet explicitly, so
    a field they forget keeps whatever the packet carried on its previous
    trip.  This ledger records, per builder, every field's value: copied
    from the source packet (``SAME``) or set deliberately.  Each builder
    runs on a released packet whose fields hold junk no builder writes,
    so a forgotten overwrite fails here.  Adding a field to ``RpcPacket``
    fails this test until the field is classified for all three
    builders.
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

    #: builder -> {field: expected value, or SAME}.
    LEDGER = {
        "fork_downstream": dict(
            request_id=SAME, kind=REQUEST, src="callee", dst="next",
            start_time=SAME, upscale=1, send_time=0.0, error=False,
            context=None, _pool_state=_LIVE,
        ),
        "make_response": dict(
            request_id=SAME, kind=RESPONSE, src="callee", dst="caller",
            start_time=SAME, upscale=0, send_time=0.0, error=True,
            context=SAME, _pool_state=_LIVE,
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
        "fork_downstream": lambda pool, p: pool.fork_downstream(
            p, dst="next", src="callee", upscale=1
        ),
        "make_response": lambda pool, p: pool.make_response(
            p, src="callee", error=True
        ),
        "retry": lambda pool, p: _Call(p, None).retry_packet(pool),
    }

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
        for builder, ledger in self.LEDGER.items():
            assert set(ledger) == field_names, f"{builder} ledger is incomplete"
        # The source and the junk must set a distinctive value for every
        # init field, so both copying and overwriting are observable.
        init_fields = {f.name for f in dataclasses.fields(RpcPacket) if f.init}
        assert set(self.SOURCE) == init_fields
        assert set(self.DIRTY) == init_fields

    def test_every_field_propagated_or_deliberately_reset(self):
        for builder, build in self.BUILDERS.items():
            src = RpcPacket(**self.SOURCE)
            pool, dirty = self.dirty_pool()
            out = build(pool, src)
            assert out is dirty, f"{builder} did not recycle the free packet"
            for name, want in self.LEDGER[builder].items():
                got = getattr(out, name)
                if want is SAME:
                    want = getattr(src, name)
                assert got == want, (
                    f"{builder}: field {name!r} should be {want!r}, got "
                    f"{got!r}; classify it in LEDGER if the value is intended"
                )
