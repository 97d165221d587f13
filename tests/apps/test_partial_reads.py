"""Partial-read framing across the legacy servers (the fixed bug).

Before the codec port, ``CacheServer`` fed each popped element straight
into a one-shot parser: a request split across two pops decoded garbage
or crashed, and a truncated PUT silently stored a truncated value.
These tests pin the fix end to end: every split offset of a request
stream serves identically, malformed bytes close a TCP stream (and only
that stream) or drop a UDP datagram (and only that datagram).
"""

from repro.apps.cache import CacheServer, cache_client
from repro.apps.kvstore import (OP_GET, OP_PUT, DemiKvServer, UdpKvServer,
                                demi_kv_client, udp_kv_client)
from repro.apps.proto import (ST_COUNT, ST_MISS, ST_STORED, ST_VALUE,
                              Request, Response)
from repro.apps.proto.legacy import LegacyCacheCodec
from repro.telemetry import names

from ..conftest import make_dpdk_libos_pair

CACHE_PORT = 11211


def chunked_cache_client(libos, server_addr, chunks, n_replies,
                         port=CACHE_PORT):
    """Push arbitrary byte chunks; decode replies incrementally."""
    codec = LegacyCacheCodec()
    qd = yield from libos.socket()
    yield from libos.connect(qd, server_addr, port)
    for chunk in chunks:
        yield from libos.blocking_push(qd, libos.sga_alloc(chunk))
    replies = []
    while len(replies) < n_replies:
        result = yield from libos.blocking_pop(qd)
        if result.error is not None:
            break
        replies.extend(codec.feed_responses(result.sga.tobytes()))
    yield from libos.close(qd)
    return replies


def run_cache_chunks(chunks, n_replies):
    w, client, server_libos = make_dpdk_libos_pair()
    server = CacheServer(server_libos)
    w.sim.spawn(server.start(), name="cache-server")
    cp = w.sim.spawn(
        chunked_cache_client(client, "10.0.0.2", chunks, n_replies))
    w.sim.run_until_complete(cp, limit=10**13)
    server.stop()
    w.run(until=w.sim.now + 5_000_000)
    return server, cp.value


#: SET(k)=v, GET(k) hit, DELETE(k), GET(k) miss - 4 replies
CACHE_SCRIPT = b"".join(LegacyCacheCodec().encode_request(r) for r in (
    Request(op="set", key=b"k", value=b"v"), Request(op="get", key=b"k"),
    Request(op="delete", key=b"k"), Request(op="get", key=b"k")))
CACHE_EXPECTED = [ST_STORED, ST_VALUE, ST_COUNT, ST_MISS]


class TestCacheServerSplitRequests:
    def test_every_split_offset_serves_identically(self):
        # Two pushes cut at EVERY byte boundary of the stream: the
        # request mix, reply order, and cache effects never change.
        for cut in range(1, len(CACHE_SCRIPT)):
            server, replies = run_cache_chunks(
                [CACHE_SCRIPT[:cut], CACHE_SCRIPT[cut:]],
                len(CACHE_EXPECTED))
            statuses = [s for s, _v in
                        ((r.status, r.value) for r in replies)]
            assert [r.status for r in replies] == [
                "stored", "value", "count", "miss"], \
                "split at %d diverged: %r" % (cut, statuses)
            assert replies[1].value == b"v"
            assert server.decode_errors == 0
            assert server.stats.sets == 1
            assert server.stats.hits == 1

    def test_one_byte_at_a_time(self):
        server, replies = run_cache_chunks(
            [bytes([b]) for b in CACHE_SCRIPT], len(CACHE_EXPECTED))
        assert [r.status for r in replies] == [
            "stored", "value", "count", "miss"]
        assert server.decode_errors == 0

    def test_pipelined_whole_script_in_one_push(self):
        server, replies = run_cache_chunks([CACHE_SCRIPT],
                                           len(CACHE_EXPECTED))
        assert len(replies) == 4
        assert server.decode_errors == 0

    def test_old_client_still_speaks_the_same_wire(self):
        # The one-request-per-pop client speaks the same wire unsplit.
        w, client, server_libos = make_dpdk_libos_pair()
        server = CacheServer(server_libos)
        w.sim.spawn(server.start(), name="cache-server")
        cp = w.sim.spawn(cache_client(client, "10.0.0.2", [
            Request(op="set", key=b"k", value=b"cached"),
            Request(op="get", key=b"k")]))
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        assert cp.value == [Response(status=ST_STORED),
                            Response(status=ST_VALUE, value=b"cached")]

    def test_garbage_closes_only_that_connection(self):
        w, client, server_libos = make_dpdk_libos_pair()
        server = CacheServer(server_libos)
        w.sim.spawn(server.start(), name="cache-server")

        def bad_then_good():
            # Unknown opcode 0xFF: desync, server must hang up.
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", CACHE_PORT)
            yield from client.blocking_push(
                qd, client.sga_alloc(b"\xff\x00\x01x"))
            result = yield from client.blocking_pop(qd)
            assert result.error is not None
            yield from client.close(qd)
            # A fresh connection is served normally.
            return (yield from cache_client(client, "10.0.0.2", [
                Request(op="set", key=b"k", value=b"v"),
                Request(op="get", key=b"k")]))

        cp = w.sim.spawn(bad_then_good())
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        assert cp.value == [Response(status=ST_STORED),
                            Response(status=ST_VALUE, value=b"v")]
        assert server.decode_errors == 1
        assert server_libos.counters.get(names.PROTO_DECODE_ERRORS) == 1


class TestDemiKvServerMalformedStream:
    def test_malformed_bytes_close_the_connection(self):
        w, client, server_libos = make_dpdk_libos_pair()
        server = DemiKvServer(server_libos, port=6379)
        sp = w.sim.spawn(server.run(), name="kv-server")

        def bad_then_good():
            qd = yield from client.socket()
            yield from client.connect(qd, "10.0.0.2", 6379)
            # 0xFF is not 'G' or 'P': stream desync, not a slow sender.
            yield from client.blocking_push(
                qd, client.sga_alloc(b"\xff\x00\x03abc"))
            result = yield from client.blocking_pop(qd)
            assert result.error is not None
            yield from client.close(qd)
            results, _stats = yield from demi_kv_client(
                client, "10.0.0.2",
                [(OP_PUT, b"k", b"v"), (OP_GET, b"k", None)])
            return results

        cp = w.sim.spawn(bad_then_good())
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        if sp.alive:
            sp.interrupt("test done")
        w.run(until=w.sim.now + 5_000_000)
        assert cp.value == [None, (True, b"v")]
        assert server.requests_served == 2  # the garbage served nothing
        assert server_libos.counters.get(
            names.KV_MALFORMED_REQUESTS) == 1


class TestUdpKvServerMalformedDatagram:
    def test_bad_datagram_dropped_server_keeps_serving(self):
        w, client, server_libos = make_dpdk_libos_pair()
        server = UdpKvServer(server_libos, port=6379)
        sp = w.sim.spawn(server.run(), name="udp-kv-server")

        def bad_then_good():
            qd = yield from client.socket("udp")
            yield from client.connect(qd, "10.0.0.2", 6379)
            # A malformed datagram gets no reply - UDP just drops it.
            yield from client.blocking_push(
                qd, client.sga_alloc(b"\xff\xffgarbage"))
            yield from client.close(qd)
            results, _stats = yield from udp_kv_client(
                client, "10.0.0.2",
                [(OP_PUT, b"k", b"v"), (OP_GET, b"k", None)])
            return results

        cp = w.sim.spawn(bad_then_good())
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        if sp.alive:
            sp.interrupt("test done")
        w.run(until=w.sim.now + 5_000_000)
        assert cp.value == [None, (True, b"v")]
        assert server.requests_served == 2
        assert server_libos.counters.get(
            names.KV_MALFORMED_REQUESTS) == 1

    def test_truncated_put_is_rejected_not_stored(self):
        # The original bug: a PUT cut short stored the partial value.
        # Now the truncated datagram is malformed and nothing lands.
        from repro.apps.kvstore import encode_put

        w, client, server_libos = make_dpdk_libos_pair()
        server = UdpKvServer(server_libos, port=6379)
        sp = w.sim.spawn(server.run(), name="udp-kv-server")
        truncated = encode_put(b"k", b"full-value")[:-4]

        def body():
            qd = yield from client.socket("udp")
            yield from client.connect(qd, "10.0.0.2", 6379)
            yield from client.blocking_push(qd, client.sga_alloc(truncated))
            yield from client.close(qd)
            results, _stats = yield from udp_kv_client(
                client, "10.0.0.2", [(OP_GET, b"k", None)])
            return results

        cp = w.sim.spawn(body())
        w.sim.run_until_complete(cp, limit=10**13)
        server.stop()
        if sp.alive:
            sp.interrupt("test done")
        w.run(until=w.sim.now + 5_000_000)
        assert cp.value == [(False, None)]  # nothing stored, not garbage
        assert server.engine.puts == 0
        assert server_libos.counters.get(
            names.KV_MALFORMED_REQUESTS) == 1
