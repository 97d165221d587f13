"""Tests for the memcached-like cache server on the event loop."""

from repro.apps.cache import CacheServer, cache_client
from repro.apps.proto import (ST_COUNT, ST_MISS, ST_STORED, ST_VALUE,
                              Request, Response)

from ..conftest import make_dpdk_libos_pair

STORED = Response(status=ST_STORED)
MISS = Response(status=ST_MISS)
DELETED = Response(status=ST_COUNT, count=1)


def hit(value):
    return Response(status=ST_VALUE, value=value)


def cache_set(key, value, ttl_ms=0):
    return Request(op="set", key=key, value=value, ttl_ms=ttl_ms)


def cache_get(key):
    return Request(op="get", key=key)


def cache_delete(key):
    return Request(op="delete", key=key)


def run_requests(requests, max_entries=1024, extra_sim_ns=0):
    w, client, server_libos = make_dpdk_libos_pair()
    server = CacheServer(server_libos, max_entries=max_entries)
    w.sim.spawn(server.start(), name="cache-server")
    cp = w.sim.spawn(cache_client(client, "10.0.0.2", requests))
    w.sim.run_until_complete(cp, limit=10**13)
    if extra_sim_ns:
        w.run(until=w.sim.now + extra_sim_ns)
    server.stop()
    return w, server, cp.value


class TestBasicOps:
    def test_set_then_get(self):
        _w, server, replies = run_requests([
            cache_set(b"k", b"cached-value"),
            cache_get(b"k"),
        ])
        assert replies[0] == STORED
        assert replies[1] == hit(b"cached-value")
        assert server.stats.hits == 1

    def test_get_missing_misses(self):
        _w, server, replies = run_requests([cache_get(b"nope")])
        assert replies == [MISS]
        assert server.stats.misses == 1

    def test_delete(self):
        _w, server, replies = run_requests([
            cache_set(b"k", b"v"),
            cache_delete(b"k"),
            cache_get(b"k"),
            cache_delete(b"k"),
        ])
        assert replies[1] == DELETED
        assert replies[2] == MISS
        assert replies[3] == MISS

    def test_overwrite(self):
        _w, _server, replies = run_requests([
            cache_set(b"k", b"old"),
            cache_set(b"k", b"new"),
            cache_get(b"k"),
        ])
        assert replies[2] == hit(b"new")


class TestLru:
    def test_eviction_at_capacity(self):
        requests = [cache_set(b"key-%d" % i, b"v") for i in range(6)]
        requests.append(cache_get(b"key-0"))  # evicted (oldest)
        requests.append(cache_get(b"key-5"))  # still present
        _w, server, replies = run_requests(requests, max_entries=4)
        assert server.stats.evictions == 2
        assert replies[-2] == MISS
        assert replies[-1] == hit(b"v")

    def test_get_refreshes_lru_position(self):
        requests = [
            cache_set(b"a", b"1"),
            cache_set(b"b", b"2"),
            cache_get(b"a"),          # touch a: b becomes LRU
            cache_set(b"c", b"3"),    # evicts b
            cache_get(b"a"),
            cache_get(b"b"),
        ]
        _w, _server, replies = run_requests(requests, max_entries=2)
        assert replies[-2] == hit(b"1")
        assert replies[-1] == MISS


class TestTtl:
    def test_expired_entry_misses_on_access(self):
        w, client, server_libos = make_dpdk_libos_pair()
        server = CacheServer(server_libos)
        w.sim.spawn(server.start(), name="cache-server")

        def scenario():
            replies = yield from cache_client(
                client, "10.0.0.2", [cache_set(b"t", b"v", ttl_ms=1)])
            yield w.sim.timeout(2_000_000)  # 2 ms > 1 ms TTL
            replies += yield from cache_client(
                client, "10.0.0.2", [cache_get(b"t")])
            return replies

        p = w.sim.spawn(scenario())
        w.sim.run_until_complete(p, limit=10**13)
        server.stop()
        assert p.value[0] == STORED
        assert p.value[1] == MISS
        assert server.stats.expirations >= 1

    def test_timer_sweep_removes_expired_entries(self):
        w, client, server_libos = make_dpdk_libos_pair()
        server = CacheServer(server_libos)
        w.sim.spawn(server.start(), name="cache-server")

        def scenario():
            yield from cache_client(client, "10.0.0.2", [
                cache_set(b"short", b"v", ttl_ms=1),
                cache_set(b"forever", b"v"),
            ])
            # Let the periodic sweep (1 ms cadence) run past the TTL.
            yield w.sim.timeout(5_000_000)
            return server.entry_count

        p = w.sim.spawn(scenario())
        w.sim.run_until_complete(p, limit=10**13)
        server.stop()
        assert p.value == 1  # only the TTL-free entry survives
        assert server.stats.expirations == 1

    def test_ttl_zero_never_expires(self):
        w, client, server_libos = make_dpdk_libos_pair()
        server = CacheServer(server_libos)
        w.sim.spawn(server.start(), name="cache-server")

        def scenario():
            yield from cache_client(client, "10.0.0.2",
                                    [cache_set(b"k", b"v", ttl_ms=0)])
            yield w.sim.timeout(10_000_000)
            return (yield from cache_client(client, "10.0.0.2",
                                            [cache_get(b"k")]))

        p = w.sim.spawn(scenario())
        w.sim.run_until_complete(p, limit=10**13)
        server.stop()
        assert p.value == [hit(b"v")]


class TestMultipleClients:
    def test_two_connections_share_the_cache(self):
        w, client, server_libos = make_dpdk_libos_pair()
        server = CacheServer(server_libos)
        w.sim.spawn(server.start(), name="cache-server")

        def writer():
            return (yield from cache_client(
                client, "10.0.0.2", [cache_set(b"shared", b"data")]))

        wp = w.sim.spawn(writer())
        w.sim.run_until_complete(wp, limit=10**13)

        def reader():
            return (yield from cache_client(
                client, "10.0.0.2", [cache_get(b"shared")]))

        rp = w.sim.spawn(reader())
        w.sim.run_until_complete(rp, limit=10**13)
        server.stop()
        assert rp.value == [hit(b"data")]
