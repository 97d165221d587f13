#!/usr/bin/env python3
"""A memcached-like cache on the libevent-style event loop (section 4.4).

"In the future, we plan to implement a libevent-based Demikernel OS,
which would enable applications, like memcached, to achieve the benefits
of kernel-bypass transparently."  This example runs that application: a
callback-structured LRU+TTL cache server on DemiEventLoop over the DPDK
libOS, with a periodic timer sweeping expired entries.

Run:  python examples/memcached_cache.py
"""

from repro.apps.cache import CacheServer, cache_client
from repro.apps.proto import ST_MISS, ST_VALUE, Request
from repro.bench.report import print_table
from repro.testbed import make_dpdk_libos_pair


def main():
    world, client_libos, server_libos = make_dpdk_libos_pair()
    server = CacheServer(server_libos, max_entries=3)
    world.sim.spawn(server.start(), name="cache-server")

    def scenario():
        # Fill past capacity: LRU eviction kicks in.
        replies = yield from cache_client(client_libos, "10.0.0.2", [
            Request(op="set", key=b"alpha", value=b"1"),
            Request(op="set", key=b"beta", value=b"2", ttl_ms=1),  # 1 ms TTL
            Request(op="set", key=b"gamma", value=b"3"),
            Request(op="set", key=b"delta", value=b"4"),  # evicts alpha
            Request(op="get", key=b"alpha"),
            Request(op="get", key=b"gamma"),
        ])
        # Outlive beta's TTL; the loop's timer sweep collects it.
        yield world.sim.timeout(3_000_000)
        replies += yield from cache_client(
            client_libos, "10.0.0.2", [Request(op="get", key=b"beta")])
        return replies

    proc = world.sim.spawn(scenario())
    world.sim.run_until_complete(proc, limit=10**13)
    server.stop()

    replies = proc.value
    assert replies[4].status == ST_MISS   # alpha evicted
    assert (replies[5].status, replies[5].value) == (ST_VALUE, b"3")
    assert replies[6].status == ST_MISS   # beta expired

    print_table(
        "cache server on DemiEventLoop",
        ["stat", "value"],
        [
            ("sets", server.stats.sets),
            ("hits", server.stats.hits),
            ("misses", server.stats.misses),
            ("LRU evictions", server.stats.evictions),
            ("TTL expirations", server.stats.expirations),
            ("event-loop dispatches", server.loop.dispatches),
            ("timer fires", server.loop.timer_fires),
        ],
    )
    print("every request arrived as one atomic element, one callback, "
          "one wake-up.")


if __name__ == "__main__":
    main()
