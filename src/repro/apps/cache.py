"""A memcached-like cache server on the libevent-style event loop.

Section 4.4: "we plan to implement a libevent-based Demikernel OS, which
would enable applications, like memcached, to achieve the benefits of
kernel-bypass transparently."  This is that application shape: a
callback-structured cache server - per-connection request callbacks plus
a periodic expiry timer - running entirely on
:class:`repro.core.eventloop.DemiEventLoop`, so it works unchanged on any
libOS.

:class:`CacheServer` is a :class:`~repro.apps.proto.server.ProtoServer`
over :class:`~repro.apps.proto.legacy.LegacyCacheCodec` and an
:class:`LruTtlCache`, plus the sweep timer: requests go through the same
feed -> apply -> encode body as every other protocol server, so split
and pipelined requests decode correctly and pipelined replies coalesce.
The wire format (big-endian) is owned by the codec::

    request:  op:u8 ('S'|'G'|'D')  klen:u16  key
              [S: ttl_ms:u32  vlen:u32  value]
    response: status:u8 ('H' hit | 'M' miss | 'S' stored | 'D' deleted)
              [H: vlen:u32  value]

Cache policy lives in :class:`LruTtlCache` - bounded entry count with
LRU eviction; per-entry TTL enforced lazily on access and eagerly by
the timer sweep.  Its ``get`` / ``set(ttl_ms)`` / ``delete`` already
match the protocol layer's store contract, so the same cache serves
RESP or memcached-binary behind a plain ``ProtoServer`` too.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable, Generator, Optional

from ..core.api import LibOS
from .proto.legacy import LegacyCacheCodec
from .proto.server import ProtoServer

__all__ = ["CacheServer", "CacheStats", "LruTtlCache", "cache_client"]


class CacheStats:
    def __init__(self):
        self.hits = 0
        self.misses = 0
        self.sets = 0
        self.deletes = 0
        self.evictions = 0
        self.expirations = 0


class _Entry:
    __slots__ = ("value", "expires_at")

    def __init__(self, value: bytes, expires_at: Optional[int]):
        self.value = value
        self.expires_at = expires_at  # sim ns, None = no TTL


class LruTtlCache:
    """The cache policy alone: bounded LRU with lazy + swept TTL expiry.

    *clock* is a zero-argument callable returning sim-time in ns (pass
    ``lambda: libos.sim.now``); keeping it injected means the policy has
    no libOS dependency and any protocol frontend can wrap it.
    """

    def __init__(self, clock: Callable[[], int], max_entries: int = 1024,
                 stats: Optional[CacheStats] = None):
        self.clock = clock
        self.max_entries = max_entries
        self.stats = stats or CacheStats()
        self._entries: "OrderedDict[bytes, _Entry]" = OrderedDict()

    def get(self, key: bytes) -> Optional[bytes]:
        entry = self._entries.get(key)
        if entry is None:
            self.stats.misses += 1
            return None
        if entry.expires_at is not None and entry.expires_at <= self.clock():
            del self._entries[key]
            self.stats.expirations += 1
            self.stats.misses += 1
            return None
        self._entries.move_to_end(key)  # LRU touch
        self.stats.hits += 1
        return entry.value

    def set(self, key: bytes, value: bytes, ttl_ms: int = 0) -> None:
        expires = None if ttl_ms == 0 else self.clock() + ttl_ms * 1_000_000
        self._entries[key] = _Entry(value, expires)
        self._entries.move_to_end(key)
        self.stats.sets += 1
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)  # evict the LRU entry
            self.stats.evictions += 1

    def delete(self, key: bytes) -> bool:
        if key in self._entries:
            del self._entries[key]
            self.stats.deletes += 1
            return True
        return False

    def sweep_expired(self) -> None:
        now = self.clock()
        dead = [key for key, entry in self._entries.items()
                if entry.expires_at is not None and entry.expires_at <= now]
        for key in dead:
            del self._entries[key]
            self.stats.expirations += 1

    @property
    def entry_count(self) -> int:
        return len(self._entries)


class CacheServer(ProtoServer):
    """An :class:`LruTtlCache` behind a :class:`ProtoServer` speaking the
    legacy cache format, plus a periodic expiry sweep on the same loop."""

    SWEEP_INTERVAL_NS = 1_000_000  # 1 ms

    def __init__(self, libos: LibOS, port: int = 11211,
                 max_entries: int = 1024):
        self.cache = LruTtlCache(lambda: libos.sim.now, max_entries)
        super().__init__(libos, LegacyCacheCodec, self.cache, port=port)

    @property
    def stats(self) -> CacheStats:
        return self.cache.stats

    @property
    def entry_count(self) -> int:
        return self.cache.entry_count

    def start(self) -> Generator:
        """Spawn-me: arm the expiry sweep, then serve."""
        self.loop.add_timer(self.SWEEP_INTERVAL_NS,
                            self.cache.sweep_expired, periodic=True)
        yield from super().start()


def cache_client(libos: LibOS, server_addr: str, requests,
                 port: int = 11211) -> Generator:
    """Send each :class:`Request` and await its reply; returns Responses."""
    wire = LegacyCacheCodec()
    qd = yield from libos.socket()
    yield from libos.connect(qd, server_addr, port)
    replies = []
    for request in requests:
        yield from libos.blocking_push(
            qd, libos.sga_alloc(wire.encode_request(request)))
        want = len(replies) + 1
        while len(replies) < want:
            result = yield from libos.blocking_pop(qd)
            replies += wire.feed_responses(result.sga.tobytes())
    yield from libos.close(qd)
    return replies
