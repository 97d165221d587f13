"""Per-core shards and the sharded KV server built from them.

Each :class:`Shard` owns a full vertical slice: one :class:`~repro.libos.
dpdk_libos.DpdkLibOS` instance pinned to one :class:`~repro.sim.cpu.Core`
and one NIC RX queue, its own qtoken table (it comes with the libOS), and
its own :class:`~repro.apps.kvstore.KvEngine` partition.  The NIC's RSS
function steers each client flow to exactly one queue, so a shard only
ever sees its own connections - the shared-nothing recipe every
kernel-bypass server (seastar, mTCP, Caladan...) uses.

The wake-one claim at N workers (paper section 4.4): each shard's event
loop is a single ``wait_any`` over per-operation qtokens with **no
timeout**.  Every wake-up therefore carries exactly one completed
operation that belongs to this shard.  The loop counts every wake and
classifies the failures the claim rules out:

* ``shard_wasted_wakeups`` - woke with nothing to do (a timeout);
* ``shard_cross_wakeups`` - woke for an operation some other shard owns.

A correct run ends with both pinned at zero across all shards, which the
scaling bench and the cluster tests assert.
"""

from __future__ import annotations

import struct
from typing import Generator, List, Optional

from ..apps.kvstore import DemiKvServer, KvEngine
from ..apps.proto import KvEngineStore, ProtoService, RespCodec
from ..core.types import DemiTimeout
from ..libos.dpdk_libos import DpdkLibOS
from ..telemetry import names

__all__ = ["Shard", "ShardKvServer", "ShardProtoServer", "ShardedKvServer"]


class ShardKvServer(DemiKvServer):
    """A :class:`DemiKvServer` whose event loop never wastes a wake-up.

    The base class polls: ``wait_any(..., timeout_ns=1ms)`` and a retry
    loop around the accept path.  That shape is fine for one core but
    the timeouts are exactly the wasted wake-ups the paper says qtokens
    eliminate, so the sharded loop replaces them: the acceptor forwards
    new connections through an in-memory Demikernel queue, and the main
    loop is one ``wait_any`` - no timeout - over (channel pop + one pop
    per connection).  Every wake-up dequeues real work.
    """

    def __init__(self, libos: DpdkLibOS, port: int = 6379,
                 engine: Optional[KvEngine] = None,
                 shard_index: int = 0, n_shards: int = 1):
        super().__init__(libos, port=port, engine=engine,
                         shard_index=shard_index, n_shards=n_shards)
        self.wakeups = 0
        self.wasted_wakeups = 0
        self.cross_wakeups = 0
        self.connections_accepted = 0
        self._accept_proc = None

    def run(self) -> Generator:
        libos = self.libos
        listen_qd = yield from libos.socket()
        yield from libos.bind(listen_qd, self.port)
        yield from libos.listen(listen_qd)
        # New connections arrive as elements on an in-memory queue, so
        # the main loop has a single uniform wait set.
        conn_chan = libos.queue()
        self._accept_proc = libos.sim.spawn(
            self._chan_acceptor(listen_qd, conn_chan),
            name="%s.acceptor" % libos.name)
        owned = {conn_chan}
        conn_qds: List[int] = []          # conn_qds[i] belongs to tokens[i+1]
        tokens = [libos.pop(conn_chan)]
        while not self._stop:
            try:
                # Batch drain: one crossing returns *every* completion
                # that is ready at the wake-up instant, so a loaded
                # shard services N requests per wakeup instead of
                # re-crossing once per request.
                ready = yield from libos.wait_any_n(tokens)
            except DemiTimeout:  # pragma: no cover - structurally unreachable
                # No timeout is ever armed; this branch exists to make
                # the claim measurable rather than assumed.
                self.wasted_wakeups += 1
                libos.count(names.SHARD_WASTED_WAKEUPS)
                continue
            self.wakeups += 1
            libos.count(names.SHARD_WAKEUPS)
            libos.count(names.SHARD_BATCH_COMPLETIONS, len(ready))
            dead: List[int] = []
            # ``ready`` is sorted by index; appends for new connections
            # land past every index in the batch, and dead entries are
            # removed only after the sweep, so positions stay stable.
            for index, result in ready:
                if result.qd not in owned:  # pragma: no cover - the claim
                    self.cross_wakeups += 1
                    libos.count(names.SHARD_CROSS_WAKEUPS)
                if index == 0:
                    # A new connection fed through the channel.
                    (new_qd,) = struct.unpack("!I", result.sga.tobytes())
                    owned.add(new_qd)
                    conn_qds.append(new_qd)
                    tokens.append(libos.pop(new_qd))
                    tokens[0] = libos.pop(conn_chan)
                    self.connections_accepted += 1
                    libos.count(names.SHARD_CONNS)
                    continue
                qd = conn_qds[index - 1]
                if result.error is not None:
                    # Connection done (EOF/reset): drop it after the sweep.
                    dead.append(index)
                    continue
                ok = yield from self._serve(qd, result.sga)
                libos.count(names.SHARD_REQUESTS)
                if ok is False:
                    # Stream desync (malformed request): close the
                    # connection and drop it after the sweep.
                    yield from libos.close(qd)
                    dead.append(index)
                    continue
                tokens[index] = libos.pop(qd)
            for index in sorted(dead, reverse=True):
                conn_qds.pop(index - 1)
                tokens.pop(index)
        return self.requests_served

    def _chan_acceptor(self, listen_qd: int, conn_chan: int) -> Generator:
        libos = self.libos
        while not self._stop:
            qd = yield from libos.accept(listen_qd)
            yield from libos.blocking_push(
                conn_chan, libos.sga_alloc(struct.pack("!I", qd)))


class ShardProtoServer(ShardKvServer):
    """A shard speaking a real wire protocol (RESP / memcached-binary).

    Same wake-one event loop as :class:`ShardKvServer`; only the byte
    layer differs - each connection gets its own incremental
    :class:`~repro.apps.proto.codec.Codec` (split and pipelined requests
    both decode correctly) and execution goes through the shared
    :meth:`~repro.apps.proto.server.ProtoService.handle`, so the sharded
    frontend and the single-core :class:`~repro.apps.proto.server.
    ProtoServer` answer byte-identically.  The service knows this
    shard's partition and counts misrouted requests; ``requests_served``
    and ``misrouted`` read it.
    """

    def __init__(self, libos: DpdkLibOS, port: int = 6379,
                 engine: Optional[KvEngine] = None,
                 shard_index: int = 0, n_shards: int = 1,
                 codec_factory=None):
        super().__init__(libos, port=port, engine=engine,
                         shard_index=shard_index, n_shards=n_shards)
        self.codec_factory = codec_factory or RespCodec
        self.service = ProtoService(libos, KvEngineStore(self.engine),
                                    shard_index=shard_index,
                                    n_shards=n_shards)
        self.decode_errors = 0
        self._codecs: dict = {}  # qd -> per-connection codec state

    @property
    def requests_served(self) -> int:
        return self.service.requests_served

    @property
    def misrouted(self) -> int:
        return self.service.misrouted

    def _serve(self, qd: int, request_sga) -> Generator:
        libos = self.libos
        service_start = libos.sim.now
        codec = self._codecs.get(qd)
        if codec is None:
            codec = self._codecs[qd] = self.codec_factory()
        ok, reply = yield from self.service.handle(codec,
                                                   request_sga.tobytes())
        if reply:
            yield from libos.blocking_push(qd, libos.sga_alloc(reply))
        if reply is not None:
            self.service_stats.add(libos.sim.now - service_start)
        if not ok:
            self.decode_errors += 1
            del self._codecs[qd]
        return ok


class Shard:
    """One core's worth of server: libOS + engine + event loop."""

    def __init__(self, host, nic, ip: str, index: int, n_shards: int,
                 port: int = 6379, server_cls=None,
                 server_kwargs: Optional[dict] = None):
        self.index = index
        self.n_shards = n_shards
        self.core = host.cpus[index]
        # Shard 0 answers ARP for the shared IP; the rest only learn
        # (otherwise one who-has draws n_shards replies).
        self.libos = DpdkLibOS(
            host, nic, ip,
            name="%s.shard%d" % (host.name, index),
            core=self.core,
            rx_queue=index,
            # Mirror queue: this shard's replies never serialize behind
            # another shard's TX DMA (the 8-core knee's root cause).
            tx_queue=index if index < nic.n_tx_queues else 0,
            arp_responder=(index == 0),
            batching=True,
        )
        self.engine = KvEngine(host, name="%s.kv%d" % (host.name, index))
        server_cls = server_cls or ShardKvServer
        self.server = server_cls(self.libos, port=port, engine=self.engine,
                                 shard_index=index, n_shards=n_shards,
                                 **(server_kwargs or {}))
        self.proc = None

    def start(self) -> None:
        self.proc = self.libos.sim.spawn(
            self.server.run(), name="shard%d.server" % self.index)

    def stop(self) -> None:
        self.server.stop()
        if self.proc is not None and self.proc.alive:
            self.proc.interrupt("shard stopped")
        if (self.server._accept_proc is not None
                and self.server._accept_proc.alive):
            self.server._accept_proc.interrupt("shard stopped")

    def qtoken_identity_ok(self) -> bool:
        """The lifecycle identity, per shard (chaos tests assert it)."""
        t = self.libos.qtokens
        return t.created == t.completed + t.cancelled + t.in_flight


class ShardedKvServer:
    """N shared-nothing shards behind one NIC, one IP, one port.

    The NIC must have ``n_rx_queues == n_shards`` (and ideally
    ``replicate_non_ip=True`` so every shard's stack sees ARP); the host
    needs at least ``n_shards`` cores.  Keys belong to shards via
    :func:`repro.apps.steering.key_partition`, which uses the same hash
    RSS uses - a client that steers its flow to queue *q* and sends only
    shard-*q* keys never causes cross-shard traffic.
    """

    def __init__(self, host, nic, ip: str, n_shards: int, port: int = 6379,
                 server_cls=None, server_kwargs: Optional[dict] = None):
        if nic.n_rx_queues != n_shards:
            raise ValueError("NIC has %d RX queues for %d shards"
                             % (nic.n_rx_queues, n_shards))
        if len(host.cpus.cores) < n_shards:
            raise ValueError("host has %d cores for %d shards"
                             % (len(host.cpus.cores), n_shards))
        self.host = host
        self.nic = nic
        self.ip = ip
        self.port = port
        self.n_shards = n_shards
        self.shards = [Shard(host, nic, ip, i, n_shards, port=port,
                             server_cls=server_cls,
                             server_kwargs=server_kwargs)
                       for i in range(n_shards)]

    def start(self) -> None:
        for shard in self.shards:
            shard.start()

    def stop(self) -> None:
        for shard in self.shards:
            shard.stop()

    # -- aggregates ------------------------------------------------------
    @property
    def requests_served(self) -> int:
        return sum(s.server.requests_served for s in self.shards)

    @property
    def wakeups(self) -> int:
        return sum(s.server.wakeups for s in self.shards)

    @property
    def wasted_wakeups(self) -> int:
        return sum(s.server.wasted_wakeups for s in self.shards)

    @property
    def cross_wakeups(self) -> int:
        return sum(s.server.cross_wakeups for s in self.shards)

    @property
    def misrouted(self) -> int:
        return sum(s.server.misrouted for s in self.shards)

    @property
    def decode_errors(self) -> int:
        return sum(getattr(s.server, "decode_errors", 0)
                   for s in self.shards)

    def per_shard_requests(self) -> List[int]:
        return [s.server.requests_served for s in self.shards]

    def utilizations(self, elapsed_ns: int) -> List[float]:
        return [s.core.utilization(elapsed_ns) for s in self.shards]

    def qtoken_identity_ok(self) -> bool:
        return all(s.qtoken_identity_ok() for s in self.shards)

    def metrics_row(self, elapsed_ns: int, tracer) -> dict:
        """One scaling-bench row's worth of server-side accounting.

        Everything the ``kv_scaling`` document schema requires from the
        server (docs/api.md): request totals, the wake-one counters that
        must stay zero, the qtoken identity, and the batched-fast-path
        cost columns.  The bench runner adds the client-side latency
        numbers on top.
        """
        requests = self.requests_served
        wait_timeouts = doorbells = doorbells_saved = 0
        server_busy_ns = 0
        for shard in self.shards:
            scope = shard.libos.name
            wait_timeouts += tracer.get("%s.wait_timeouts" % scope) or 0
            doorbells += tracer.get("%s.doorbells" % scope) or 0
            doorbells_saved += tracer.get("%s.doorbells_saved" % scope) or 0
            server_busy_ns += shard.core.busy_ns
        return {
            "cores": self.n_shards,
            "requests": requests,
            "elapsed_ns": elapsed_ns,
            "throughput_ops_per_s": (requests / (elapsed_ns / 1e9)
                                     if elapsed_ns else 0.0),
            "per_shard_requests": self.per_shard_requests(),
            "per_core_utilization": [round(u, 4) for u in
                                     self.utilizations(elapsed_ns)],
            "wakeups": self.wakeups,
            "wasted_wakeups": self.wasted_wakeups,
            "cross_shard_wakeups": self.cross_wakeups,
            "misrouted_requests": self.misrouted,
            "wait_timeouts": wait_timeouts,
            "qtoken_identity_ok": self.qtoken_identity_ok(),
            # -- batched fast-path accounting (schema v2) ----------------
            "per_op_server_cpu_ns": round(server_busy_ns / max(1, requests),
                                          1),
            "doorbells": doorbells,
            "doorbells_saved": doorbells_saved,
            "requests_per_wakeup": round(requests / max(1, self.wakeups), 3),
        }
