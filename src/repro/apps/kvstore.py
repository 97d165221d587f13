"""A Redis-like in-memory key-value store (the paper's running example).

One protocol, one storage engine, two server frontends:

* :class:`DemiKvServer` - the Demikernel version: a ``wait_any`` event
  loop over per-connection pop tokens, zero-copy responses (the reply
  sga's value segment *is* the stored buffer), and the section-4.5 PUT
  pattern - allocate a fresh value buffer and swap the pointer, never
  update in place, so free-protection makes the old buffer safe to free
  even mid-DMA.
* :func:`posix_kv_server` - the same engine behind kernel sockets, with
  the copies and syscalls that entails.

Wire format (all integers big-endian)::

    request:  op:u8 ('G'|'P')  klen:u16  key  [vlen:u32  value]
    response: status:u8 ('K'|'N')  [vlen:u32  value]
"""

from __future__ import annotations

import struct
from typing import Dict, Generator, List, Optional, Sequence, Tuple

from ..core.api import LibOS
from ..core.types import DemiTimeout, Sga, SgaSegment
from ..kernelos.kernel import Kernel
from ..memory.buffer import Buffer
from ..netstack.ethernet import ETHERTYPE_IPV4, EthernetFrame
from ..netstack.framing import Deframer, frame_message
from ..netstack.ipv4 import PROTO_UDP, Ipv4Packet
from ..netstack.packet import bytes_to_ip, bytes_to_mac, ip_to_bytes
from ..netstack.udp import UdpDatagram
from ..sim.rand import Rng
from ..sim.trace import LatencyStats
from ..telemetry import names
from .steering import key_partition

__all__ = [
    "KvEngine",
    "DemiKvServer",
    "UdpKvServer",
    "KvNicOffload",
    "posix_kv_server",
    "demi_kv_client",
    "udp_kv_client",
    "posix_kv_client",
    "kv_workload",
    "encode_get",
    "encode_put",
    "decode_response",
]

OP_GET = ord("G")
OP_PUT = ord("P")
STATUS_OK = ord("K")
STATUS_MISSING = ord("N")


# ---------------------------------------------------------------------------
# Protocol codec - thin deprecated delegates over the unified codec layer
# ---------------------------------------------------------------------------
# The wire format now lives in repro.apps.proto.legacy.LegacyKvCodec
# (same bytes, incremental parsing).  These module helpers stay for the
# existing tests and workloads; new code should use the codec directly.

def _codec():
    from .proto.legacy import LegacyKvCodec

    return LegacyKvCodec()


def encode_get(key: bytes) -> bytes:
    """Deprecated: use :class:`repro.apps.proto.legacy.LegacyKvCodec`."""
    from .proto.codec import Request

    return _codec().encode_request(Request(op="get", key=key))


def encode_put(key: bytes, value: bytes) -> bytes:
    """Deprecated: use :class:`repro.apps.proto.legacy.LegacyKvCodec`."""
    from .proto.codec import Request

    return _codec().encode_request(Request(op="set", key=key, value=value))


def decode_request(data: bytes) -> Tuple[int, bytes, Optional[bytes]]:
    """Decode one *complete* request; raises ``CodecError`` if truncated.

    Deprecated entry point.  The old hand-rolled parser silently
    truncated a PUT whose value was cut short (a split read stored a
    partial value); the codec now refuses: incomplete bytes raise
    instead of decoding garbage.
    """
    from .proto.codec import CodecError

    requests = _codec().feed(data)
    if not requests:
        raise CodecError("truncated kv request (%d bytes)" % len(data))
    request = requests[0]
    if request.op == "set":
        return OP_PUT, request.key, request.value
    return OP_GET, request.key, None


def decode_response(data: bytes) -> Tuple[bool, Optional[bytes]]:
    """Deprecated: use :class:`repro.apps.proto.legacy.LegacyKvCodec`."""
    from .proto.codec import ST_VALUE, CodecError

    replies = _codec().feed_responses(data)
    if not replies:
        raise CodecError("truncated kv response (%d bytes)" % len(data))
    reply = replies[0]
    if reply.status == ST_VALUE:
        return True, reply.value
    return False, None


# ---------------------------------------------------------------------------
# The storage engine (shared by both frontends)
# ---------------------------------------------------------------------------

class KvEngine:
    """Hash table of key -> value :class:`Buffer` with Redis-like costs."""

    def __init__(self, host, name: str = "kv"):
        self.host = host
        self.mm = host.mm
        self.costs = host.costs
        self.tracer = host.tracer
        self.name = name
        self._table: Dict[bytes, Buffer] = {}
        self.gets = 0
        self.puts = 0
        self.deletes = 0
        self.misses = 0

    def parse_cost(self) -> int:
        return self.costs.kv_parse_ns

    def get(self, key: bytes) -> Optional[Buffer]:
        """GET work (hash lookup); the value buffer is shared, not copied."""
        self.gets += 1
        buf = self._table.get(key)
        if buf is None:
            self.misses += 1
        return buf

    def put(self, key: bytes, value: bytes) -> Buffer:
        """The section-4.5 pattern: new buffer, pointer swap, free old.

        The old buffer may still be referenced by an in-flight zero-copy
        GET response; free-protection defers its deallocation until the
        device lets go - no coordination needed here.
        """
        self.puts += 1
        new_buf = self.mm.alloc(max(1, len(value)))
        new_buf.write(0, value)
        old = self._table.get(key)
        self._table[key] = new_buf
        if old is not None and not old.freed:
            self.mm.free(old)
        return new_buf

    def delete(self, key: bytes) -> bool:
        """Remove *key*; same pointer-swap discipline as :meth:`put`.

        The freed buffer may still back an in-flight zero-copy GET
        response; free-protection covers that window.
        """
        buf = self._table.pop(key, None)
        if buf is None:
            return False
        self.deletes += 1
        if not buf.freed:
            self.mm.free(buf)
        return True

    def service_cost(self, op: int) -> int:
        return self.costs.kv_get_ns if op == OP_GET else self.costs.kv_put_ns

    def __len__(self) -> int:
        return len(self._table)


# ---------------------------------------------------------------------------
# Demikernel frontend
# ---------------------------------------------------------------------------

class DemiKvServer:
    """Event-driven KV server on the Figure-3 API.

    The main loop is a single ``wait_any`` over (a) an accept token and
    (b) one outstanding pop token per connection - the structure the
    paper says applications should have instead of epoll loops.
    """

    #: requests answered (class-level zero; bumped per instance)
    requests_served = 0
    #: requests for keys another shard owns - nonzero means the
    #: client's flow steering and key partitioning disagree
    misrouted = 0

    def __init__(self, libos: LibOS, port: int = 6379,
                 engine: Optional[KvEngine] = None,
                 shard_index: int = 0, n_shards: int = 1):
        self.libos = libos
        self.engine = engine or KvEngine(libos.host, name=libos.name + ".kv")
        self.port = port
        #: which KV partition this instance owns (sharded deployments run
        #: one server per core; see ``repro.cluster``)
        self.shard_index = shard_index
        self.n_shards = n_shards
        #: application service time per request: pop completion ->
        #: response push completion (what C1 measures)
        self.service_stats = LatencyStats("kv-service")
        self._stop = False

    def stop(self) -> None:
        self._stop = True

    def run(self) -> Generator:
        """The server process body (spawn it)."""
        libos = self.libos
        listen_qd = yield from libos.socket()
        yield from libos.bind(listen_qd, self.port)
        yield from libos.listen(listen_qd)
        # Serve connections as they come; one outstanding pop per conn.
        conn_tokens: List[int] = []
        conn_qds: List[int] = []
        accept_proc = libos.sim.spawn(self._acceptor(listen_qd, conn_qds),
                                      name="kv.acceptor")
        while not self._stop:
            # Refresh the token set: one pop token per known connection.
            while len(conn_tokens) < len(conn_qds):
                conn_tokens.append(libos.pop(conn_qds[len(conn_tokens)]))
            if not conn_tokens:
                yield libos.sim.timeout(10_000)
                continue
            try:
                index, result = yield from libos.wait_any(
                    conn_tokens, timeout_ns=1_000_000)
            except DemiTimeout:
                continue
            qd = conn_qds[index]
            if result.error is not None:
                # Connection finished: drop it from the sets.
                conn_qds.pop(index)
                conn_tokens.pop(index)
                continue
            ok = yield from self._serve(qd, result.sga)
            if not ok:
                # Malformed request: the stream is desynced; close it.
                yield from libos.close(qd)
                conn_qds.pop(index)
                conn_tokens.pop(index)
                continue
            conn_tokens[index] = libos.pop(qd)
        accept_proc.interrupt("server stopped")
        return self.requests_served

    def _acceptor(self, listen_qd: int, conn_qds: List[int]) -> Generator:
        while not self._stop:
            qd = yield from self.libos.accept(listen_qd)
            conn_qds.append(qd)

    def _serve(self, qd: int, request_sga: Sga) -> Generator:
        """Sim-coroutine: serve one request; False on a malformed one."""
        libos = self.libos
        service_start = libos.sim.now
        reply = yield from self._execute(request_sga)
        if reply is None:
            return False
        yield from libos.blocking_push(qd, reply)
        self.service_stats.add(libos.sim.now - service_start)
        self.requests_served += 1
        return True

    def _execute(self, request_sga: Sga) -> Generator:
        """Sim-coroutine: decode and apply one request.

        Returns the reply :class:`Sga`, or None when the request is
        malformed (counted; what that means for the transport is the
        caller's call).
        """
        from .proto.codec import CodecError

        libos = self.libos
        engine = self.engine
        yield libos.core.busy(engine.parse_cost())
        try:
            op, key, value = decode_request(request_sga.tobytes())
        except CodecError:
            libos.count(names.KV_MALFORMED_REQUESTS)
            return None
        if self.n_shards > 1:
            if key_partition(key, self.n_shards) != self.shard_index:
                self.misrouted += 1
                libos.count(names.SHARD_MISROUTED)
        yield libos.core.busy(engine.service_cost(op))
        if op == OP_PUT:
            engine.put(key, bytes(value))
            return self._small_reply(struct.pack("!BI", STATUS_OK, 0))
        buf = engine.get(key)
        if buf is None:
            return self._small_reply(bytes([STATUS_MISSING]))
        # Zero-copy response: header segment + the stored value buffer
        # itself as the second segment.
        header = libos.mm.alloc(5)
        header.write(0, struct.pack("!BI", STATUS_OK, buf.capacity))
        return Sga([SgaSegment(header), SgaSegment(buf)])

    def _small_reply(self, payload: bytes) -> Sga:
        buf = self.libos.mm.alloc(len(payload))
        buf.write(0, payload)
        return Sga.from_buffer(buf, len(payload))


def demi_kv_client(libos: LibOS, server_addr: str,
                   operations: Sequence[Tuple[int, bytes, Optional[bytes]]],
                   port: int = 6379,
                   stats: Optional[LatencyStats] = None) -> Generator:
    """Run (op, key, value) operations; returns (results, stats)."""
    stats = stats if stats is not None else LatencyStats("kv-rtt")
    qd = yield from libos.socket()
    yield from libos.connect(qd, server_addr, port)
    results = []
    for op, key, value in operations:
        request = encode_put(key, value) if op == OP_PUT else encode_get(key)
        start = libos.sim.now
        yield from libos.blocking_push(qd, libos.sga_alloc(request))
        result = yield from libos.blocking_pop(qd)
        stats.add(libos.sim.now - start)
        results.append(decode_response(result.sga.tobytes())
                       if op == OP_GET else None)
    yield from libos.close(qd)
    return results, stats


# ---------------------------------------------------------------------------
# UDP frontend + the NIC-resident GET path (claim C6, FlexNIC-style)
# ---------------------------------------------------------------------------

class UdpKvServer(DemiKvServer):
    """The KV engine behind a UDP socket (one datagram = one request).

    This is the host half of the offloaded deployment: with a
    :class:`KvNicOffload` program installed on the NIC, short GETs are
    answered on the device and only PUTs / oversized GETs / punted
    traffic ever reach this loop.  It also runs standalone as the
    un-offloaded baseline.  Request execution is
    :meth:`DemiKvServer._execute`; only the datagram loop differs.
    """

    def run(self) -> Generator:
        libos = self.libos
        qd = yield from libos.socket("udp")
        yield from libos.bind(qd, self.port)
        token = libos.pop(qd)
        while not self._stop:
            try:
                _index, result = yield from libos.wait_any(
                    [token], timeout_ns=1_000_000)
            except DemiTimeout:
                continue
            if result.error is not None:
                return self.requests_served
            yield from self._serve_datagram(qd, result)
            token = libos.pop(qd)
        libos.cancel(token)
        return self.requests_served

    def _serve_datagram(self, qd: int, result) -> Generator:
        libos = self.libos
        service_start = libos.sim.now
        reply = yield from self._execute(result.sga)
        if reply is None:
            # UDP has no stream to desync: drop the datagram and move on.
            return
        push_token = libos.push_to(qd, reply, result.value)
        yield from libos.qtokens.wait(push_token)
        self.service_stats.add(libos.sim.now - service_start)
        self.requests_served += 1


class KvNicOffload:
    """A NIC-resident filter/map/steer program for the KV GET hot path.

    The program runs on the NIC's offload engine for every arriving
    frame (``DpdkNic.install_rx_program``) and implements the paper's
    C6 pipeline in three stages:

    * **filter** - is this frame a KV request for our UDP port?  If not,
      punt to the normal RSS path (``offload_kv_punts``).
    * **map** - parse the request and hash the key.  A short GET whose
      value fits ``inline_value_limit`` is answered entirely on the
      device: the engine fetches the value buffer over DMA (charged to
      the *device* pipeline, zero host CPU) and transmits the reply
      frame directly (``offload_kv_hits`` / ``offload_kv_misses``).
    * **steer** - PUTs and oversized GETs go to the RX queue of the
      shard that owns the key (``key_partition``, the same function the
      host uses), overriding flow-tuple RSS (``offload_kv_steered``).

    The engine's value table is host memory shared with the
    :class:`KvEngine`; the device reads it zero-copy, exactly like a
    zero-copy TX descriptor would.
    """

    def __init__(self, nic, engine: KvEngine, ip: str, port: int = 6379,
                 n_shards: int = 1, inline_value_limit: int = 1024):
        if nic.offload is None:
            raise ValueError("KvNicOffload needs a NIC with an offload "
                             "engine attached")
        self.nic = nic
        self.engine = engine
        self.ip = ip
        self.port = port
        self.n_shards = n_shards
        self.inline_value_limit = inline_value_limit
        self.hits = 0
        self.misses = 0
        self.steered = 0
        self.punts = 0

    def install(self) -> None:
        self.nic.install_rx_program(self)

    def uninstall(self) -> None:
        self.nic.install_rx_program(None)

    def __call__(self, frame: bytes):
        offload = self.nic.offload
        # -- filter stage: a KV request is UDP to our (ip, port) -----------
        if (len(frame) < 42 or frame[12:14] != b"\x08\x00"
                or frame[14] != 0x45 or frame[23] != PROTO_UDP
                or frame[30:34] != ip_to_bytes(self.ip)):
            self.punts += 1
            offload.count(names.OFFLOAD_KV_PUNTS)
            return None
        (dst_port,) = struct.unpack_from("!H", frame, 36)
        if dst_port != self.port:
            self.punts += 1
            offload.count(names.OFFLOAD_KV_PUNTS)
            return None
        # -- map stage: parse + key hash -----------------------------------
        try:
            op, key, _value = decode_request(frame[42:])
        except Exception:
            self.punts += 1
            offload.count(names.OFFLOAD_KV_PUNTS)
            return None
        if op == OP_GET:
            buf = self.engine.get(key)
            if buf is None:
                self.misses += 1
                offload.count(names.OFFLOAD_KV_MISSES)
                return self._reply(frame, bytes([STATUS_MISSING]))
            if buf.capacity <= self.inline_value_limit:
                # DMA the value out of host memory: device time, not CPU.
                offload.charge_device(self.nic.costs.dma_ns(buf.capacity))
                self.hits += 1
                offload.count(names.OFFLOAD_KV_HITS)
                payload = (struct.pack("!BI", STATUS_OK, buf.capacity)
                           + buf.read())
                return self._reply(frame, payload)
        # -- steer stage: the owning shard's RX queue ----------------------
        self.steered += 1
        offload.count(names.OFFLOAD_KV_STEERED)
        return ("steer", key_partition(key, self.n_shards))

    def _reply(self, request_frame: bytes, payload: bytes):
        """Build the on-NIC response frame by mirroring the request."""
        src_mac = bytes_to_mac(request_frame[6:12])
        src_ip = bytes_to_ip(request_frame[26:30])
        (src_port,) = struct.unpack_from("!H", request_frame, 34)
        datagram = UdpDatagram(src_port=self.port, dst_port=src_port,
                               payload=payload).pack(self.ip, src_ip)
        packet = Ipv4Packet(src=self.ip, dst=src_ip, proto=PROTO_UDP,
                            payload=datagram).pack()
        reply = EthernetFrame(dst=src_mac, src=self.nic.mac,
                              ethertype=ETHERTYPE_IPV4, payload=packet).pack()
        return ("reply", src_mac, reply)


def udp_kv_client(libos: LibOS, server_ip: str,
                  operations: Sequence[Tuple[int, bytes, Optional[bytes]]],
                  port: int = 6379,
                  stats: Optional[LatencyStats] = None) -> Generator:
    """Closed-loop UDP KV client: one datagram per request/response."""
    stats = stats if stats is not None else LatencyStats("kv-rtt")
    qd = yield from libos.socket("udp")
    yield from libos.connect(qd, server_ip, port)
    results = []
    for op, key, value in operations:
        request = encode_put(key, value) if op == OP_PUT else encode_get(key)
        start = libos.sim.now
        yield from libos.blocking_push(qd, libos.sga_alloc(request))
        result = yield from libos.blocking_pop(qd)
        stats.add(libos.sim.now - start)
        results.append(decode_response(result.sga.tobytes())
                       if op == OP_GET else None)
    yield from libos.close(qd)
    return results, stats


# ---------------------------------------------------------------------------
# POSIX frontend (the copying baseline)
# ---------------------------------------------------------------------------

def posix_kv_server(kernel: Kernel, engine: KvEngine, port: int = 6379,
                    max_requests: int = 0) -> Generator:
    """The same engine behind kernel sockets: copies on every hop."""
    sys = kernel.thread()
    listen_fd = yield from sys.socket()
    yield from sys.bind(listen_fd, port)
    yield from sys.listen(listen_fd)
    conn_fd = yield from sys.accept(listen_fd)
    deframer = Deframer()
    served = 0
    core = kernel.host.cpu
    while max_requests == 0 or served < max_requests:
        data = yield from sys.recv(conn_fd)
        if not data:
            break
        for message in deframer.feed(data):
            yield core.busy(engine.parse_cost())
            op, key, value = decode_request(message)
            yield core.busy(engine.service_cost(op))
            if op == OP_PUT:
                engine.put(key, bytes(value))
                reply = struct.pack("!BI", STATUS_OK, 0)
            else:
                buf = engine.get(key)
                if buf is None:
                    reply = bytes([STATUS_MISSING])
                else:
                    # POSIX cannot hand the stored buffer to the NIC: the
                    # value is copied into the reply (and copied again
                    # crossing into the kernel inside send()).
                    yield core.busy(kernel.costs.copy_ns(buf.capacity))
                    kernel.count(names.KV_VALUE_COPIES)
                    reply = (struct.pack("!BI", STATUS_OK, buf.capacity)
                             + buf.read())
            yield from sys.send(conn_fd, frame_message(reply))
            served += 1
    return served


def posix_kv_client(kernel: Kernel, server_ip: str,
                    operations: Sequence[Tuple[int, bytes, Optional[bytes]]],
                    port: int = 6379,
                    stats: Optional[LatencyStats] = None) -> Generator:
    stats = stats if stats is not None else LatencyStats("kv-rtt")
    sys = kernel.thread()
    fd = yield from sys.socket()
    yield from sys.connect(fd, server_ip, port)
    deframer = Deframer()
    results = []
    for op, key, value in operations:
        request = encode_put(key, value) if op == OP_PUT else encode_get(key)
        start = kernel.sim.now
        yield from sys.send(fd, frame_message(request))
        reply = None
        while reply is None:
            data = yield from sys.recv(fd)
            if not data:
                break
            messages = deframer.feed(data)
            if messages:
                reply = messages[0]
        stats.add(kernel.sim.now - start)
        results.append(decode_response(reply) if op == OP_GET else None)
    yield from sys.close(fd)
    return results, stats


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def kv_workload(rng: Rng, n_ops: int, n_keys: int = 1000,
                value_size: int = 1024, get_fraction: float = 0.9,
                zipf_skew: float = 0.99) -> List[Tuple[int, bytes, Optional[bytes]]]:
    """A YCSB-ish operation mix with a Zipf-hot key distribution."""
    ops: List[Tuple[int, bytes, Optional[bytes]]] = []
    for _ in range(n_ops):
        key = b"key-%08d" % rng.zipf_index(n_keys, zipf_skew)
        if rng.chance(get_fraction):
            ops.append((OP_GET, key, None))
        else:
            ops.append((OP_PUT, key, rng.bytes(value_size)))
    return ops
