"""The three workloads: testbeds, set-up, and one measured point.

A *point* is one fresh simulated world driven at one offered rate: build
the testbed, start the server, connect and preload (the set-up, timed on
the host clock), then replay a generated arrival list open-loop and
record what every request saw.  :func:`run_point` is the only entry; the
rest of the benchmark composes points (nominal, overload, ladder
rungs) and reads their results.

Everything goes through the public surface: the ``repro.testbed``
constructors, the ``LibOS`` queue calls, the ``apps.proto`` codecs and
servers, ``SpdkLibOS`` and its ``LogStore``.
"""

from __future__ import annotations

import gc
import random
import time
from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.apps.kvstore import KvEngine
from repro.apps.proto import CODECS, KvEngineStore, ProtoServer, Request
from repro.apps.steering import key_partition
from repro.cluster.client import src_port_for_queue
from repro.cluster.shard import ShardProtoServer
from repro.kernelos.kernel import Kernel
from repro.libos.dpdk_libos import DpdkLibOS
from repro.libos.posix_libos import PosixLibOS
from repro.sim.engine import SimulationError
from repro.testbed import (make_posix_libos_pair, make_sharded_kv_world,
                           make_spdk_libos)

from .check import check_log_read, check_scan, kv_value, log_record, \
    scan_match
from .loadgen import (Op, fail_unanswered, kv_schedule, net_connection,
                      poisson_dues)

__all__ = ["Point", "run_point", "point_rng"]

PORT = 6379
#: after the last arrival, requests get this many windows to complete;
#: overload rates leave a backlog of well under one window
DRAIN_FACTOR = 2
#: far beyond any run; only bounds a hung simulation
SIM_LIMIT_NS = 10 ** 13


class Point:
    """What one measured point produced.

    ``ops`` carry per-request due/sent/done and any failure; the
    counters and busy times are deltas over the measured window only
    (set-up excluded).
    """

    def __init__(self, label: str, rate: float):
        self.label = label
        self.rate = rate
        self.ops: List[Op] = []
        self.setup_s = 0.0
        self.run_wall_s = 0.0
        self.preload_ops = 0
        #: failures not tied to one request (e.g. an unsolicited reply)
        self.extra_failures = 0
        self.t0 = 0
        self.t_end = 0
        self.counters: Dict[str, int] = {}
        self.server_busy_ns = 0
        self.client_busy_ns = 0
        self.server_cores = 1
        self.server_rxq_frames: List[int] = []
        self.payload_bytes = 0

    @property
    def window_end(self) -> int:
        """Absolute sim time of the last intended arrival."""
        return self.t0 + (self.ops[-1].due if self.ops else 0)

    @property
    def failed(self) -> int:
        return (sum(1 for op in self.ops if op.error is not None)
                + self.extra_failures)

    @property
    def completed(self) -> int:
        return sum(1 for op in self.ops if op.error is None and op.done >= 0)


def point_rng(seed: int, workload: str, label: str) -> random.Random:
    """The input stream for one point: a pure function of its names."""
    return random.Random("%d/%s/%s" % (seed, workload, label))


def _busy(hosts) -> int:
    return sum(host.cpus.total_busy_ns() for host in hosts)


def _drive(sim, procs, limit: int = SIM_LIMIT_NS) -> None:
    """Run until every process in *procs* ended or the clock passes *limit*."""
    for proc in procs:
        if proc.triggered:
            continue
        try:
            sim.run_until_complete(proc, limit=limit)
        except SimulationError:
            if sim.peek() is None or sim.peek() <= limit:
                raise
            return


# --------------------------------------------------------------- network
class _NetTarget:
    """A KV server plus simulated client connections, one per key set."""

    def __init__(self, cfg: dict, seed: int):
        self.cfg = cfg
        self.codec_cls = CODECS[cfg["protocol"]]
        n_conns = cfg["connections"]
        # One client host per connection, so no simulated client core
        # saturates before the server does: a late client would show up
        # as server tail.
        if cfg["libos"] == "dpdk":
            shards = cfg["shards"]
            self.world, self.server, clients = make_sharded_kv_world(
                shards, seed=seed, port=PORT, server_cls=ShardProtoServer,
                server_kwargs={"codec_factory": self.codec_cls})
            for i in range(len(clients), n_conns):
                host = self.world.add_host("client%d" % i)
                nic = self.world.add_dpdk(host, mac="02:00:00:00:30:%02x"
                                          % (i + 1))
                clients.append(DpdkLibOS(host, nic, "10.0.0.%d" % (i + 1),
                                         name="client%d.catnip" % i))
            self.server.start()
            self.server_ip = "10.0.0.100"
            self.server_hosts = [self.server.host]
            self.server_nic = self.server.nic
            self.server_cores = shards
            # Connection c is steered to shard c % shards and touches only
            # keys that shard owns.
            self.conn_shard = [c % shards for c in range(n_conns)]
        else:
            self.world, client, server_libos = make_posix_libos_pair(
                seed=seed)
            clients = [client]
            for i in range(1, n_conns):
                host = self.world.add_host("client%d" % i)
                kernel = Kernel(host, self.world.fabric,
                                "02:00:00:00:01:%02x" % (i + 2),
                                "10.0.0.%d" % (i + 2))
                clients.append(PosixLibOS(host, kernel,
                                          name="client%d.catnap" % i))
            engine = KvEngine(server_libos.host, name="bench.kv")
            self.server = ProtoServer(server_libos, self.codec_cls,
                                      KvEngineStore(engine), port=PORT)
            self.world.sim.spawn(self.server.start(), name="bench.server")
            self.server_ip = "10.0.0.2"
            self.server_hosts = [server_libos.host]
            self.server_nic = None
            self.server_cores = 1
            self.conn_shard = [0] * n_conns
            shards = 1
        self.conn_libos = clients[:n_conns]
        self.conn_keys = _partition_keys(cfg["keys"], self.conn_shard, shards)
        self.client_hosts = [lib.host for lib in self.conn_libos]
        self.qds: List[int] = []
        self.codecs: list = []

    def setup(self) -> int:
        """Connect every connection and SET each of its keys to version 0."""
        sim = self.world.sim
        procs = []
        self.qds = [0] * len(self.conn_libos)
        self.codecs = [self.codec_cls() for _ in self.conn_libos]
        for c, libos in enumerate(self.conn_libos):
            src_port = None
            if self.server_nic is not None:
                src_port = src_port_for_queue(
                    libos.ip, self.server_ip, self.conn_shard[c],
                    self.server_nic.n_rx_queues, PORT)
            procs.append(sim.spawn(self._connect_and_preload(c, src_port),
                                   name="bench.setup%d" % c))
        _drive(sim, procs)
        return sum(len(keys) for keys in self.conn_keys)

    def _connect_and_preload(self, c: int, src_port: Optional[int]):
        libos, codec = self.conn_libos[c], self.codecs[c]
        qd = yield from libos.socket()
        if src_port is None:
            yield from libos.connect(qd, self.server_ip, PORT)
        else:
            yield from libos.connect(qd, self.server_ip, PORT,
                                     src_port=src_port)
        self.qds[c] = qd
        keys = self.conn_keys[c]
        size = self.cfg["value_size"]
        batch = self.cfg["pipeline_max"]
        for start in range(0, len(keys), batch):
            chunk = keys[start:start + batch]
            wire = b"".join(
                codec.encode_request(Request(op="set", key=key,
                                             value=kv_value(key, 0, size)))
                for key in chunk)
            yield from libos.blocking_push(qd, libos.sga_alloc(wire))
            acked = 0
            while acked < len(chunk):
                result = yield from libos.blocking_pop(qd)
                for reply in codec.feed_responses(result.sga.tobytes()):
                    if reply.status != "stored":
                        raise RuntimeError("preload SET answered %s"
                                           % reply.status)
                    acked += 1

    def schedule(self, rng: random.Random, rate: float, n: int) -> List[Op]:
        cfg = self.cfg
        return kv_schedule(rng, rate, n, self.conn_keys,
                           cfg["get_fraction"], cfg["zipf_skew"],
                           cfg["value_size"])

    def run(self, point: Point, drain_ns: int) -> None:
        sim = self.world.sim
        per_conn: List[List[Op]] = [[] for _ in self.conn_libos]
        for op in point.ops:
            per_conn[op.conn].append(op)
        drain_until = point.window_end + drain_ns
        procs = [sim.spawn(net_connection(
            self.conn_libos[c], self.qds[c], self.codecs[c], per_conn[c],
            point.t0, self.cfg["pipeline_max"], drain_until),
            name="bench.conn%d" % c) for c in range(len(per_conn))]
        _drive(sim, procs)
        fail_unanswered(point.ops)
        point.extra_failures += sum(proc.value for proc in procs
                                    if proc.triggered)
        point.payload_bytes = sum(op.size for op in point.ops
                                  if op.kind == "set")

    def rxq_frames(self) -> List[int]:
        if self.server_nic is None:
            return []
        tracer = self.world.tracer
        return [tracer.get("%s.rxq%d_frames" % (self.server_nic.name, q))
                for q in range(self.server_nic.n_rx_queues)]


def _partition_keys(n_keys: int, conn_shard: Sequence[int],
                    shards: int) -> List[List[bytes]]:
    """*n_keys* keys dealt to connections, each only its shard's keys."""
    by_shard: Dict[int, List[int]] = {}
    for c, shard in enumerate(conn_shard):
        by_shard.setdefault(shard, []).append(c)
    conn_keys: List[List[bytes]] = [[] for _ in conn_shard]
    turn = {shard: 0 for shard in by_shard}
    j = 0
    while sum(map(len, conn_keys)) < n_keys:
        key = b"key:%06d" % j
        j += 1
        shard = key_partition(key, shards)
        conns = by_shard.get(shard)
        if not conns:
            continue
        conn_keys[conns[turn[shard] % len(conns)]].append(key)
        turn[shard] += 1
    return conn_keys


# --------------------------------------------------------------- storage
class _LogTarget:
    """Writers, readers and scans on one SPDK log, with group commit.

    Appends are pushed on a file queue and become durable at the next
    ``fsync``.  The committer flushes whenever accepted appends are
    unsynced; while a flush is wanted or in flight, new appends are held
    and pushed right after it (a group-commit barrier), so no append is
    ever buffered while a flush runs.
    """

    def __init__(self, cfg: dict, seed: int):
        self.cfg = cfg
        self.world, self.libos = make_spdk_libos(seed=seed)
        self.server_hosts = [self.libos.host]
        self.client_hosts: list = []
        self.server_nic = None
        self.server_cores = 1
        self.qd = 0
        #: (record_id, payload) of every durable record, in log order
        self.durable: List[Tuple[int, bytes]] = []
        self.unsynced: List[Op] = []
        self.held: deque = deque()
        self.in_flight = 0
        self.barrier = False
        self.stopping = False
        self._kick = None
        #: read and scan processes still to be joined
        self.procs: list = []

    def setup(self) -> int:
        sim = self.world.sim
        proc = sim.spawn(self._preload(), name="bench.setup")
        _drive(sim, [proc])
        return self.cfg["preload_records"]

    def _preload(self):
        libos = self.libos
        self.qd = yield from libos.creat("/bench.log")
        rng = random.Random("preload")
        sizes = self.cfg["record_sizes"]
        tokens, payloads = [], []
        for rid in range(-self.cfg["preload_records"], 0):
            payload = log_record(rid, rng.choice(sizes))
            payloads.append(payload)
            tokens.append(libos.push(self.qd, libos.sga_alloc(payload)))
        for token, payload in zip(tokens, payloads):
            result = yield from libos.wait(token)
            if result.error is not None:
                raise RuntimeError("preload append failed: %s" % result.error)
            self.durable.append((result.value, payload))
        yield from libos.fsync(self.qd)

    def schedule(self, rng: random.Random, rate: float, n: int) -> List[Op]:
        cfg = self.cfg
        ops = []
        for rid, due in enumerate(poisson_dues(rng, rate, n)):
            if rid % cfg["scan_every"] == cfg["scan_every"] - 1:
                ops.append(Op(rid, 0, due, "scan"))
            elif rng.random() < cfg["append_fraction"]:
                ops.append(Op(rid, rng.randrange(cfg["writers"]), due,
                              "append", size=rng.choice(cfg["record_sizes"])))
            else:
                ops.append(Op(rid, cfg["writers"] + rng.randrange(
                    cfg["readers"]), due, "read", pick=rng.random()))
        return ops

    def run(self, point: Point, drain_ns: int) -> None:
        sim = self.world.sim
        committer = sim.spawn(self._committer(), name="bench.commit")
        dispatcher = sim.spawn(self._dispatch(point), name="bench.dispatch")
        _drive(sim, [dispatcher])
        self.stopping = True
        self._wake()
        _drive(sim, [committer] + self.procs, point.window_end + drain_ns)
        fail_unanswered(point.ops)
        point.payload_bytes = sum(op.size for op in point.ops
                                  if op.kind == "append")

    # -- the application: dispatcher, appends, committer, reads, scans ----
    def _dispatch(self, point: Point):
        sim = self.world.sim
        for op in point.ops:
            at = point.t0 + op.due
            if at > sim.now:
                yield sim.timeout(at - sim.now)
            if op.kind == "append":
                if self.barrier:
                    self.held.append(op)
                else:
                    self._push(op)
            elif op.kind == "read":
                op.sent = sim.now
                self.procs.append(sim.spawn(self._read(op),
                                            name="bench.read"))
            else:
                op.sent = sim.now
                self.procs.append(sim.spawn(
                    self._scan(op, list(self.durable)), name="bench.scan"))

    def _push(self, op: Op) -> None:
        libos = self.libos
        op.sent = libos.sim.now
        self.in_flight += 1
        token = libos.push(self.qd, libos.sga_alloc(
            log_record(op.rid, op.size)))
        libos.sim.spawn(self._accepted(op, token), name="bench.append")

    def _accepted(self, op: Op, token):
        result = yield from self.libos.wait(token)
        self.in_flight -= 1
        if result.error is not None:
            op.error = "append failed: %s" % result.error
        else:
            op.record_id = result.value
            self.unsynced.append(op)
        self._wake()

    def _wake(self) -> None:
        if self._kick is not None and not self._kick.triggered:
            self._kick.trigger()

    def _committer(self):
        libos, sim = self.libos, self.world.sim
        while True:
            if self.unsynced and self.in_flight == 0:
                batch, self.unsynced = self.unsynced, []
                self.barrier = True
                yield from libos.fsync(self.qd)
                now = sim.now
                for op in batch:
                    op.done = now
                    self.durable.append((op.record_id,
                                         log_record(op.rid, op.size)))
                self.barrier = False
                held, self.held = self.held, deque()
                for op in held:
                    self._push(op)
                continue
            if self.stopping and not self.in_flight and not self.held:
                return
            # Appends are in flight: hold new ones so the flush can start.
            self.barrier = bool(self.unsynced)
            self._kick = sim.completion("bench.commit.kick")
            yield self._kick

    def _read(self, op: Op):
        record_id, want = self.durable[int(op.pick * len(self.durable))]
        op.record_id = record_id
        try:
            payload = yield from self.libos.store.read(record_id)
        except Exception as err:  # a LogError is a wrong answer here
            op.error = "read of record %d raised %s" % (record_id, err)
            return
        op.done = self.world.sim.now
        op.error = check_log_read(record_id, want, payload)

    def _scan(self, op: Op, durable: List[Tuple[int, bytes]]):
        try:
            matches = yield from self.libos.store.scan(scan_match)
        except Exception as err:
            op.error = "scan raised %s" % err
            return
        op.done = self.world.sim.now
        op.error = check_scan(durable, matches)

    def rxq_frames(self) -> List[int]:
        return []


TARGETS = {"net": _NetTarget, "log": _LogTarget}


def run_point(name: str, cfg: dict, seed: int, label: str, rate: float,
              n: int, profiler=None) -> Point:
    """Build a fresh world, set it up, and replay *n* arrivals at *rate*.

    *profiler* (a ``cProfile.Profile``) is enabled around the set-up and
    the measured window, never around input generation.
    """
    point = Point(label, rate)
    rng = point_rng(seed, name, label)
    # Free the previous points' worlds now, so their cycles are not
    # collected inside this point's timed set-up or run.
    gc.collect()
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    target = TARGETS[cfg["kind"]](cfg, seed)
    point.preload_ops = target.setup()
    point.setup_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
    point.ops = target.schedule(rng, rate, n)
    sim = target.world.sim
    tracer = target.world.tracer
    before = dict(tracer.counters)
    server_busy = _busy(target.server_hosts)
    client_busy = _busy(target.client_hosts)
    rxq_before = target.rxq_frames()
    point.t0 = sim.now
    window = point.ops[-1].due if point.ops else 0
    drain_ns = DRAIN_FACTOR * window + 1_000_000
    if profiler is not None:
        profiler.enable()
    started = time.perf_counter()
    target.run(point, drain_ns)
    point.run_wall_s = time.perf_counter() - started
    if profiler is not None:
        profiler.disable()
    point.t_end = sim.now
    point.counters = {name_: value - before.get(name_, 0)
                      for name_, value in tracer.counters.items()
                      if value != before.get(name_, 0)}
    point.server_busy_ns = _busy(target.server_hosts) - server_busy
    point.client_busy_ns = _busy(target.client_hosts) - client_busy
    point.server_cores = target.server_cores
    point.server_rxq_frames = [after - b for after, b in
                               zip(target.rxq_frames(), rxq_before)]
    return point
