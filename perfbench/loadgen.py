"""The benchmark's own open-loop load generator.

Everything a run offers is generated up front from the seed, as a list
of :class:`Op` with an *intended* arrival time (``due``); the program
only ever sees those inputs.  The simulated clients then replay the
list open-loop: an arrival is pushed when it falls due whatever is
outstanding, a push never waits for the previous one to complete, and
every latency is taken from ``due``, not from when the client got round
to sending.  How late the client ran (``sent - due``) is recorded per
request, so a saturated client shows up as lateness instead of
silently lowering the offered load (coordinated omission).

The generator is independent of :mod:`repro.bench.loadgen` on purpose:
fixing that module must not move this benchmark.
"""

from __future__ import annotations

import bisect
import random
from collections import deque
from typing import Dict, Generator, List, Optional, Sequence

from repro.apps.proto import CodecError, Request
from repro.core.types import DemiTimeout

from .check import check_kv_reply, kv_value

__all__ = ["Op", "poisson_dues", "zipf_cdf", "kv_schedule",
           "net_connection", "fail_unanswered", "NO_REPLY"]

#: the failure of a request that got no reply (or never became durable)
NO_REPLY = "no reply by the end of drain"


class Op:
    """One request: what to do, when it was due, and what happened.

    Times are simulated ns relative to the start of the measured
    window (``due``) or absolute simulator time (``sent``, ``done``);
    ``done`` is the reply, or for an append the moment it became
    durable.  ``error`` names the failure; an op with ``done < 0`` and
    no error never got a reply.
    """

    __slots__ = ("rid", "conn", "due", "kind", "key", "version", "size",
                 "pick", "sent", "done", "error", "record_id")

    def __init__(self, rid: int, conn: int, due: int, kind: str,
                 key: bytes = b"", version: int = 0, size: int = 0,
                 pick: float = 0.0):
        self.rid = rid
        self.conn = conn
        self.due = due
        self.kind = kind
        self.key = key
        self.version = version
        self.size = size
        #: uniform draw a storage read uses to pick its target record
        self.pick = pick
        self.sent = -1
        self.done = -1
        self.error: Optional[str] = None
        self.record_id = -1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "<Op %d %s %r due=%d sent=%d done=%d %s>" % (
            self.rid, self.kind, self.key, self.due, self.sent, self.done,
            self.error or "")


def fail_unanswered(ops: Sequence[Op], reason: str = NO_REPLY) -> None:
    """Count every op of *ops* that has neither an answer nor an error
    as failed with *reason*, sent or not."""
    for op in ops:
        if op.done < 0 and op.error is None:
            op.error = reason


def poisson_dues(rng: random.Random, rate_per_s: float, n: int) -> List[int]:
    """*n* Poisson arrival times (ns from 0) at *rate_per_s*."""
    if rate_per_s <= 0:
        raise ValueError("rate must be positive, got %r" % rate_per_s)
    mean_gap_ns = 1e9 / rate_per_s
    dues = []
    t = 0.0
    for _ in range(n):
        t += rng.expovariate(1.0) * mean_gap_ns
        dues.append(int(t))
    return dues


def zipf_cdf(n: int, skew: float) -> List[float]:
    """Cumulative Zipf(*skew*) weights over ranks ``0..n-1``."""
    weights = [1.0 / (rank + 1) ** skew for rank in range(n)]
    total = sum(weights)
    cdf, acc = [], 0.0
    for w in weights:
        acc += w / total
        cdf.append(acc)
    cdf[-1] = 1.0
    return cdf


def kv_schedule(rng: random.Random, rate_per_s: float, n: int,
                conn_keys: Sequence[Sequence[bytes]], get_fraction: float,
                zipf_skew: float, value_size: int) -> List[Op]:
    """A GET/SET arrival list over per-connection key sets.

    Connection *c* reads and writes only ``conn_keys[c]``, and its
    requests are served in order, so the version a GET must see is
    known here: the last one this connection SET (0 is the preload).
    """
    cdfs = [zipf_cdf(len(keys), zipf_skew) for keys in conn_keys]
    versions: Dict[bytes, int] = {}
    ops = []
    for rid, due in enumerate(poisson_dues(rng, rate_per_s, n)):
        conn = rng.randrange(len(conn_keys))
        rank = bisect.bisect_left(cdfs[conn], rng.random())
        key = conn_keys[conn][rank]
        if rng.random() < get_fraction:
            ops.append(Op(rid, conn, due, "get", key, versions.get(key, 0),
                          value_size))
        else:
            versions[key] = versions.get(key, 0) + 1
            ops.append(Op(rid, conn, due, "set", key, versions[key],
                          value_size))
    return ops


def _request(op: Op) -> Request:
    opaque = op.rid & 0xFFFFFFFF
    if op.kind == "get":
        return Request(op="get", key=op.key, opaque=opaque)
    return Request(op="set", key=op.key,
                   value=kv_value(op.key, op.version, op.size),
                   opaque=opaque)


def net_connection(libos, qd: int, codec, ops: Sequence[Op], t0: int,
                   pipeline_max: int, drain_until: int) -> Generator:
    """Sim-coroutine: replay *ops* open-loop on one connection.

    Arrivals due at the same instant (or while the client was busy) are
    pipelined, up to *pipeline_max* per pushed element.  Pushes are
    never waited on before the next send; replies are matched to
    requests in order and checked as they arrive.  The loop ends when
    every op is answered, at *drain_until* (absolute sim ns), or when
    the connection fails; ops still unanswered then, sent or not, count
    as failed.  Returns the number of replies that arrived with no
    request outstanding (each a failure).
    """
    sim = libos.sim
    pending: deque = deque()
    push_tokens: List[int] = []
    pushed: List[tuple] = []          # (ops, sga) per push token
    pop_token = libos.pop(qd)
    i, n = 0, len(ops)
    unexpected = 0
    while i < n or pending:
        now = sim.now
        if i < n and t0 + ops[i].due <= now:
            while i < n and t0 + ops[i].due <= now:
                batch = []
                while (i < n and t0 + ops[i].due <= now
                       and len(batch) < pipeline_max):
                    batch.append(ops[i])
                    i += 1
                wire = b"".join(codec.encode_request(_request(op))
                                for op in batch)
                for op in batch:
                    op.sent = now
                pending.extend(batch)
                sga = libos.sga_alloc(wire)
                push_tokens.append(libos.push(qd, sga))
                pushed.append((batch, sga))
            continue
        deadline = t0 + ops[i].due if i < n else drain_until
        if deadline <= now:
            break
        try:
            index, result = yield from libos.wait_any(
                [pop_token] + push_tokens, timeout_ns=deadline - now)
        except DemiTimeout:
            continue
        if index:
            batch, sga = pushed.pop(index - 1)
            push_tokens.pop(index - 1)
            libos.sga_free(sga)
            if result.error is not None:
                for op in batch:
                    op.error = "push failed: %s" % result.error
            continue
        if result.error is not None:
            fail_unanswered(ops, "connection: %s" % result.error)
            return unexpected
        data = result.sga.tobytes()
        libos.sga_free(result.sga)
        pop_token = libos.pop(qd)
        try:
            replies = codec.feed_responses(data)
        except CodecError as err:
            replies = ()
            for op in pending:
                op.error = "reply decode: %s" % err
            pending.clear()
        now = sim.now
        for reply in replies:
            if not pending:
                unexpected += 1
                continue
            op = pending.popleft()
            op.done = now
            op.error = check_kv_reply(op, reply)
    fail_unanswered(ops)
    libos.cancel(pop_token)
    return unexpected
