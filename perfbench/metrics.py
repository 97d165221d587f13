"""From measured points to numbers: latency, backlog, capacity, layers.

Every simulated number here is a pure function of the points' recorded
ops and counters, so it repeats exactly for a seed; only the wall-clock
figures (set-up, host rate) vary between runs.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, Dict, List, Optional, Sequence

from repro.telemetry import counter_rollup

__all__ = ["percentile", "latencies_ns", "backlog_growing",
           "meets_slo", "ladder_search", "sim_digest", "layer_counts",
           "LAYER_UNITS", "BACKLOG_SLACK"]

#: a backlog "grows" when the end-of-window count of outstanding requests
#: exceeds the midpoint count by more than this share of the window's
#: arrivals; a stable queue's depth jitters by far less
BACKLOG_SLACK = 0.01


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of *values* (``p`` in 0..100)."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def latencies_ns(point) -> List[int]:
    """Due-to-done latency of every answered request (scans excluded).

    Scans are periodic whole-log operations, not requests a client
    waits on at the offered rate; their correctness still counts.
    """
    return [op.done - (point.t0 + op.due) for op in point.ops
            if op.done >= 0 and op.error is None and op.kind != "scan"]


def _outstanding_at(point, t: int) -> int:
    """Requests due by absolute time *t* and not answered by then."""
    return sum(1 for op in point.ops
               if point.t0 + op.due <= t and (op.done < 0 or op.done > t))


def backlog_growing(point) -> bool:
    """More outstanding at the window's end than at its midpoint."""
    end = point.window_end
    mid = point.t0 + (end - point.t0) // 2
    growth = _outstanding_at(point, end) - _outstanding_at(point, mid)
    return growth > BACKLOG_SLACK * len(point.ops)


def meets_slo(point, slo_ns: float) -> bool:
    """No failures, p99 within the SLO, and no growing backlog."""
    if point.failed:
        return False
    lat = latencies_ns(point)
    return bool(lat) and percentile(lat, 99) <= slo_ns \
        and not backlog_growing(point)


def ladder_search(rungs: Sequence[float],
                  passes: Callable[[float], bool]) -> Optional[float]:
    """The highest rung that *passes*, by bisection over the ladder.

    Assumes passing is monotone (every rung below a passing rung
    passes), which holds for a queue whose tail grows with load.  A
    ladder of 2**k - 1 rungs costs exactly k probes.  Returns ``None``
    when even the lowest rung fails.
    """
    lo, hi = 0, len(rungs) - 1
    best = None
    while lo <= hi:
        mid = (lo + hi) // 2
        if passes(rungs[mid]):
            best = rungs[mid]
            lo = mid + 1
        else:
            hi = mid - 1
    return best


def sim_digest(points) -> str:
    """A hash of every request's simulated timeline and the counters.

    Two runs of one seed must produce the same digest whatever the
    host did; a change meant to touch only wall-clock speed keeps it.
    """
    h = hashlib.sha256()
    for point in points:
        h.update(("%s|%r|%d|%d\n" % (point.label, point.rate, point.t0,
                                     point.t_end)).encode())
        for op in point.ops:
            h.update(("%d,%d,%d,%d,%s;" % (op.rid, op.due, op.sent, op.done,
                                           op.error or "")).encode())
        for name in sorted(point.counters):
            h.update(("%s=%d;" % (name, point.counters[name])).encode())
        h.update(("busy=%d,%d\n" % (point.server_busy_ns,
                                    point.client_busy_ns)).encode())
    return h.hexdigest()


#: unit of every simulated per-layer count :func:`layer_counts` returns
LAYER_UNITS = {
    "cpu.server_util": "fraction",
    "cpu.client_us_per_op": "us/op",
    "nic.doorbells_per_op": "1/op",
    "nic.rx_interrupts_per_op": "1/op",
    "nic.rx_ring_drops": "count",
    "nic.rxq_imbalance": "x",
    "net.frames_per_op": "1/op",
    "net.wire_bytes_per_op": "B/op",
    "net.tcp_retransmits": "count",
    "kernel.syscalls_per_op": "1/op",
    "kernel.copy_bytes_per_op": "B/op",
    "kernel.wakeups_per_op": "1/op",
    "kernel.ewouldblock_per_op": "1/op",
    "core.qtokens_per_op": "1/op",
    "core.waits_per_op": "1/op",
    "core.wait_timeout_frac": "fraction",
    "core.completions_per_wait": "1/wait",
    "mm.allocs_per_op": "1/op",
    "proto.requests_per_push": "1/push",
    "proto.decode_errors": "count",
    "shard.wakeups_per_op": "1/op",
    "shard.useful_wakeup_frac": "fraction",
    "shard.misrouted": "count",
    "nvme.write_bytes_per_payload_byte": "B/B",
    "nvme.records_per_sync": "1/sync",
    "nvme.reads_per_op": "1/op",
    "nvme.scan_bytes_per_scan": "B/scan",
    "client.send_late_p99_us": "us",
    "span.sent_to_reply_p50_us": "us",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_counts(point) -> Dict[str, float]:
    """Simulated per-layer counts for one point, mostly per completed op.

    Keys and units are those of :data:`LAYER_UNITS`; a layer that does
    no work on this workload reads 0.
    """
    c = point.counters
    ops = max(1, point.completed)
    roll = counter_rollup(c)
    k = counter_rollup({n: v for n, v in c.items() if ".kernel." in n})
    nvme = counter_rollup({n: v for n, v in c.items() if ".nvme" in n})
    elapsed = max(1, point.t_end - point.t0)
    proto_scopes = {name.rsplit(".", 1)[0] for name in c
                    if name.endswith(".proto_requests")}
    server_pushes = sum(c.get(scope + ".pushes", 0) for scope in proto_scopes)
    rxq = point.server_rxq_frames
    wakeups = roll.get("shard_wakeups", 0)
    waits = roll.get("waits", 0)
    kinds: Dict[str, int] = {}
    for op in point.ops:
        kinds[op.kind] = kinds.get(op.kind, 0) + 1
    lat_sent = [op.done - op.sent for op in point.ops
                if op.done >= 0 and op.error is None and op.kind != "scan"]
    late = [op.sent - (point.t0 + op.due) for op in point.ops if op.sent >= 0]
    return {
        "cpu.server_util": point.server_busy_ns / (point.server_cores
                                                   * elapsed),
        "cpu.client_us_per_op": point.client_busy_ns / ops / 1e3,
        "nic.doorbells_per_op": roll.get("doorbells", 0) / ops,
        "nic.rx_interrupts_per_op": roll.get("rx_interrupts", 0) / ops,
        "nic.rx_ring_drops": roll.get("rx_ring_drops", 0),
        "nic.rxq_imbalance": (max(rxq) / (sum(rxq) / len(rxq))
                              if rxq and sum(rxq) else 0.0),
        "net.frames_per_op": c.get("fabric.tx_frames", 0) / ops,
        "net.wire_bytes_per_op": c.get("fabric.tx_bytes", 0) / ops,
        "net.tcp_retransmits": roll.get("tcp_retransmits", 0),
        "kernel.syscalls_per_op": k.get("syscalls", 0) / ops,
        "kernel.copy_bytes_per_op": (k.get("bytes_copied_tx", 0)
                                     + k.get("bytes_copied_rx", 0)) / ops,
        "kernel.wakeups_per_op": k.get("wakeups", 0) / ops,
        "kernel.ewouldblock_per_op": k.get("ewouldblock", 0) / ops,
        "core.qtokens_per_op": roll.get("qtokens_created", 0) / ops,
        "core.waits_per_op": waits / ops,
        "core.wait_timeout_frac": _ratio(roll.get("wait_timeouts", 0), waits),
        "core.completions_per_wait": _ratio(
            roll.get("qtokens_completed", 0), waits),
        "mm.allocs_per_op": c.get("mm.allocs", 0) / ops,
        "proto.requests_per_push": _ratio(roll.get("proto_requests", 0),
                                          server_pushes),
        "proto.decode_errors": roll.get("proto_decode_errors", 0),
        "shard.wakeups_per_op": wakeups / ops,
        "shard.useful_wakeup_frac": _ratio(
            wakeups - roll.get("shard_wasted_wakeups", 0)
            - roll.get("shard_cross_wakeups", 0), wakeups),
        "shard.misrouted": roll.get("shard_misrouted_requests", 0),
        "nvme.write_bytes_per_payload_byte": _ratio(
            nvme.get("write_bytes", 0), point.payload_bytes),
        "nvme.records_per_sync": _ratio(roll.get("file_appends", 0),
                                        nvme.get("flushes", 0)),
        "nvme.reads_per_op": _ratio(nvme.get("reads", 0),
                                    kinds.get("read", 0)),
        "nvme.scan_bytes_per_scan": _ratio(nvme.get("scan_bytes", 0),
                                           nvme.get("scans", 0)),
        "client.send_late_p99_us": percentile(late, 99) / 1e3 if late else 0.0,
        "span.sent_to_reply_p50_us": (percentile(lat_sent, 50) / 1e3
                                      if lat_sent else 0.0),
    }
