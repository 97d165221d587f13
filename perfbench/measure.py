"""One benchmark run: the points it measures and the metrics it prints.

An untraced run (``trace=False``) measures, in order:

1. the *nominal* point (fixed rate, about 70% of capacity), as
   ``nominal_runs`` independent runs pooled: simulated p50/p99, server
   CPU per op, and the host rate;
2. the *overload* point (fixed rate, past saturation): goodput;
3. a bisection over the fixed rate *ladder*: capacity, the highest rung
   meeting the workload's fixed SLO (``slo_p99_us``) without a growing
   backlog;
4. repeats of the nominal runs while another fits in ``seconds`` of host
   time, for steadier host-clock figures; every repeat must reproduce
   its first run's simulated digest exactly.

A traced run alternates an untraced and a cProfiled copy of the first
nominal run while another pair fits in ``seconds``, and reports
per-layer metrics: host self time per module (profile), simulated
counts per completed op (counters, cores, qtoken tables), and spans.
"""

from __future__ import annotations

import cProfile
import json
import os
import resource
import statistics
import time
from typing import Dict, List

from .hostprof import MODULES, per_module
from .metrics import (LAYER_UNITS, latencies_ns, layer_counts,
                      ladder_search, meets_slo, percentile, sim_digest)
from .workloads import Point, run_point

__all__ = ["run", "calibrate", "END_TO_END_UNITS"]

#: unit of every end-to-end metric, in print order
END_TO_END_UNITS = {
    "sim_p50_us": "us",
    "sim_p99_us": "us",
    "sim_goodput_kops": "kop/s",
    "sim_capacity_kops": "kop/s",
    "sim_server_cpu_us_per_op": "us/op",
    "sim_ops_per_wall_s": "op/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: stated bound on profile time not attributed to any function
MAX_UNATTRIBUTED = 0.25
#: nearest-rank p99 needs this many samples to have ten beyond it
MIN_SAMPLES = 1000


def calibrate(seconds: float = 0.2) -> float:
    """A short pure-Python loop's rate (iterations/s) on this host.

    Not a metric: printed beside each run so a drift of the host can be
    told apart from a change of the program.
    """
    n = 0
    acc = 0
    started = time.perf_counter()
    while time.perf_counter() - started < seconds:
        for i in range(10_000):
            acc = (acc * 31 + i) & 0xFFFF
        n += 10_000
    return n / (time.perf_counter() - started)


def _say(line: str) -> None:
    print(line, flush=True)


def _summary(point: Point) -> str:
    lat = latencies_ns(point)
    p50 = percentile(lat, 50) / 1e3 if lat else float("nan")
    p99 = percentile(lat, 99) / 1e3 if lat else float("nan")
    return ("point %-13s rate=%7.0f/s ops=%5d failed=%d p50=%.2fus "
            "p99=%.2fus setup=%.3fs run=%.3fs digest=%s" % (
                point.label, point.rate, len(point.ops), point.failed, p50,
                p99, point.setup_s, point.run_wall_s,
                sim_digest([point])[:12]))


def _failures(points: List[Point]) -> List[str]:
    errors = []
    for point in points:
        for op in point.ops:
            if op.error is not None:
                errors.append("%s request %d: %s" % (point.label, op.rid,
                                                     op.error))
        if point.extra_failures:
            errors.append("%s: %d replies with no request outstanding"
                          % (point.label, point.extra_failures))
    return errors


def run(name: str, cfg: dict, seed: int, seconds: float, trace: bool,
        out_dir: str) -> dict:
    """Run workload *name*; returns the result object to print."""
    started = time.perf_counter()
    _say("workload %s seed %d trace %d" % (name, seed, int(trace)))
    _say("calibration_loop_rate %.0f iter/s" % calibrate())
    if trace:
        return _traced(name, cfg, seed, seconds, started, out_dir)
    return _untraced(name, cfg, seed, seconds, started)


def _untraced(name: str, cfg: dict, seed: int, seconds: float,
              started: float) -> dict:
    points: List[Point] = []

    def point(label: str, rate: float, n: int) -> Point:
        p = run_point(name, cfg, seed, label, rate, n)
        _say(_summary(p))
        points.append(p)
        return p

    slo_ns = cfg["slo_p99_us"] * 1e3
    _say("slo p99 <= %.2f us" % cfg["slo_p99_us"])
    nominal = [point("nominal-%d" % i, cfg["nominal_rate"], cfg["n_nominal"])
               for i in range(cfg["nominal_runs"])]
    overload = point("overload", cfg["overload_rate"], cfg["n_overload"])
    capacity = ladder_search(cfg["ladder"], lambda rate: meets_slo(
        point("ladder-%d" % rate, rate, cfg["n_ladder"]), slo_ns))
    # Read before the repeats: their number follows the host's speed.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = sim_digest(points)
    setups = [p.setup_s for p in points]
    host_rates = [p.completed / p.run_wall_s for p in nominal]
    # Fill the rest of the time with repeats of the nominal runs; each
    # must reproduce its first run exactly.
    repeats_ok = True
    i = 0
    while True:
        elapsed = time.perf_counter() - started
        base = nominal[i % len(nominal)]
        if elapsed + base.setup_s + base.run_wall_s > seconds:
            break
        again = run_point(name, cfg, seed, base.label, base.rate,
                          len(base.ops))
        repeats_ok &= sim_digest([again]) == sim_digest([base])
        host_rates.append(again.completed / again.run_wall_s)
        setups.append(again.setup_s)
        i += 1

    lat = [ns for p in nominal for ns in latencies_ns(p)]
    busy_ns = sum(p.server_busy_ns for p in nominal)
    metrics = {
        "sim_p50_us": percentile(lat, 50) / 1e3,
        "sim_p99_us": percentile(lat, 99) / 1e3,
        "sim_goodput_kops": overload.completed
        / ((overload.t_end - overload.t0) / 1e9) / 1e3,
        "sim_capacity_kops": (capacity or 0.0) / 1e3,
        "sim_server_cpu_us_per_op": busy_ns
        / max(1, sum(p.completed for p in nominal)) / 1e3,
        "sim_ops_per_wall_s": statistics.median(host_rates),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(len(p.ops) for p in points)
    failed = sum(p.failed for p in points)
    errors = _failures(points)
    if not repeats_ok:
        errors.append("a repeat of the nominal point changed its digest")
    if len(lat) < MIN_SAMPLES:
        errors.append("nominal point has %d latency samples, need %d"
                      % (len(lat), MIN_SAMPLES))
    for line in errors[:20]:
        _say("FAIL " + line)
    _say("sim_digest %s" % digest)
    _say("nominal samples %d, host-rate runs %d, set-ups %d"
         % (len(lat), len(host_rates), len(setups)))
    _say("failed_frac %.6f (%d of %d)" % (failed / attempted, failed,
                                          attempted))
    for key, unit in END_TO_END_UNITS.items():
        _say("%-26s %14.4f %s" % (key, metrics[key], unit))
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": metrics[key], "unit": unit}
                    for key, unit in END_TO_END_UNITS.items()},
    }


def _traced(name: str, cfg: dict, seed: int, seconds: float,
            started: float, out_dir: str) -> dict:
    profiler = cProfile.Profile()
    plain_walls: List[float] = []
    traced_walls: List[float] = []
    traced_ops = 0
    reference = None
    errors: List[str] = []
    while not traced_walls or (time.perf_counter() - started
                               + plain_walls[-1] + traced_walls[-1]
                               <= seconds):
        plain = run_point(name, cfg, seed, "nominal-0", cfg["nominal_rate"],
                          cfg["n_nominal"])
        traced = run_point(name, cfg, seed, "nominal-0", cfg["nominal_rate"],
                           cfg["n_nominal"], profiler=profiler)
        _say(_summary(plain))
        _say(_summary(traced) + " profiled")
        if reference is None:
            reference = plain
        for p in (plain, traced):
            if sim_digest([p]) != sim_digest([reference]):
                errors.append("profiling or repeating changed the digest")
        errors.extend(_failures([plain, traced]))
        plain_walls.append(plain.setup_s + plain.run_wall_s)
        traced_walls.append(traced.setup_s + traced.run_wall_s)
        traced_ops += traced.completed + traced.preload_ops

    profiler.create_stats()
    self_s, calls = per_module(profiler.stats)
    profiled_s = sum(traced_walls)
    unattributed = 1.0 - sum(self_s.values()) / profiled_s
    if abs(unattributed) > MAX_UNATTRIBUTED:
        errors.append("module self times miss %.1f%% of the traced wall "
                      "(bound %.0f%%)" % (100 * unattributed,
                                          100 * MAX_UNATTRIBUTED))
    runs = len(traced_walls)
    metrics: Dict[str, tuple] = {}
    for module in MODULES:
        metrics["wall." + module] = (
            self_s[module] * 1e3 / (traced_ops / 1e3), "ms/kop")
    for module in MODULES:
        metrics["calls." + module] = (calls[module] / runs, "count")
    metrics["trace.overhead_x"] = (statistics.median(traced_walls)
                                   / statistics.median(plain_walls), "x")
    metrics["trace.unattributed_frac"] = (unattributed, "fraction")
    for key, value in layer_counts(reference).items():
        metrics[key] = (value, LAYER_UNITS[key])

    _write_artifacts(out_dir, name, seed, reference, self_s, calls, runs,
                     profiled_s)
    attempted = len(reference.ops)
    failed = reference.failed
    for line in errors[:20]:
        _say("FAIL " + line)
    _say("sim_digest %s (nominal point)" % sim_digest([reference]))
    _say("profiled runs %d, profiled wall %.3f s, unattributed %.2f%%"
         % (runs, profiled_s, 100 * unattributed))
    for key, (value, unit) in metrics.items():
        _say("%-36s %14.4f %s" % (key, value, unit))
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit) in metrics.items()},
    }


def _write_artifacts(out_dir: str, name: str, seed: int, point: Point,
                     self_s: Dict[str, float], calls: Dict[str, int],
                     runs: int, profiled_s: float) -> None:
    """Spans of the nominal point plus the per-module profile, as JSON."""
    path = os.path.join(out_dir, "%s-seed%d" % (name, seed))
    os.makedirs(path, exist_ok=True)
    with open(os.path.join(path, "spans.jsonl"), "w") as f:
        for op in point.ops:
            f.write(json.dumps({
                "id": op.rid, "conn": op.conn, "kind": op.kind,
                "due_ns": point.t0 + op.due, "sent_ns": op.sent,
                ("durable_ns" if op.kind == "append" else "reply_ns"):
                op.done, "error": op.error}) + "\n")
    with open(os.path.join(path, "profile.json"), "w") as f:
        json.dump({"profiled_runs": runs, "profiled_wall_s": profiled_s,
                   "self_s": self_s, "calls": calls}, f, indent=1,
                  sort_keys=True)
