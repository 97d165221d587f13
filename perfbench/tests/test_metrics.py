"""Capacity search, backlog growth, and module attribution."""

import pytest

from perfbench.hostprof import MODULES, per_module
from perfbench.loadgen import Op
from perfbench.metrics import backlog_growing, ladder_search, meets_slo
from perfbench.workloads import Point

RUNGS = [100, 125, 156, 195, 244, 305, 381]


def _p99_us(rate, capacity=300.0, base=10.0):
    """An M/M/1-shaped tail: finite below capacity, unbounded at it."""
    return base / (1 - rate / capacity) if rate < capacity else float("inf")


@pytest.mark.parametrize("slo", [5, 20, 30, 40, 60, 100, 500, 10_000])
def test_ladder_returns_the_highest_rung_under_the_slo(slo):
    probes = []

    def passes(rate):
        probes.append(rate)
        return _p99_us(rate) <= slo

    want = max((r for r in RUNGS if _p99_us(r) <= slo), default=None)
    assert ladder_search(RUNGS, passes) == want
    assert len(probes) == 3          # 7 = 2**3 - 1 rungs


def _point(arrivals, done_at):
    point = Point("p", 1.0)
    point.ops = [Op(i, 0, due, "get") for i, due in enumerate(arrivals)]
    for op, done in zip(point.ops, done_at):
        op.done = done
    point.t_end = max(done_at)
    return point


def test_backlog_growth_is_detected():
    dues = list(range(0, 1000, 10))
    steady = _point(dues, [d + 15 for d in dues])
    assert not backlog_growing(steady)
    # Served at half the arrival rate: the queue grows all window long.
    falling_behind = _point(dues, [20 * i + 15 for i in range(len(dues))])
    assert backlog_growing(falling_behind)
    assert not meets_slo(falling_behind, slo_ns=10 ** 9)
    assert meets_slo(steady, slo_ns=15)
    assert not meets_slo(steady, slo_ns=14)


def test_builtins_are_charged_to_their_caller():
    engine = ("/x/src/repro/sim/engine.py", 10, "run")
    tcp = ("/x/src/repro/netstack/tcp.py", 20, "pack")
    pack = ("~", 0, "<built-in method _struct.pack>")
    helper = ("lib/python3/random.py", 5, "expovariate")
    stats = {
        engine: (1, 1, 0.5, 3.0, {}),
        tcp: (4, 4, 1.0, 2.0, {engine: (4, 4, 1.0, 2.0)}),
        helper: (2, 2, 0.2, 0.4, {tcp: (2, 2, 0.2, 0.4)}),
        pack: (10, 10, 1.0, 1.0, {tcp: (6, 6, 0.6, 0.6),
                                  helper: (4, 4, 0.4, 0.4)}),
    }
    self_s, calls = per_module(stats)
    assert set(self_s) == set(MODULES)
    assert self_s["sim.engine"] == pytest.approx(0.5)
    # tcp's own 1.0 + the helper's 0.2 + all 1.0 of pack (0.6 direct,
    # 0.4 through the helper, which tcp called).
    assert self_s["netstack.tcp"] == pytest.approx(2.2)
    assert sum(self_s.values()) == pytest.approx(2.7)
    assert calls["netstack.tcp"] == 4 + 2 + 10
