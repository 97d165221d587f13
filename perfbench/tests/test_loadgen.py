"""The generator: seeded schedules, and timing from the intended arrival."""

import random

from perfbench.loadgen import Op, kv_schedule, poisson_dues
from perfbench.metrics import latencies_ns, layer_counts
from perfbench.workloads import Point, _NetTarget, point_rng

KEYS = [[b"a%d" % i for i in range(8)], [b"b%d" % i for i in range(8)]]


def _schedule(seed, label="nominal-0"):
    rng = point_rng(seed, "w", label)
    return [(op.rid, op.conn, op.due, op.kind, op.key, op.version)
            for op in kv_schedule(rng, 100_000, 500, KEYS, 0.7, 0.99, 64)]


def test_schedule_repeats_for_a_seed():
    assert _schedule(5) == _schedule(5)
    assert _schedule(5) != _schedule(6)
    assert _schedule(5) != _schedule(5, "nominal-1")


def test_poisson_dues_have_the_offered_rate():
    dues = poisson_dues(random.Random(1), 200_000, 20_000)
    assert dues == sorted(dues)
    rate = len(dues) / (dues[-1] / 1e9)
    assert abs(rate - 200_000) / 200_000 < 0.03


def test_get_expects_the_connections_last_set():
    ops = kv_schedule(random.Random(3), 100_000, 2_000, KEYS, 0.5, 0.99, 64)
    last = {}
    for op in ops:
        assert op.key in KEYS[op.conn]
        if op.kind == "set":
            assert op.version == last.get(op.key, 0) + 1
            last[op.key] = op.version
        else:
            assert op.version == last.get(op.key, 0)


def test_latency_and_lateness_are_taken_from_the_due_time():
    point = Point("p", 1.0)
    point.t0 = 1_000
    op = Op(0, 0, due=100, kind="get")
    op.sent, op.done = 1_600, 1_900      # sent 500 ns late
    point.ops = [op]
    point.t_end = 2_000
    assert latencies_ns(point) == [800]
    counts = layer_counts(point)
    assert counts["client.send_late_p99_us"] == 0.5
    assert counts["span.sent_to_reply_p50_us"] == 0.3


def test_a_delayed_send_is_timed_from_its_due_time():
    """A client stuck on its core sends late; the wait still counts."""
    cfg = {"protocol": "resp", "libos": "dpdk", "shards": 1,
           "connections": 1, "keys": 4, "value_size": 32,
           "pipeline_max": 16, "get_fraction": 1.0, "zipf_skew": 0.99}
    target = _NetTarget(cfg, seed=1)
    target.setup()
    key = target.conn_keys[0][0]
    point = Point("p", 1.0)
    point.ops = [Op(0, 0, 0, "get", key, 0, 32),
                 Op(1, 0, 20_000, "get", key, 0, 32)]
    point.t0 = target.world.sim.now
    # The client core is busy for 200 us, so the wake-up that follows
    # the first reply - and with it the second send - comes late.
    target.conn_libos[0].core.busy(200_000)
    target.run(point, drain_ns=10_000_000)
    first, second = point.ops
    assert first.error is None and second.error is None
    assert second.sent - (point.t0 + second.due) > 150_000
    assert latencies_ns(point)[1] == second.done - (point.t0 + second.due)
    assert latencies_ns(point)[1] > 150_000 + (second.done - second.sent)


def test_requests_after_the_server_closes_count_as_failed():
    """A close with nothing pending still fails every request not sent."""
    cfg = {"protocol": "memcached", "libos": "dpdk", "shards": 1,
           "connections": 1, "keys": 4, "value_size": 32,
           "pipeline_max": 16, "get_fraction": 1.0, "zipf_skew": 0.99}
    target = _NetTarget(cfg, seed=1)
    target.setup()
    key = target.conn_keys[0][0]
    point = Point("p", 1.0)
    point.ops = [Op(rid, 0, rid * 200_000, "get", key, 0, 32)
                 for rid in range(3)]
    point.t0 = target.world.sim.now
    sim, libos, qd = target.world.sim, target.conn_libos[0], target.qds[0]

    def desync():
        # A bad magic byte: the server drops the connection.
        yield sim.timeout(100_000)
        libos.push(qd, libos.sga_alloc(b"\x00" * 24))

    sim.spawn(desync(), name="desync")
    target.run(point, drain_ns=10_000_000)
    first, second, third = point.ops
    assert first.error is None and first.done >= 0
    assert second.sent == third.sent == -1
    assert second.error and third.error
    assert point.failed == 2 and point.completed == 1
