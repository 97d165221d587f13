"""Unit tests for spans and the Telemetry hub."""

from repro.sim.engine import Simulator
from repro.telemetry import DISABLED, NULL_SPAN, Telemetry


def make():
    sim = Simulator()
    return sim, Telemetry(sim)


class TestSpan:
    def test_covers_sim_time(self):
        sim, t = make()
        span = t.span("op", cat="libos", track="x")
        sim.call_in(100, span.end)
        sim.run()
        assert span.start_ns == 0
        assert span.end_ns == 100
        assert span.duration_ns == 100
        assert t.spans == [span]

    def test_explicit_end_ns(self):
        sim, t = make()
        span = t.span("op", cat="device")
        span.end(end_ns=12345)
        assert span.end_ns == 12345
        assert sim.now == 0  # the analytic end never advanced the clock

    def test_end_is_idempotent(self):
        _, t = make()
        span = t.span("op")
        span.end(end_ns=10)
        span.end(end_ns=99)
        assert span.end_ns == 10
        assert len(t.spans) == 1

    def test_parent_link(self):
        _, t = make()
        parent = t.span("outer")
        child = t.span("inner", parent=parent)
        assert child.parent_id == parent.id
        assert parent.parent_id == 0

    def test_args_and_annotate(self):
        _, t = make()
        span = t.span("op", qd=3)
        span.annotate(nbytes=64)
        span.end(error=None)
        assert span.args == {"qd": 3, "nbytes": 64, "error": None}

    def test_ids_are_unique(self):
        _, t = make()
        ids = {t.span("op").id for _ in range(10)}
        assert len(ids) == 10


class TestDisabled:
    def test_disabled_span_is_null(self):
        t = Telemetry(sim=None)
        assert t.span("anything") is NULL_SPAN
        assert DISABLED.span("x") is NULL_SPAN

    def test_null_span_absorbs(self):
        NULL_SPAN.annotate(a=1)
        NULL_SPAN.end(end_ns=5)
        assert NULL_SPAN.id == 0
        assert DISABLED.spans == []

    def test_reset(self):
        sim, t = make()
        t.span("op").end(end_ns=1)
        t.gauge("g").set(1)
        t.reset()
        assert t.spans == []
        assert t.metrics == {}
