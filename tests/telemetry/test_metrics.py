"""Unit tests for the typed metrics: Gauge, Histogram, null."""

import pytest

from repro.telemetry import NULL_METRIC, Telemetry
from repro.telemetry.metrics import Gauge, Histogram


class TestGauge:
    def test_set_and_watermarks(self):
        g = Gauge("g")
        g.set(5)
        g.set(2)
        g.set(9)
        assert g.value == 9
        assert g.minimum == 2
        assert g.maximum == 9
        assert g.updates == 3

    def test_adjust(self):
        g = Gauge("g")
        g.set(10)
        g.adjust(-3)
        assert g.value == 7


class TestHistogram:
    def test_count_total_min_max(self):
        h = Histogram("h")
        for v in (1, 2, 4, 1024):
            h.observe(v)
        assert h.count == 4
        assert h.total == 1031
        assert h.vmin == 1
        assert h.vmax == 1024
        assert h.mean == pytest.approx(1031 / 4)

    def test_log2_buckets(self):
        h = Histogram("h")
        h.observe(1)     # bucket 1
        h.observe(1023)  # bucket 10
        h.observe(1024)  # bucket 11
        assert h.buckets[1] == 1
        assert h.buckets[10] == 1
        assert h.buckets[11] == 1

    def test_percentile_upper_bound(self):
        h = Histogram("h")
        for _ in range(99):
            h.observe(10)
        h.observe(100_000)
        # p50 lands in 10's bucket: upper bound 2^4 = 16.
        assert h.percentile(50) <= 16
        assert h.percentile(100) >= 100_000 / 2


class TestHub:
    def test_lazy_registration_returns_same_metric(self):
        t = Telemetry(sim=object())
        # object() has no .now but metrics never read the clock
        assert t.gauge("x") is t.gauge("x")
        assert t.histogram("y") is t.histogram("y")

    def test_type_mismatch_raises(self):
        t = Telemetry(sim=object())
        t.histogram("x")
        with pytest.raises(TypeError):
            t.gauge("x")

    def test_disabled_returns_null(self):
        t = Telemetry(sim=None)
        assert not t.enabled
        assert t.gauge("y") is NULL_METRIC
        assert t.histogram("z") is NULL_METRIC
        assert t.metrics == {}

    def test_null_metric_absorbs_everything(self):
        NULL_METRIC.set(5)
        NULL_METRIC.adjust(-1)
        NULL_METRIC.observe(123)
        assert NULL_METRIC.value == 0
