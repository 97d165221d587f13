"""Typed metrics: Gauge, Histogram.

These sit next to ``Tracer.count`` bumps on hot paths where a plain
integer loses the shape of the data: a :class:`Histogram` keeps a
log2-bucketed distribution (qtoken lifetimes, wait dispatch latencies,
copied bytes per op) and a :class:`Gauge` tracks a level and its
high-water mark (queue depth, RX ring occupancy).  Monotone counts are
not a metric type: they are :class:`~repro.sim.trace.Tracer` counters.

All metrics are simulation-passive: recording never advances sim time,
schedules events, or touches the deterministic :class:`Tracer`, so a run
with metrics enabled is event-for-event identical to one without.
"""

from __future__ import annotations

from typing import Dict, List, Optional

__all__ = ["Gauge", "Histogram", "NULL_METRIC"]


class Gauge:
    """An instantaneous level with min/max watermarks."""

    __slots__ = ("name", "value", "maximum", "minimum", "updates")

    def __init__(self, name: str):
        self.name = name
        self.value = 0
        self.maximum: Optional[int] = None
        self.minimum: Optional[int] = None
        self.updates = 0

    def set(self, value: int) -> None:
        self.value = value
        self.updates += 1
        if self.maximum is None or value > self.maximum:
            self.maximum = value
        if self.minimum is None or value < self.minimum:
            self.minimum = value

    def adjust(self, delta: int) -> None:
        self.set(self.value + delta)

    def summary(self) -> Dict[str, float]:
        return {
            "type": "gauge",
            "value": float(self.value),
            "max": float(self.maximum if self.maximum is not None else 0),
            "min": float(self.minimum if self.minimum is not None else 0),
            "updates": float(self.updates),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return "<Gauge %s=%d max=%r>" % (self.name, self.value, self.maximum)


class Histogram:
    """A log2-bucketed distribution of non-negative samples.

    Bucket ``i`` holds samples in ``[2**(i-1), 2**i)`` (bucket 0 holds
    zeros), which bounds memory at ~64 buckets for any ns-scale input
    while keeping percentile estimates within a factor of two - plenty
    to tell a 100 ns wait dispatch from a 10 us one.
    """

    __slots__ = ("name", "buckets", "count", "total", "vmin", "vmax")

    def __init__(self, name: str):
        self.name = name
        self.buckets: Dict[int, int] = {}
        self.count = 0
        self.total = 0
        self.vmin: Optional[int] = None
        self.vmax: Optional[int] = None

    def observe(self, value: int) -> None:
        value = int(value)
        if value < 0:
            value = 0
        index = value.bit_length()
        self.buckets[index] = self.buckets.get(index, 0) + 1
        self.count += 1
        self.total += value
        if self.vmin is None or value < self.vmin:
            self.vmin = value
        if self.vmax is None or value > self.vmax:
            self.vmax = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper-bound estimate of the p-th percentile from the buckets."""
        if not self.count:
            return 0.0
        if not 0 <= p <= 100:
            raise ValueError("percentile out of range: %r" % p)
        target = max(1, int(round(p / 100.0 * self.count)))
        seen = 0
        for index in sorted(self.buckets):
            seen += self.buckets[index]
            if seen >= target:
                return float((1 << index) - 1 if index else 0)
        return float(self.vmax or 0)

    def summary(self) -> Dict[str, float]:
        return {
            "type": "histogram",
            "count": float(self.count),
            "mean": self.mean,
            "p50": self.percentile(50),
            "p99": self.percentile(99),
            "min": float(self.vmin if self.vmin is not None else 0),
            "max": float(self.vmax if self.vmax is not None else 0),
        }

    def __repr__(self) -> str:  # pragma: no cover
        return "<Histogram %s n=%d mean=%.0f>" % (self.name, self.count, self.mean)


class _NullMetric:
    """The disabled-telemetry stand-in: every recording call is a no-op.

    One shared instance serves every metric handle when telemetry is off,
    so hot paths can keep a cached handle and skip all branching.
    """

    __slots__ = ()
    name = ""
    value = 0
    count = 0
    total = 0
    updates = 0
    maximum = None
    minimum = None
    vmin = None
    vmax = None
    mean = 0.0

    def set(self, value: int) -> None:
        pass

    def adjust(self, delta: int) -> None:
        pass

    def observe(self, value: int) -> None:
        pass

    def percentile(self, p: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {}

    def __repr__(self) -> str:  # pragma: no cover
        return "<NullMetric>"


NULL_METRIC = _NullMetric()
