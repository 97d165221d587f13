"""Spans and the :class:`Telemetry` hub.

A :class:`Span` covers one logical operation - a push from syscall to
completion, a pop from request to wake-up, a TCP segment from transmit
to ack, an NVMe command from submit to complete - with sim-time start
and end plus an optional parent link, so a trace viewer can show where
inside a request the nanoseconds went (the attribution the paper's
claims C1-C5 argue about).

Design constraints, enforced here and relied on by the determinism
tests:

* every timestamp comes from the simulator clock - telemetry never
  reads wall-clock time;
* recording never advances sim time, schedules events, or touches the
  deterministic :class:`repro.sim.trace.Tracer`, so enabling telemetry
  cannot move a single event (chaos golden seeds stay pinned);
* when disabled, ``span()`` returns the shared :data:`NULL_SPAN` and
  metric getters return the shared null metric - zero allocation, zero
  sim-time, on every hot path.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .metrics import Gauge, Histogram, NULL_METRIC

__all__ = ["Span", "Telemetry", "NULL_SPAN", "DISABLED"]


class Span:
    """One timed operation: [start_ns, end_ns] on a named track."""

    __slots__ = ("telemetry", "id", "name", "cat", "track",
                 "start_ns", "end_ns", "parent_id", "args")

    def __init__(self, telemetry: "Telemetry", span_id: int, name: str,
                 cat: str, track: str, start_ns: int,
                 parent: Optional["Span"] = None, args: Optional[dict] = None):
        self.telemetry = telemetry
        self.id = span_id
        self.name = name
        self.cat = cat
        self.track = track
        self.start_ns = start_ns
        self.end_ns: Optional[int] = None
        self.parent_id = parent.id if parent is not None else 0
        self.args = dict(args) if args else {}

    @property
    def finished(self) -> bool:
        return self.end_ns is not None

    @property
    def duration_ns(self) -> int:
        if self.end_ns is None:
            return 0
        return self.end_ns - self.start_ns

    def annotate(self, **args) -> None:
        self.args.update(args)

    def end(self, end_ns: Optional[int] = None, **args) -> None:
        """Finish the span (idempotent); records it with the hub.

        *end_ns* defaults to the current sim time; pass an explicit
        value when the end time is known analytically (e.g. a device
        pipeline's computed completion time) to avoid scheduling an
        event just to observe it.
        """
        if self.end_ns is not None:
            return
        self.end_ns = self.telemetry.now() if end_ns is None else end_ns
        if args:
            self.args.update(args)
        self.telemetry._record(self)

    def __repr__(self) -> str:  # pragma: no cover
        return "<Span %s/%s [%d, %r]>" % (self.cat, self.name,
                                          self.start_ns, self.end_ns)


class _NullSpan:
    """The disabled-telemetry span: every method is a no-op."""

    __slots__ = ()
    id = 0
    name = ""
    cat = ""
    track = ""
    start_ns = 0
    end_ns = 0
    parent_id = 0
    args: dict = {}
    finished = True
    duration_ns = 0

    def annotate(self, **args) -> None:
        pass

    def end(self, end_ns=None, **args) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover
        return "<NullSpan>"


NULL_SPAN = _NullSpan()


class Telemetry:
    """The per-world telemetry hub: spans + typed metrics.

    Attach one to a :class:`repro.testbed.World` (or build one around a
    bare :class:`Simulator`) and every subsystem hangs its spans and
    metrics here.  A hub built with ``enabled=False`` - or the module
    singleton :data:`DISABLED` - swallows everything for free.
    """

    def __init__(self, sim=None, enabled: bool = True):
        self.sim = sim
        self.enabled = bool(enabled) and sim is not None
        self.spans: List[Span] = []
        self.metrics: Dict[str, object] = {}
        self._next_span_id = 1
        self._dropped_unfinished = 0

    # ------------------------------------------------------------- clock
    def now(self) -> int:
        return self.sim.now if self.sim is not None else 0

    # ------------------------------------------------------------- spans
    def span(self, name: str, cat: str = "app", track: str = "",
             parent: Optional[Span] = None, **args):
        """Start a span at the current sim time; call ``.end()`` on it."""
        if not self.enabled:
            return NULL_SPAN
        span_id = self._next_span_id
        self._next_span_id += 1
        return Span(self, span_id, name, cat, track, self.now(),
                    parent=parent, args=args)

    def _record(self, span: Span) -> None:
        self.spans.append(span)

    # ----------------------------------------------------------- metrics
    def _metric(self, cls, name: str):
        if not self.enabled:
            return NULL_METRIC
        metric = self.metrics.get(name)
        if metric is None:
            metric = cls(name)
            self.metrics[name] = metric
        elif not isinstance(metric, cls):
            raise TypeError("metric %r already registered as %s"
                            % (name, type(metric).__name__))
        return metric

    def gauge(self, name: str) -> Gauge:
        return self._metric(Gauge, name)

    def histogram(self, name: str) -> Histogram:
        return self._metric(Histogram, name)

    # ----------------------------------------------------------- export
    def snapshot(self) -> dict:
        """Plain-dict export: metric summaries + per-category span sums."""
        from .export import snapshot
        return snapshot(self)

    def chrome_trace(self) -> list:
        """Chrome ``trace_event`` list (load in Perfetto / about:tracing)."""
        from .export import chrome_trace_events
        return chrome_trace_events(self)

    def write_chrome_trace(self, path: str) -> int:
        """Write the Chrome trace JSON file; returns the event count."""
        from .export import write_chrome_trace
        return write_chrome_trace(self, path)

    def reset(self) -> None:
        self.spans.clear()
        self.metrics.clear()
        self._next_span_id = 1

    def __repr__(self) -> str:  # pragma: no cover
        state = "enabled" if self.enabled else "disabled"
        return "<Telemetry %s spans=%d metrics=%d>" % (
            state, len(self.spans), len(self.metrics))


#: the shared disabled hub - the default wherever telemetry is optional
DISABLED = Telemetry(sim=None, enabled=False)
