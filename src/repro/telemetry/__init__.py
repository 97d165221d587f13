"""Span-based tracing and typed metrics for the simulated stack.

The package has four pieces:

* :mod:`repro.telemetry.spans`   - :class:`Span` + the :class:`Telemetry`
  hub (and the :data:`DISABLED` null hub);
* :mod:`repro.telemetry.metrics` - :class:`Gauge` / :class:`Histogram`;
* :mod:`repro.telemetry.export`  - Chrome ``trace_event`` JSON and
  plain-dict snapshots;
* :mod:`repro.telemetry.names`   - the registry every Tracer counter
  name comes from.

Telemetry rides alongside the deterministic :class:`repro.sim.trace.
Tracer`: it reads the sim clock but never advances it, never schedules
events, and never touches the tracer's counters - so a run's
``Tracer.signature()`` is byte-identical whether telemetry is on or off
(the chaos golden seeds rely on this; ``tests/telemetry`` asserts it).
"""

from . import names
from .export import (breakdown_from_events, chrome_trace_events,
                     counter_rollup, snapshot, write_chrome_trace)
from .metrics import Gauge, Histogram, NULL_METRIC
from .spans import DISABLED, NULL_SPAN, Span, Telemetry

__all__ = [
    "names",
    "Gauge",
    "Histogram",
    "NULL_METRIC",
    "Span",
    "Telemetry",
    "NULL_SPAN",
    "DISABLED",
    "chrome_trace_events",
    "write_chrome_trace",
    "snapshot",
    "breakdown_from_events",
    "counter_rollup",
]
