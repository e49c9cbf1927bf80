"""repro.obs — the unified instrumentation bus.

One event API for tracing and profiling: every subsystem emits typed
:class:`Event` records into the machine's :class:`EventBus`.  Each
observation has one source: the :class:`EventRecorder` is the event
log (with :func:`build_spans`, :func:`profile` and the Chrome-trace
exporter over it), :class:`FaultTelemetry` the fault latency with
per-stage attribution, and the kernel's ``KernelStats`` (plus
``pmap_system.shootdowns``) the counters — nothing here derives a
counter from events.

The package is intentionally dependency-free (standard library only):
``repro.obs.bus`` is the one module the hardware substrate and the
pmap layer are allowed to import (the layering lint's ``TELEMETRY``
allowance), so nothing here may import the rest of ``repro``.
Trace-producing workloads therefore live in :mod:`repro.cli`.
"""

from repro.obs.bus import Event, EventBus, EventRecorder
from repro.obs.export import (chrome_trace, chrome_trace_json,
                              validate_chrome_trace)
from repro.obs.metrics import Histogram
from repro.obs.spans import Span, build_spans, profile, render_spans
from repro.obs.telemetry import (STAGES, FaultTelemetry,
                                 format_latency_report)

__all__ = [
    "Event",
    "EventBus",
    "EventRecorder",
    "Histogram",
    "FaultTelemetry",
    "STAGES",
    "format_latency_report",
    "Span",
    "build_spans",
    "profile",
    "render_spans",
    "chrome_trace",
    "chrome_trace_json",
    "validate_chrome_trace",
]
