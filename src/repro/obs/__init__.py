"""``repro.obs``: stdlib-only observability for the serving stack.

Four seams, threaded through every hot layer (see ``docs/observability.md``):

* :mod:`repro.obs.clock` -- the injectable timing seam (the only
  sanctioned wall-clock reads in the instrumented tree; DET002-clean);
* :mod:`repro.obs.metrics` -- thread-safe Counter/Gauge/Histogram with
  labels and fixed buckets, rendered as Prometheus text exposition
  (``GET /metrics``, per worker and cluster-aggregated);
* :mod:`repro.obs.tracing` -- per-request traces with span records,
  propagated to peer workers via ``X-Repro-Trace`` (invalidation
  broadcasts, metric gathering, forwarded job polls) and retained in a
  bounded ring buffer (``GET /v1/traces``);
* :mod:`repro.obs.logging` -- the structured JSON-lines logger that
  OBS401 steers library diagnostics through.

Everything here is observe-only: no metric, span or log line may change
a payload byte.
"""

from repro.obs.clock import CLOCK, Clock, ManualClock
from repro.obs.logging import JsonLogger, trace_sink
from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    SIZE_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    render_exposition,
)
from repro.obs.tracing import (
    TRACE_HEADER,
    Span,
    SpanHandle,
    Trace,
    Tracer,
    new_trace_id,
    valid_trace_id,
)

__all__ = [
    "CLOCK",
    "Clock",
    "ManualClock",
    "JsonLogger",
    "trace_sink",
    "DEFAULT_BUCKETS",
    "SIZE_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "render_exposition",
    "TRACE_HEADER",
    "Span",
    "SpanHandle",
    "Trace",
    "Tracer",
    "new_trace_id",
    "valid_trace_id",
]
