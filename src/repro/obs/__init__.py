"""Observability: metrics registry, span tracing, exporters.

The measurement substrate behind the paper's figures, generalised for
production: every layer (engine, storage, maintenance, serving,
distributed, bench) feeds counters/gauges/histograms into a process-global
:class:`MetricsRegistry`, query execution is traced as nested
``query -> filter/refine`` spans, and the whole state exports as
Prometheus text or JSON snapshots (``repro stats``).

See ``docs/observability.md`` for the metric catalog and span names.
"""

from repro.obs.export import (
    load_snapshot,
    render_json,
    render_prometheus,
    write_snapshot,
)
from repro.obs.metrics import (
    DEFAULT_MS_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
    set_registry,
)
from repro.obs.profile import AttributeProfile, ProfileCollector, QueryProfile
from repro.obs.server import (
    PROMETHEUS_CONTENT_TYPE,
    ObsServer,
    SpanRingBuffer,
    TeeSink,
)
from repro.obs.trace import (
    SLOW_QUERY_LOGGER,
    JsonlSpanSink,
    SlowQueryLog,
    Span,
    Tracer,
    get_tracer,
    set_tracer,
)
from repro.obs.trace_analysis import (
    TraceAnalysis,
    analyze_spans,
    format_analysis,
    load_spans,
)

__all__ = [
    "AttributeProfile",
    "ProfileCollector",
    "QueryProfile",
    "ObsServer",
    "SpanRingBuffer",
    "TeeSink",
    "PROMETHEUS_CONTENT_TYPE",
    "TraceAnalysis",
    "analyze_spans",
    "format_analysis",
    "load_spans",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DEFAULT_MS_BUCKETS",
    "get_registry",
    "set_registry",
    "Span",
    "Tracer",
    "JsonlSpanSink",
    "SlowQueryLog",
    "SLOW_QUERY_LOGGER",
    "get_tracer",
    "set_tracer",
    "render_prometheus",
    "render_json",
    "write_snapshot",
    "load_snapshot",
]
