"""Observability: spans, metrics, and trace export for the pipeline.

Dependency-free (stdlib only, below every pipeline layer but ``util``)
and injection-only: a :class:`Tracer`/:class:`MetricsRegistry` pair is
handed to ``LinkSimulator``/``RunSpec.execute(observe=...)`` explicitly,
never discovered through a global.  The defaults (:data:`NULL_TRACER`,
:data:`NULL_METRICS`) are shared no-ops, so uninstrumented runs pay one
method call per would-be span.

See ``docs/METRICS.md`` (generated from :mod:`repro.obs.schema`) for the
full span/metric catalog, and ``DESIGN.md`` §5f for the injection and
worker re-parenting contracts.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_METRICS,
    NullMetrics,
)
from repro.obs.schema import (
    METRICS_SCHEMA_VERSION,
    TRACE_SCHEMA_VERSION,
    render_reference,
)
from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    assemble_trace,
    format_span_tree,
    read_trace,
    summarize_spans,
    write_trace,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_METRICS",
    "NullMetrics",
    "METRICS_SCHEMA_VERSION",
    "TRACE_SCHEMA_VERSION",
    "render_reference",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "assemble_trace",
    "format_span_tree",
    "read_trace",
    "summarize_spans",
    "write_trace",
]
