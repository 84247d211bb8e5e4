"""Observability: span tracing, metrics registry, audit, profiling, exporters.

The instrumentation substrate of the reproduction (see
``docs/observability.md``).  Five pieces:

* :mod:`repro.obs.trace` — hierarchical virtual-time spans covering
  every stage of the query lifecycle; disabled by default, free when off.
* :mod:`repro.obs.registry` — labeled counters/histograms (with log2
  buckets and approximate percentiles) that the simulator, client,
  scheduler, and every engine report into.
* :mod:`repro.obs.audit` — estimate-vs-actual auditing: per-decision
  q-error histograms recorded wherever an estimate drives a choice.
* :mod:`repro.obs.profile` — post-hoc EXPLAIN ANALYZE: critical-path
  extraction, flamegraph exports, :class:`ProfileReport` artifacts.
* :mod:`repro.obs.export` — JSONL / Chrome trace sinks and the
  per-endpoint and compiled-plan summaries
  ``python -m repro explain-analyze`` prints.

Each engine owns one tracer and one registry; nothing here is
process-wide.
"""

from repro.obs.audit import (
    AUDIT_COUNTER,
    NULL_AUDIT,
    Q_ERROR_METRIC,
    AuditRecord,
    EstimateAudit,
    make_audit,
    q_error,
)
from repro.obs.export import (
    endpoint_summary_table,
    load_trace_jsonl,
    plan_cache_summary,
    span_to_dict,
    validate_trace,
    write_trace_chrome,
    write_trace_jsonl,
)
from repro.obs.profile import (
    ProfileReport,
    build_profile_report,
    chrome_trace_events,
    critical_path,
    critical_path_ids,
    critical_sections,
    q_error_summary,
    render_explain_analyze,
    render_q_error_table,
)
from repro.obs.registry import HistogramStats, MetricsRegistry
from repro.obs.trace import NULL_SPAN, Span, Tracer

__all__ = [
    "AUDIT_COUNTER",
    "AuditRecord",
    "EstimateAudit",
    "HistogramStats",
    "MetricsRegistry",
    "NULL_AUDIT",
    "NULL_SPAN",
    "ProfileReport",
    "Q_ERROR_METRIC",
    "Span",
    "Tracer",
    "build_profile_report",
    "chrome_trace_events",
    "critical_path",
    "critical_path_ids",
    "critical_sections",
    "endpoint_summary_table",
    "load_trace_jsonl",
    "make_audit",
    "plan_cache_summary",
    "q_error",
    "q_error_summary",
    "render_explain_analyze",
    "render_q_error_table",
    "span_to_dict",
    "validate_trace",
    "write_trace_chrome",
    "write_trace_jsonl",
]
