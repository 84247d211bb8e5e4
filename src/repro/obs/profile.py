"""Post-hoc EXPLAIN ANALYZE analysis over the virtual-time span tree.

Three consumers of a finished trace:

* :func:`critical_path` / :func:`critical_sections` — the blocking
  chain that gates end-to-end latency.  Virtually-concurrent work
  appears as sibling spans with overlapping intervals, so the path is
  extracted Jaeger-style by a backward sweep: starting from the root's
  end, repeatedly descend into the *last-finishing* child at or before
  the cursor, then continue leftward from that child's start.  The
  resulting sections tile the root interval exactly — their lengths sum
  to the root's inclusive time.
* :func:`chrome_trace_events` — the flamegraph export: Chrome
  trace-event JSON (``chrome://tracing`` / Perfetto).
* :class:`ProfileReport` / :func:`render_explain_analyze` — the JSON
  artifact the harness emits per (engine, query) and the annotated plan
  tree the ``explain-analyze`` CLI mode prints (rows est→act, q-error,
  critical-path markers, request counts).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.obs.audit import Q_ERROR_METRIC
from repro.obs.registry import HistogramStats, MetricsRegistry
from repro.obs.trace import Span

#: Tolerance for float comparisons on virtual timestamps.
_EPS = 1e-6


def _end(span: Span) -> float:
    return span.t1_ms if span.t1_ms is not None else span.t0_ms


# ---------------------------------------------------------- critical path

def critical_sections(root: Span) -> list[tuple[Span, float, float]]:
    """The blocking chain as ``(span, lo_ms, hi_ms)`` sections.

    Sections are disjoint, chronologically ordered, and tile the root's
    interval: summing ``hi - lo`` gives exactly the root's inclusive
    virtual time.  Each section is attributed to the deepest span that
    was gating progress during that interval.
    """
    sections: list[tuple[Span, float, float]] = []

    def visit(span: Span, hi: float) -> None:
        cursor = min(hi, _end(span))
        # Latest-finishing child first; ties broken by id for determinism.
        children = sorted(span.children, key=lambda c: (_end(c), c.id))
        while cursor > span.t0_ms + _EPS and children:
            pick = None
            for index in range(len(children) - 1, -1, -1):
                if _end(children[index]) <= cursor + _EPS:
                    pick = children.pop(index)
                    break
            if pick is None:
                break
            # Gap between the gating child's end and the cursor is the
            # span's own (self) time on the path.
            child_end = min(cursor, _end(pick))
            if cursor > child_end + _EPS:
                sections.append((span, child_end, cursor))
            visit(pick, child_end)
            cursor = max(span.t0_ms, pick.t0_ms)
        if cursor > span.t0_ms + _EPS:
            sections.append((span, span.t0_ms, cursor))

    visit(root, _end(root))
    sections.sort(key=lambda item: (item[1], item[0].id))
    return sections


def critical_path(root: Span) -> list[Span]:
    """Spans on the blocking chain, chronological, root first."""
    seen: dict[int, Span] = {}
    ordered: list[Span] = [root]
    seen[root.id] = root
    for span, __, __hi in critical_sections(root):
        if span.id not in seen:
            seen[span.id] = span
            ordered.append(span)
    ordered.sort(key=lambda s: (s.t0_ms, s.id))
    return ordered


def critical_path_ids(root: Span) -> set[int]:
    return {span.id for span in critical_path(root)}


# ------------------------------------------------------ flamegraph exports

def _assign_lanes(root: Span) -> dict[int, int]:
    """Map span id -> Chrome ``tid`` lane so events nest properly.

    Children share their parent's lane when they do not overlap a
    sibling already placed there; virtually-concurrent siblings spill
    onto fresh lanes.  Within a lane every pair of events is either
    disjoint or properly nested — the shape ``chrome://tracing`` needs.
    """
    lanes = {root.id: 1}
    next_lane = [2]

    def visit(span: Span) -> None:
        lane_busy: dict[int, float] = {}
        parent_lane = lanes[span.id]
        for child in sorted(span.children, key=lambda c: (c.t0_ms, c.id)):
            placed = None
            for candidate in [parent_lane, *sorted(l for l in lane_busy if l != parent_lane)]:
                if child.t0_ms >= lane_busy.get(candidate, float("-inf")) - _EPS:
                    placed = candidate
                    break
            if placed is None:
                placed = next_lane[0]
                next_lane[0] += 1
            lanes[child.id] = placed
            lane_busy[placed] = max(lane_busy.get(placed, float("-inf")), _end(child))
            visit(child)

    visit(root)
    return lanes


def chrome_trace_events(roots: Iterable[Span]) -> dict[str, Any]:
    """Trace-event JSON (``ph: "X"`` complete events, µs timestamps)."""
    from repro.obs.export import _jsonable  # local: avoids import cycle

    events: list[dict[str, Any]] = []
    for pid, root in enumerate(roots, start=1):
        lanes = _assign_lanes(root)
        for span in root.walk():
            events.append(
                {
                    "name": span.name,
                    "ph": "X",
                    "ts": round(span.t0_ms * 1000.0, 3),
                    "dur": round((_end(span) - span.t0_ms) * 1000.0, 3),
                    "pid": pid,
                    "tid": lanes[span.id],
                    "args": _jsonable(span.attrs),
                }
            )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


# ---------------------------------------------------------- profile report

def q_error_summary(registry: MetricsRegistry, engine: str) -> dict[str, dict[str, Any]]:
    """Per-decision q-error digest for one engine, from the registry.

    Merges every endpoint-labeled ``estimate_q_error`` series of the
    engine into one histogram per decision and remembers which endpoint
    produced the worst error.
    """
    merged: dict[str, HistogramStats] = {}
    worst_endpoint: dict[str, tuple[float, str]] = {}
    for key, stats in registry.histogram_series(Q_ERROR_METRIC).items():
        labels = dict(key)
        if labels.get("engine") != engine or not stats.count:
            continue
        decision = labels.get("decision", "?")
        agg = merged.setdefault(decision, HistogramStats())
        agg.merge(stats)
        endpoint = labels.get("endpoint", "*")
        peak = stats.max if stats.max is not None else 1.0
        if decision not in worst_endpoint or peak > worst_endpoint[decision][0]:
            worst_endpoint[decision] = (peak, endpoint)
    summary: dict[str, dict[str, Any]] = {}
    for decision in sorted(merged):
        stats = merged[decision]
        summary[decision] = {
            "count": stats.count,
            "mean": round(stats.mean, 3),
            "max": round(stats.max, 3) if stats.max is not None else None,
            "p50": round(stats.p50, 3) if stats.p50 is not None else None,
            "p95": round(stats.p95, 3) if stats.p95 is not None else None,
            "p99": round(stats.p99, 3) if stats.p99 is not None else None,
            "worst_endpoint": worst_endpoint[decision][1],
        }
    return summary


@dataclass
class ProfileReport:
    """One (engine, query) EXPLAIN ANALYZE artifact, JSON-serializable."""

    engine: str
    query: str
    status: str
    virtual_ms: float
    requests: int
    rows_shipped: int
    result_rows: int
    #: Planner metadata traffic (ask / check / count / stats requests
    #: actually issued) — the request storm the characteristic-set
    #: statistics are meant to kill.
    metadata_requests: int = 0
    requests_by_kind: dict[str, int] = field(default_factory=dict)
    span_count: int = 0
    critical_path: list[dict[str, Any]] = field(default_factory=list)
    critical_path_ms: float = 0.0
    q_error: dict[str, dict[str, Any]] = field(default_factory=dict)
    worst_q_error: float = 1.0
    estimates: list[dict[str, Any]] = field(default_factory=list)

    def to_dict(self) -> dict[str, Any]:
        return {
            "engine": self.engine,
            "query": self.query,
            "status": self.status,
            "virtual_ms": round(self.virtual_ms, 6),
            "requests": self.requests,
            "rows_shipped": self.rows_shipped,
            "result_rows": self.result_rows,
            "metadata_requests": self.metadata_requests,
            "requests_by_kind": dict(sorted(self.requests_by_kind.items())),
            "span_count": self.span_count,
            "critical_path": self.critical_path,
            "critical_path_ms": round(self.critical_path_ms, 6),
            "q_error": self.q_error,
            "worst_q_error": round(self.worst_q_error, 3),
            "estimates": self.estimates,
        }


#: Cap on raw estimate records embedded in a report (the registry keeps
#: the full histograms regardless).
_MAX_ESTIMATE_RECORDS = 200


def build_profile_report(
    engine: str,
    query: str,
    status: str,
    root: Span | None,
    registry: MetricsRegistry,
    metrics=None,
    result_rows: int = 0,
    audit=None,
) -> ProfileReport:
    """Assemble a :class:`ProfileReport` from one traced execution.

    ``root`` is the execution's root span (``None`` tolerated — the
    report then has an empty critical path), ``metrics`` the per-query
    :class:`~repro.net.metrics.QueryMetrics`, ``audit`` the
    :class:`~repro.obs.audit.EstimateAudit` that collected raw records.
    """
    requests_by_kind: dict[str, int] = {}
    requests = 0
    rows_shipped = 0
    metadata_requests = 0
    virtual_ms = 0.0
    if metrics is not None:
        requests = metrics.request_count()
        rows_shipped = metrics.rows_shipped()
        metadata_requests = metrics.metadata_request_count()
        virtual_ms = metrics.virtual_ms
        for stats in metrics.endpoint_summary().values():
            for kind, count in stats["by_kind"].items():
                requests_by_kind[kind] = requests_by_kind.get(kind, 0) + count

    path_entries: list[dict[str, Any]] = []
    path_ms = 0.0
    span_count = 0
    if root is not None:
        span_count = sum(1 for __ in root.walk())
        self_ms: dict[int, float] = {}
        for span, lo, hi in critical_sections(root):
            self_ms[span.id] = self_ms.get(span.id, 0.0) + (hi - lo)
        for span in critical_path(root):
            entry: dict[str, Any] = {
                "name": span.name,
                "t0_ms": round(span.t0_ms, 6),
                "t1_ms": round(_end(span), 6),
                "self_ms": round(self_ms.get(span.id, 0.0), 6),
            }
            for key in ("endpoint", "subquery", "requests", "rows"):
                if key in span.attrs:
                    entry[key] = span.attrs[key]
            path_entries.append(entry)
        path_ms = sum(entry["self_ms"] for entry in path_entries)

    summary = q_error_summary(registry, engine)
    worst = max(
        (digest["max"] for digest in summary.values() if digest["max"] is not None),
        default=1.0,
    )
    estimates: list[dict[str, Any]] = []
    if audit is not None and getattr(audit, "enabled", False):
        estimates = [record.to_dict() for record in audit.records[:_MAX_ESTIMATE_RECORDS]]

    return ProfileReport(
        engine=engine,
        query=query,
        status=status,
        virtual_ms=virtual_ms,
        requests=requests,
        rows_shipped=rows_shipped,
        result_rows=result_rows,
        metadata_requests=metadata_requests,
        requests_by_kind=requests_by_kind,
        span_count=span_count,
        critical_path=path_entries,
        critical_path_ms=path_ms,
        q_error=summary,
        worst_q_error=worst,
        estimates=estimates,
    )


# -------------------------------------------------------- explain analyze

#: Attributes already rendered in their own columns.
_RENDERED_ATTRS = (
    "requests",
    "rows",
    "estimated_cardinality",
    "q_error",
    "audit",
    "estimated_cardinalities",
)


#: Audited decisions whose estimate is a row count.  The others are
#: cost units (``join_cost``), rows per binding (``bind_fanout``), a
#: survival percentage (``strategy``) or per-endpoint probes.
_ROW_DECISIONS = frozenset({"delay", "bound_join", "branch_rows", "join_rows", "void_estimate"})


def _est_act(span: Span) -> str:
    """``est→act`` row column: the span's estimated cardinality, else its
    first row-count audit record; actual rows from ``rows``, else that record."""
    rows = span.attrs.get("rows")
    estimate = span.attrs.get("estimated_cardinality")
    if estimate is None:
        for entry in span.attrs.get("audit") or ():
            if entry["decision"] in _ROW_DECISIONS:
                estimate = entry["estimated"]
                if rows is None:
                    rows = entry["actual"]
                break
    if estimate is None and rows is None:
        return ""
    left = "?" if estimate is None else f"{estimate:g}"
    right = "?" if rows is None else f"{rows:g}"
    return f"{left}→{right}"


def render_explain_analyze(root: Span, critical: set[int] | None = None) -> str:
    """Annotated plan tree: est→act rows, q-error, critical path, requests.

    Spans on the critical path are marked with ``*`` in the first
    column; the q-error column shows the worst audited estimate error
    recorded on that span.
    """
    if critical is None:
        critical = critical_path_ids(root)
    lines = [
        f"{'':1}{'span':<43} {'incl_ms':>10} {'excl_ms':>10} {'reqs':>6} "
        f"{'rows est→act':>14} {'q_err':>7}  notes"
    ]

    def visit(span: Span, prefix: str, is_last: bool, is_root: bool) -> None:
        connector = "" if is_root else ("└─ " if is_last else "├─ ")
        marker = "*" if span.id in critical else " "
        label = f"{prefix}{connector}{span.name}"
        requests = span.attrs.get("requests", "")
        q_err = span.attrs.get("q_error")
        q_text = f"q{q_err:.1f}" if isinstance(q_err, (int, float)) else ""
        notes = " ".join(
            f"{key}={value}"
            for key, value in span.attrs.items()
            if key not in _RENDERED_ATTRS
        )
        lines.append(
            f"{marker}{label:<43} {span.inclusive_ms:>10.2f} {span.exclusive_ms:>10.2f} "
            f"{requests!s:>6} {_est_act(span):>14} {q_text:>7}  {notes}".rstrip()
        )
        child_prefix = prefix if is_root else prefix + ("   " if is_last else "│  ")
        for index, child in enumerate(span.children):
            visit(child, child_prefix, index == len(span.children) - 1, False)

    visit(root, "", True, True)
    lines.append("(* = on the critical path)")
    return "\n".join(lines)


def render_q_error_table(summary: dict[str, dict[str, Any]]) -> str:
    """Human-readable per-decision q-error digest."""
    if not summary:
        return "no audited estimates (tracing was off or no decisions ran)"
    from repro.harness.reporting import format_table  # local: avoids import cycle

    headers = ["decision", "count", "mean", "p50", "p95", "p99", "max", "worst endpoint"]
    rows = []
    for decision in sorted(summary):
        digest = summary[decision]
        rows.append(
            [
                decision,
                digest["count"],
                f"{digest['mean']:.2f}",
                _fmt(digest["p50"]),
                _fmt(digest["p95"]),
                _fmt(digest["p99"]),
                _fmt(digest["max"]),
                digest["worst_endpoint"],
            ]
        )
    return format_table(headers, rows)


def _fmt(value) -> str:
    return "-" if value is None else f"{value:.2f}"
