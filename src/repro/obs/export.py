"""Exporters for traces, and the registry/metrics summaries
``python -m repro explain-analyze`` prints.

* **JSONL traces** — one span per line (``id``, ``parent_id``, ``name``,
  ``t0_ms``, ``t1_ms``, ``attrs``), depth-first so a parent always
  precedes its children.  Machine-readable substrate for external
  tooling; :func:`validate_trace` checks one.
* **Chrome traces** — trace-event JSON for ``chrome://tracing`` and
  Perfetto.
* **Human-readable summaries** — the per-endpoint table and the
  compiled-plan line printed below each engine's q-error table.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, Sequence

from repro.obs.trace import Span

# ----------------------------------------------------------------- JSONL

def span_to_dict(span: Span) -> dict[str, Any]:
    return {
        "id": span.id,
        "parent_id": span.parent_id,
        "name": span.name,
        "t0_ms": round(span.t0_ms, 6),
        "t1_ms": round(span.t1_ms if span.t1_ms is not None else span.t0_ms, 6),
        "attrs": _jsonable(span.attrs),
    }


def _jsonable(value: Any) -> Any:
    """Coerce span attributes to JSON-safe values (sets, terms, etc.)."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_jsonable(item) for item in value]
        return sorted(items, key=str) if isinstance(value, (set, frozenset)) else items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_trace_jsonl(roots: Iterable[Span], path: str) -> int:
    """Write every span under ``roots`` as JSON lines; returns span count."""
    count = 0
    with open(path, "w", encoding="utf-8") as stream:
        for root in roots:
            for span in root.walk():
                stream.write(json.dumps(span_to_dict(span), sort_keys=True))
                stream.write("\n")
                count += 1
    return count


def write_trace_chrome(roots: Iterable[Span], path: str) -> int:
    """Write spans as Chrome trace-event JSON; returns event count.

    The artifact opens directly in ``chrome://tracing`` and Perfetto:
    one ``pid`` per root query, virtually-concurrent siblings fanned
    out across ``tid`` lanes (see
    :func:`repro.obs.profile.chrome_trace_events`).
    """
    from repro.obs.profile import chrome_trace_events  # local: avoids import cycle

    payload = chrome_trace_events(roots)
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, sort_keys=True)
        stream.write("\n")
    return len(payload["traceEvents"])


def load_trace_jsonl(path: str) -> list[dict[str, Any]]:
    """Parse a JSONL trace back into span dicts (raises on malformed lines)."""
    spans: list[dict[str, Any]] = []
    with open(path, encoding="utf-8") as stream:
        for line in stream:
            line = line.strip()
            if line:
                spans.append(json.loads(line))
    return spans


def validate_trace(spans: Sequence[dict[str, Any]]) -> list[str]:
    """Structural checks on exported spans; returns problem descriptions.

    A well-formed trace has unique ids, parents that exist and precede
    their children, non-negative intervals, and children contained in
    their parent's virtual interval (tolerating float rounding).
    """
    problems: list[str] = []
    seen: dict[int, dict[str, Any]] = {}
    for span in spans:
        span_id = span.get("id")
        if not isinstance(span_id, int):
            problems.append(f"span without integer id: {span!r}")
            continue
        if span_id in seen:
            problems.append(f"duplicate span id {span_id}")
        parent_id = span.get("parent_id")
        if parent_id is not None:
            parent = seen.get(parent_id)
            if parent is None:
                problems.append(f"span {span_id} references unknown/later parent {parent_id}")
            else:
                if span["t0_ms"] < parent["t0_ms"] - 1e-6:
                    problems.append(f"span {span_id} starts before parent {parent_id}")
                if span["t1_ms"] > parent["t1_ms"] + 1e-6:
                    problems.append(f"span {span_id} ends after parent {parent_id}")
        if span["t1_ms"] < span["t0_ms"] - 1e-6:
            problems.append(f"span {span_id} has negative duration")
        seen[span_id] = span
    if spans and not any(span.get("parent_id") is None for span in spans):
        problems.append("trace has no root span")
    return problems


# ------------------------------------------------------------ human view

def plan_cache_summary(registry) -> str:
    """One-line compiled-plan summary: cache hit rate, member sets built,
    time split.

    Sources the ``plan_cache_*_total`` and ``member_set*_total`` counters
    and the ``endpoint_plan_{compile,execute}_seconds`` histograms the
    federation client mirrors from endpoints.  Empty string when no
    endpoint evaluation happened (e.g. a purely cached run).
    """
    hits = int(registry.counter_value("plan_cache_hits_total"))
    misses = int(registry.counter_value("plan_cache_misses_total"))
    lookups = hits + misses
    if not lookups:
        return ""
    evictions = int(registry.counter_value("plan_cache_evictions_total"))
    member_sets = int(registry.counter_value("member_sets_built_total"))
    member_ids = int(registry.counter_value("member_set_ids_total"))
    rate = hits / lookups
    compile_stats = registry.histogram("endpoint_plan_compile_seconds")
    execute_stats = registry.histogram("endpoint_plan_execute_seconds")
    return (
        f"endpoint plans: {hits}/{lookups} cache hits ({rate:.0%}), "
        f"{misses} compiled, {evictions} evicted, "
        f"{member_sets} member sets built ({member_ids} ids); "
        f"compile {compile_stats.sum * 1e3:.2f} ms, "
        f"execute {execute_stats.sum * 1e3:.2f} ms wall"
    )


def endpoint_summary_table(metrics) -> str:
    """Per-endpoint request/row/byte/busy-time table for one query."""
    from repro.harness.reporting import format_table  # local: avoids import cycle
    from repro.net.metrics import REQUEST_KINDS

    summary = metrics.endpoint_summary()
    headers = ["endpoint", *REQUEST_KINDS, "cached", "rows", "bytes", "busy_ms"]
    rows = []
    for endpoint in sorted(summary):
        stats = summary[endpoint]
        rows.append(
            [
                endpoint,
                *[stats["by_kind"].get(kind, 0) for kind in REQUEST_KINDS],
                stats["cached"],
                stats["rows"],
                stats["bytes"],
                f"{stats['busy_ms']:.2f}",
            ]
        )
    return format_table(headers, rows)
