"""EXPLAIN ANALYZE harness: traced runs that produce ProfileReports.

Each profiled run gets a **fresh** tracer and metrics registry so the
per-decision q-error series and the span tree describe exactly one
(engine, query) execution — no cross-query bleed-through.  The engine is
also constructed fresh (cold caches), which keeps the reports
deterministic: the same federation seed yields byte-identical report
JSON, the property the exact-counter gate in ``tests/test_profile.py``
relies on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.endpoint.federation import Federation
from repro.harness.runner import DEFAULT_TIMEOUT_MS, ENGINE_ORDER, make_engines
from repro.net.simulator import NetworkConfig
from repro.obs.profile import ProfileReport, build_profile_report
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Span, Tracer
from repro.planning.base_engine import ExecutionOutcome


@dataclass
class ProfiledRun:
    """One traced execution plus its post-hoc analysis artifacts."""

    report: ProfileReport
    root: Span | None
    outcome: ExecutionOutcome
    registry: MetricsRegistry


def profile_query(
    engine_name: str,
    federation: Federation,
    query_name: str,
    query_text: str,
    network_config: NetworkConfig | None = None,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    lusail_config=None,
) -> ProfiledRun:
    """Run one query traced on a fresh engine and build its report."""
    tracer = Tracer(enabled=True)
    registry = MetricsRegistry()
    engines = make_engines(
        federation,
        network_config=network_config,
        which=(engine_name,),
        timeout_ms=timeout_ms,
        lusail_config=lusail_config,
        tracer=tracer,
        registry=registry,
    )
    engine = engines[engine_name]
    outcome = engine.execute(query_text)
    root = tracer.roots[-1] if tracer.roots else None
    report = build_profile_report(
        engine.name,
        query_name,
        outcome.status,
        root,
        registry,
        metrics=outcome.metrics,
        result_rows=len(outcome.result),
        audit=outcome.audit,
    )
    return ProfiledRun(report=report, root=root, outcome=outcome, registry=registry)


def profile_workload(
    federation: Federation,
    queries: dict[str, str],
    which: Sequence[str] = ENGINE_ORDER,
    network_config: NetworkConfig | None = None,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    lusail_config=None,
) -> list[ProfileReport]:
    """Profile every (engine, query) pair; engines outer, queries inner."""
    reports: list[ProfileReport] = []
    for engine_name in which:
        for query_name, query_text in queries.items():
            run = profile_query(
                engine_name,
                federation,
                query_name,
                query_text,
                network_config=network_config,
                timeout_ms=timeout_ms,
                lusail_config=lusail_config,
            )
            reports.append(run.report)
    return reports


def reports_to_json(reports: Sequence[ProfileReport]) -> dict:
    return {"reports": [report.to_dict() for report in reports]}
