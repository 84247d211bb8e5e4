"""Experiment harness: per-figure experiment functions, runner, reporting."""

from repro.harness.chaos import (
    BASELINE_PROFILE,
    ChaosReport,
    ChaosRun,
    resolve_profiles,
    run_chaos,
)
from repro.harness.profiling import (
    ProfiledRun,
    profile_query,
    reports_to_json,
)
from repro.harness.reporting import (
    format_table,
    results_by_query,
    speedup_summary,
)
from repro.harness.runner import (
    DEFAULT_TIMEOUT_MS,
    ENGINE_ORDER,
    RunResult,
    make_engines,
    run_matrix,
    run_query,
)
from repro.harness.traffic import TrafficConfig, generate_arrivals

__all__ = [
    "BASELINE_PROFILE",
    "ChaosReport",
    "ChaosRun",
    "DEFAULT_TIMEOUT_MS",
    "ENGINE_ORDER",
    "ProfiledRun",
    "RunResult",
    "TrafficConfig",
    "generate_arrivals",
    "format_table",
    "profile_query",
    "reports_to_json",
    "resolve_profiles",
    "run_chaos",
    "make_engines",
    "results_by_query",
    "run_matrix",
    "run_query",
    "speedup_summary",
]
