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
    profile_workload,
    reports_to_json,
)
from repro.harness.reporting import (
    format_table,
    print_banner,
    results_by_query,
    results_to_json,
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
from repro.harness.traffic import (
    TrafficConfig,
    TrafficReport,
    generate_arrivals,
    run_traffic,
    workload_queries,
)

__all__ = [
    "BASELINE_PROFILE",
    "ChaosReport",
    "ChaosRun",
    "DEFAULT_TIMEOUT_MS",
    "ENGINE_ORDER",
    "ProfiledRun",
    "RunResult",
    "TrafficConfig",
    "TrafficReport",
    "generate_arrivals",
    "format_table",
    "profile_query",
    "profile_workload",
    "reports_to_json",
    "resolve_profiles",
    "run_chaos",
    "make_engines",
    "print_banner",
    "results_by_query",
    "results_to_json",
    "run_matrix",
    "run_query",
    "run_traffic",
    "speedup_summary",
    "workload_queries",
]
