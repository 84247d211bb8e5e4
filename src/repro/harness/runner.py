"""Experiment runner: execute queries across engines and collect metrics.

Follows the paper's measurement protocol (Sec VI-B): every engine is
allowed to cache source-selection (and check/COUNT) results, each query
is executed once to warm the caches and then measured over ``repeats``
runs whose virtual times are averaged.  Failures are recorded as the
paper plots them: ``TIMEOUT``, ``OOM`` (runtime error), and so on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro.baselines.anapsid import AnapsidEngine
from repro.baselines.fedx import FedXEngine
from repro.baselines.hibiscus import HibiscusEngine
from repro.baselines.splendid import SplendidEngine
from repro.core.engine import LusailConfig, LusailEngine
from repro.endpoint.federation import Federation
from repro.net.simulator import NetworkConfig
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.planning.base_engine import ExecutionOutcome, FederatedEngine

#: Default virtual-time budget per query.  The paper uses one hour
#: against second-scale good runs (ratio ~3600x); we use 60 virtual
#: seconds against the simulator's millisecond-scale good runs.
DEFAULT_TIMEOUT_MS = 60_000.0

ENGINE_ORDER = ("Lusail", "FedX", "HiBISCuS", "SPLENDID")


def make_engines(
    federation: Federation,
    network_config: NetworkConfig | None = None,
    which: Sequence[str] = ENGINE_ORDER,
    timeout_ms: float = DEFAULT_TIMEOUT_MS,
    lusail_config: LusailConfig | None = None,
    tracer: Tracer | None = None,
    registry: MetricsRegistry | None = None,
    fault_plan=None,
    resilience=None,
) -> dict[str, FederatedEngine]:
    """Instantiate the requested engines against one federation.

    ``tracer``/``registry`` override the process-wide observability
    sinks for every created engine (profiling runs pass fresh,
    isolated instances here).  ``fault_plan``/``resilience`` attach a
    chaos fault plan and a client recovery policy (see
    :mod:`repro.faults`) to every created engine.
    """
    factories: dict[str, Callable[[], FederatedEngine]] = {
        "Lusail": lambda: LusailEngine(
            federation,
            config=lusail_config,
            network_config=network_config,
            timeout_ms=timeout_ms,
        ),
        "FedX": lambda: FedXEngine(
            federation, network_config=network_config, timeout_ms=timeout_ms
        ),
        "HiBISCuS": lambda: HibiscusEngine(
            federation, network_config=network_config, timeout_ms=timeout_ms
        ),
        "SPLENDID": lambda: SplendidEngine(
            federation, network_config=network_config, timeout_ms=timeout_ms
        ),
        # Library-only: never in ENGINE_ORDER, built when asked for by name.
        "ANAPSID": lambda: AnapsidEngine(
            federation, network_config=network_config, timeout_ms=timeout_ms
        ),
    }
    engines = {name: factories[name]() for name in which}
    for engine in engines.values():
        if tracer is not None:
            engine.tracer = tracer
        if registry is not None:
            engine.registry = registry
        if fault_plan is not None:
            engine.fault_plan = fault_plan
        if resilience is not None:
            engine.resilience = resilience
    return engines


@dataclass
class RunResult:
    """One (engine, query) measurement."""

    engine: str
    query: str
    status: str
    virtual_ms: float
    wall_ms: float
    requests: int
    rows_shipped: int
    result_rows: int
    phase_ms: dict[str, float] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def to_dict(self) -> dict:
        """JSON-ready form (``repro bench --json``)."""
        return {
            "engine": self.engine,
            "query": self.query,
            "status": self.status,
            "virtual_ms": round(self.virtual_ms, 6),
            "wall_ms": round(self.wall_ms, 6),
            "requests": self.requests,
            "rows_shipped": self.rows_shipped,
            "result_rows": self.result_rows,
            "phase_ms": {k: round(v, 6) for k, v in self.phase_ms.items()},
        }

    def display_time(self) -> str:
        if self.status == "timeout":
            return "TIMEOUT"
        if self.status == "oom":
            return "OOM"
        if self.status != "ok":
            return self.status.upper()
        return f"{self.virtual_ms:.1f}"


def run_query(
    engine: FederatedEngine,
    query_name: str,
    query_text: str,
    repeats: int = 1,
    warm: bool = True,
) -> RunResult:
    """Execute one query per the paper's protocol; averages virtual time."""
    outcomes: list[ExecutionOutcome] = []
    if warm:
        first = engine.execute(query_text)
        if not first.ok:
            # A failing query fails identically on repeats; report it.
            return _to_result(engine.name, query_name, first)
        outcomes.append(first)
        measured = [engine.execute(query_text) for __ in range(repeats)]
    else:
        measured = [engine.execute(query_text) for __ in range(repeats)]
    for outcome in measured:
        if not outcome.ok:
            return _to_result(engine.name, query_name, outcome)
    reference = measured[-1]
    virtual = sum(outcome.metrics.virtual_ms for outcome in measured) / len(measured)
    wall = sum(outcome.metrics.wall_ms for outcome in measured) / len(measured)
    return RunResult(
        engine=engine.name,
        query=query_name,
        status="ok",
        virtual_ms=virtual,
        wall_ms=wall,
        requests=reference.metrics.request_count(),
        rows_shipped=reference.metrics.rows_shipped(),
        result_rows=len(reference.result),
        phase_ms=dict(reference.metrics.phase_ms),
    )


def _to_result(engine_name: str, query_name: str, outcome: ExecutionOutcome) -> RunResult:
    return RunResult(
        engine=engine_name,
        query=query_name,
        status=outcome.status,
        virtual_ms=outcome.metrics.virtual_ms,
        wall_ms=outcome.metrics.wall_ms,
        requests=outcome.metrics.request_count(),
        rows_shipped=outcome.metrics.rows_shipped(),
        result_rows=len(outcome.result),
        phase_ms=dict(outcome.metrics.phase_ms),
    )


def run_matrix(
    engines: dict[str, FederatedEngine],
    queries: dict[str, str],
    repeats: int = 1,
) -> list[RunResult]:
    """Run every engine on every query (engines outer, queries inner)."""
    results: list[RunResult] = []
    for engine_name in engines:
        engine = engines[engine_name]
        for query_name, query_text in queries.items():
            results.append(run_query(engine, query_name, query_text, repeats=repeats))
    return results
