"""Common machinery for federated query engines.

Lusail and the three baselines share: query parsing/normalization, the
per-query :class:`FederationClient` setup, result finalization (project /
DISTINCT / ORDER BY / LIMIT), and uniform failure handling (virtual
timeouts and mediator memory limits become ``ExecutionOutcome`` statuses,
mirroring the TIMEOUT / OOM / runtime-error annotations in the paper's
plots).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.endpoint.cache import EngineCaches
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.exceptions import (
    FederationError,
    MemoryLimitError,
    NetworkError,
    QueryTimeoutError,
    UnsupportedQueryError,
)
from repro.net.metrics import QueryMetrics
from repro.net.simulator import NetworkConfig, local_cluster_config
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.planning.normalize import Branch, NormalizedQuery, normalize
from repro.planning.source_selection import SourceSelection, select_sources
from repro.relational.kernels import KernelCounters, kernel_runtime
from repro.relational.relation import Relation
from repro.rdf.terms import typed_literal
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import SelectQuery
from repro.sparql.result import SelectResult
from repro.sparql.parser import parse_query

#: The paper's per-query timeout (one hour) in virtual milliseconds.
DEFAULT_TIMEOUT_MS = 3_600_000.0


@dataclass
class ExecutionOutcome:
    """Everything a single federated query execution produced."""

    result: SelectResult
    metrics: QueryMetrics
    status: str = "ok"  # ok | timeout | oom | error | unsupported
    error: str | None = None
    #: What the engine planned, as far as it got before any failure
    #: (Lusail: a ``QueryPlanInfo``; the baselines expose none).
    plan: object | None = None
    #: The execution's estimate audit (``NULL_AUDIT`` when tracing is
    #: off); profiling embeds its raw records in ProfileReports.
    audit: object | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def complete(self) -> bool:
        """False when partial-results mode dropped any endpoint."""
        return self.metrics.complete

    def __repr__(self) -> str:
        return (
            f"ExecutionOutcome(status={self.status!r}, rows={len(self.result)}, "
            f"virtual_ms={self.metrics.virtual_ms:.1f}, requests={self.metrics.request_count()})"
        )


@dataclass
class EngineStats:
    """Cross-query bookkeeping (preprocessing, cache sizes)."""

    preprocessing_ms: float = 0.0
    queries_executed: int = 0


def guard_rows(client: FederationClient, rows: int, limit: int | None) -> None:
    """``max_mediator_rows`` for a relation no kernel streamed (a shipped
    result, a concatenation): past the limit the query ends ``oom``."""
    if limit is not None and rows > limit:
        client.metrics.status = "oom"
        raise MemoryLimitError(
            f"mediator intermediate results exceeded {limit} rows", rows=rows
        )


@contextmanager
def mediator_runtime(client: FederationClient, max_rows: int | None):
    """Install the columnar kernel runtime for one query or branch.

    Joins/unions stream ``max_rows`` inside the kernels (aborting
    mid-join with :class:`MemoryLimitError`, status ``oom``) and the
    kernel work counters, which the block receives, are flushed to the
    client's metrics registry under its engine's label when the block
    ends — whether it succeeded, overflowed or failed.
    """
    counters = KernelCounters()
    try:
        with kernel_runtime(max_rows=max_rows, counters=counters, metrics=client.metrics):
            yield counters
    finally:
        for name, value in counters.items():
            if value:
                client.registry.inc(name, value, engine=client.engine)


def parse_select(query: SelectQuery | str) -> SelectQuery:
    """The SELECT an engine plans: text is parsed, anything else refused."""
    if isinstance(query, str):
        query = parse_query(query)
    if not isinstance(query, SelectQuery):
        raise UnsupportedQueryError(
            f"federated engines execute SELECT queries, not {type(query).__name__}"
        )
    return query


class FederatedEngine:
    """Base class: subclasses implement :meth:`_execute_branch` and set
    ``config`` (any object with a ``max_mediator_rows`` field)."""

    name = "abstract"
    #: Index-based engines (SPLENDID, HiBISCuS) pay a preprocessing pass.
    requires_preprocessing = False
    #: ``index=`` attribute of the ``source_selection`` span for engines
    #: that read a precomputed index instead of probing.
    source_index: str | None = None

    def __init__(
        self,
        federation: Federation,
        network_config: NetworkConfig | None = None,
        caches: EngineCaches | None = None,
        timeout_ms: float | None = DEFAULT_TIMEOUT_MS,
    ):
        self.federation = federation
        self.network_config = network_config or local_cluster_config()
        self.caches = caches if caches is not None else EngineCaches()
        self.timeout_ms = timeout_ms
        self.stats = EngineStats()
        #: Observability sinks: the engine's own disabled tracer and
        #: registry, assignable after construction (a traced run sets an
        #: enabled tracer; a server or the ledger shares one registry).
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        #: Fault injection / resilience (see repro.faults).  Both are
        #: assignable after construction, like the observability sinks,
        #: and None by default: the engine then behaves bit-identically
        #: to the fault-free simulator.
        self.fault_plan = None
        self.resilience = None
        #: Client construction seam.  ``None`` builds a plain
        #: :class:`FederationClient`; the serving layer installs a
        #: factory that returns a lane-sharing client instead.  The
        #: factory receives the same keyword arguments the default
        #: construction uses.
        self.client_factory = None

    # ------------------------------------------------------------- public

    def build_client(self, metrics: QueryMetrics | None = None) -> FederationClient:
        """The per-execution :class:`FederationClient` for this engine.

        Goes through :attr:`client_factory` when one is installed so the
        serving layer can substitute a client whose virtual network
        shares lanes with other in-flight queries.
        """
        factory = self.client_factory or FederationClient
        return factory(
            federation=self.federation,
            config=self.network_config,
            caches=self.caches,
            timeout_ms=self.timeout_ms,
            metrics=metrics if metrics is not None else QueryMetrics(),
            tracer=self.tracer,
            registry=self.registry,
            engine=self.name,
            fault_plan=self.fault_plan,
            resilience=self.resilience,
        )

    def execute(self, query: SelectQuery | str, raise_on_failure: bool = False) -> ExecutionOutcome:
        """Run one federated query; failures become outcome statuses."""
        query = parse_select(query)
        metrics = QueryMetrics()
        client = self.build_client(metrics)
        plan = self._new_plan()
        wall_start = time.perf_counter()
        with self.tracer.span("query", t0=0.0, engine=self.name) as root:
            try:
                normalized = normalize(query)
                relation, end_ms = self._execute_normalized(client, normalized, plan)
                result = self._finalize(relation, normalized)
                metrics.virtual_ms = end_ms
                metrics.result_rows = len(result)
                outcome = ExecutionOutcome(result=result, metrics=metrics)
            except QueryTimeoutError as exc:
                metrics.virtual_ms = exc.elapsed_ms
                outcome = ExecutionOutcome(
                    result=SelectResult((), []), metrics=metrics, status="timeout", error=str(exc)
                )
            except MemoryLimitError as exc:
                outcome = ExecutionOutcome(
                    result=SelectResult((), []), metrics=metrics, status="oom", error=str(exc)
                )
            except UnsupportedQueryError as exc:
                outcome = ExecutionOutcome(
                    result=SelectResult((), []),
                    metrics=metrics,
                    status="unsupported",
                    error=str(exc),
                )
            except (FederationError, NetworkError) as exc:
                outcome = ExecutionOutcome(
                    result=SelectResult((), []), metrics=metrics, status="error", error=str(exc)
                )
            outcome.plan, outcome.audit = plan, client.audit
            root.set(
                status=outcome.status,
                result_rows=len(outcome.result),
                requests=metrics.request_count(),
                rows=metrics.rows_shipped(),
            ).end(metrics.virtual_ms)
        metrics.wall_ms = (time.perf_counter() - wall_start) * 1000.0
        self.registry.inc("queries_total", engine=self.name, status=outcome.status)
        self.stats.queries_executed += 1
        if raise_on_failure and not outcome.ok:
            raise FederationError(f"{self.name} failed ({outcome.status}): {outcome.error}")
        return outcome

    # ----------------------------------------------------------- template

    def _new_plan(self) -> object | None:
        """The value one execution's branches record their plans on and
        ``ExecutionOutcome.plan`` carries; None for engines exposing none."""
        return None

    def _execute_normalized(
        self, client: FederationClient, normalized: NormalizedQuery, plan: object | None
    ) -> tuple[Relation, float]:
        """Produce the (pre-modifier) relation and the virtual end time.

        UNION branches execute concurrently from virtual time zero: the
        query ends with its slowest branch, and the phase profile is the
        per-phase maximum across branches, not the sum.
        """
        union_relation: Relation | None = None
        end_ms = 0.0
        phase_maxima: dict[str, float] = {}
        # An engine may install its own kernel runtime inside a branch;
        # this outer one covers the cross-branch UNIONs with the same limit.
        with mediator_runtime(client, self.config.max_mediator_rows):
            for branch in normalized.branches:
                relation, branch_end, phases = self._execute_branch(
                    client, branch, normalized, plan
                )
                end_ms = max(end_ms, branch_end)
                for phase, duration in phases.items():
                    phase_maxima[phase] = max(phase_maxima.get(phase, 0.0), duration)
                union_relation = relation if union_relation is None else union_relation.union(relation)
        assert union_relation is not None  # normalize() guarantees >= 1 branch
        client.metrics.phase_ms = phase_maxima
        return union_relation, end_ms

    def _execute_branch(
        self,
        client: FederationClient,
        branch: Branch,
        normalized: NormalizedQuery,
        plan: object | None,
    ) -> tuple[Relation, float, dict[str, float]]:
        """One conjunctive branch: its relation, end time and phase
        durations; ``plan`` is this execution's :meth:`_new_plan` value."""
        raise NotImplementedError

    def _select_sources(
        self, client: FederationClient, patterns: list[TriplePattern], at_ms: float
    ) -> tuple[SourceSelection, float]:
        """Relevant endpoints per pattern; index-free ASK probes by default."""
        return select_sources(client, patterns, at_ms)

    def _select_branch_sources(
        self, client: FederationClient, branch: Branch
    ) -> tuple[SourceSelection | None, float]:
        """Source selection for one branch, under its span, from virtual
        time zero.  The selection is None when some required pattern has
        no source anywhere: the branch's answer is empty."""
        patterns = list(branch.all_patterns())
        mark = client.metrics.mark()
        index_attr = {"index": self.source_index} if self.source_index else {}
        with client.tracer.span("source_selection", t0=0.0, **index_attr) as span:
            selection, now = self._select_sources(client, patterns, 0.0)
            span.set(
                patterns=len(patterns),
                requests=client.metrics.requests_since(mark),
            ).end(now)
        if any(not selection.relevant(pattern) for pattern in branch.patterns):
            return None, now
        return selection, now

    def _guard_rows(self, client: FederationClient, relation: Relation) -> None:
        guard_rows(client, len(relation), self.config.max_mediator_rows)

    # --------------------------------------------------------- finalizing

    def _finalize(self, relation: Relation, normalized: NormalizedQuery) -> SelectResult:
        """Solution modifiers in SPARQL's order: ORDER BY on the whole
        solution, then projection, DISTINCT, OFFSET / LIMIT — or the
        COUNT tail, one row, as an endpoint plan computes it, under the
        same OFFSET / LIMIT.  Only the window that is returned is ever
        decoded into term rows."""
        offset, limit = normalized.offset, normalized.limit
        window = slice(offset, None if limit is None else offset + limit)
        aggregate = normalized.aggregate
        if aggregate is not None:
            count = relation.count(aggregate.variable, aggregate.distinct)
            return SelectResult((aggregate.alias,), [(typed_literal(count),)][window])
        if normalized.order_by:
            relation = relation.order_by(normalized.order_by)
        projected = normalized.projected_variables()
        relation = relation.project(projected)
        if normalized.distinct:
            relation = relation.distinct()
        rows = relation.rows
        return SelectResult.owning(
            projected, rows[window] if offset or limit is not None else rows.term_rows()
        )
