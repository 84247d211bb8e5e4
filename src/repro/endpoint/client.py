"""The mediator's view of the federation.

:class:`FederationClient` is the single gateway every engine (Lusail and
the baselines) uses for remote requests.  It combines:

* the actual endpoint evaluation (the work the remote server would do),
* virtual-time accounting through :class:`~repro.net.VirtualNetwork`,
* ASK / check / COUNT caching,
* the query timeout (the paper's one-hour limit, scaled),
* resilience against injected faults (see :mod:`repro.faults`): optional
  per-request timeouts, retry with exponential backoff + deterministic
  jitter, and a per-endpoint circuit breaker — all off by default.

All methods take and return virtual timestamps explicitly: sequential
code chains them, parallel fan-out feeds the same ``at`` to many calls
and takes the max of the completions.  A fresh client is built per query
execution; caches persist across clients via :class:`EngineCaches`.

Requests carry term-level queries; SELECT responses come back encoded —
id columns in the endpoint's own id space plus a reference to its
dictionary (:class:`~repro.sparql.result.SelectResult`).  The client
never decodes them: it charges the response as the *text* a SPARQL
result document would hold, summed from the per-id text lengths cached
beside the dictionary, and hands the result on for the mediator's
relational layer to translate into its shared codec.
"""

from __future__ import annotations

from itertools import chain

from repro.endpoint.cache import EngineCaches, MISSING
from repro.endpoint.federation import Federation
from repro.exceptions import (
    InjectedFaultError,
    NetworkError,
    QueryTimeoutError,
    RequestTimeoutError,
)
from repro.faults.resilience import CircuitBreaker, ResiliencePolicy
from repro.net import metrics as metrics_module
from repro.net.metrics import QueryMetrics
from repro.net.simulator import NetworkConfig, VirtualNetwork
from repro.obs.audit import make_audit
from repro.obs.registry import MetricsRegistry, get_default_registry
from repro.obs.trace import Tracer, get_default_tracer
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import SelectQuery
from repro.sparql.result import SelectResult
from repro.sparql.partial import PartialResult, PartialSpec
from repro.sparql.serializer import query_bytes
from repro.store.dictionary import text_length
from repro.store.digests import digest_bytes

#: Fixed per-term serialization overhead (tags, quoting) used by the
#: payload size estimate.
_TERM_OVERHEAD_BYTES = 18


def _payload_bytes(result: SelectResult) -> int:
    """Approximate serialized size of a SELECT result.

    Counts the value text of every bound term plus a fixed XML/JSON
    framing overhead — enough fidelity for the big-literal experiments
    where payload volume, not row count, dominates transfer time.  An
    encoded result is sized from its dictionary's per-id text lengths,
    a column at a time.
    """
    if result.columns is None:
        # Term rows: a digest-pruned fragment.
        bound = [term for term in chain.from_iterable(result.rows) if term is not None]
        return sum(map(text_length, bound)) + _TERM_OVERHEAD_BYTES * len(bound)
    length_of = result.dictionary.text_lengths().__getitem__
    total = cells = 0
    for column in result.columns:
        if None in column:
            column = [term_id for term_id in column if term_id is not None]
        total += sum(map(length_of, column))
        cells += len(column)
    return total + _TERM_OVERHEAD_BYTES * cells


class FederationClient:
    """Per-query remote access handle with metrics, caching and timeout."""

    def __init__(
        self,
        federation: Federation,
        config: NetworkConfig,
        caches: EngineCaches | None = None,
        timeout_ms: float | None = None,
        metrics: QueryMetrics | None = None,
        tracer: Tracer | None = None,
        registry: MetricsRegistry | None = None,
        engine: str = "",
        fault_plan=None,
        resilience: ResiliencePolicy | None = None,
    ):
        self.federation = federation
        self.config = config
        self.caches = caches if caches is not None else EngineCaches()
        self.timeout_ms = timeout_ms
        self.metrics = metrics if metrics is not None else QueryMetrics()
        self.tracer = tracer if tracer is not None else get_default_tracer()
        self.registry = registry if registry is not None else get_default_registry()
        self.engine = engine
        #: Estimate-vs-actual audit (see :mod:`repro.obs.audit`).  Rides
        #: on tracing: a real collector only when the tracer is enabled,
        #: the shared no-op otherwise — so EXPLAIN ANALYZE costs nothing
        #: when observability is off.
        self.audit = make_audit(self.registry, engine, self.tracer.enabled)
        # Imported here: repro.planning's package init imports this module.
        from repro.planning.stats import CharsetStatisticsProvider

        #: The planner's metadata answers (see :mod:`repro.planning.stats`):
        #: characteristic-set summaries first, and the remote ASK / check /
        #: COUNT probe wherever a summary cannot prove the answer.
        self.stats = CharsetStatisticsProvider(self)
        self.resilience = resilience
        #: Per-endpoint circuit breakers (virtual time resets per query,
        #: so breaker state is per-client by construction).
        self.breakers: dict[str, CircuitBreaker] = {}
        self._retry_rng = resilience.rng(engine) if resilience is not None else None
        injector = fault_plan.injector() if fault_plan is not None else None
        self.network = VirtualNetwork(
            config,
            self.metrics,
            registry=self.registry,
            engine=engine,
            injector=injector,
        )

    # ------------------------------------------------------------ helpers

    def _breaker_for(self, endpoint_name: str) -> CircuitBreaker | None:
        policy = self.resilience
        if policy is None or not policy.breaker_enabled:
            return None
        breaker = self.breakers.get(endpoint_name)
        if breaker is None:
            breaker = self.breakers[endpoint_name] = CircuitBreaker(
                endpoint_name,
                failure_threshold=policy.breaker_failure_threshold,
                recovery_ms=policy.breaker_recovery_ms,
            )
        return breaker

    def _note_transition(self, endpoint_name: str, transition: str | None) -> None:
        if transition:
            self.registry.inc(
                "breaker_transitions_total",
                engine=self.engine,
                endpoint=endpoint_name,
                transition=transition,
            )

    def _issue(
        self,
        endpoint_name: str,
        kind: str,
        at_ms: float,
        result_rows: int,
        request_bytes: int,
        cached: bool,
        response_bytes: int | None = None,
    ) -> float:
        endpoint = self.federation.get(endpoint_name)
        if not endpoint.available:
            self.metrics.status = "error"
            raise NetworkError(
                f"endpoint {endpoint_name} is unavailable",
                endpoint=endpoint_name,
                at_ms=at_ms,
            )
        policy = self.resilience
        breaker = None if cached else self._breaker_for(endpoint_name)
        request_timeout = policy.request_timeout_ms if policy is not None else None
        attempt = 0
        now = at_ms
        while True:
            if breaker is not None:
                self._note_transition(endpoint_name, breaker.before_request(now))
            try:
                end = self.network.request(
                    endpoint_name=endpoint_name,
                    endpoint_region=endpoint.region,
                    kind=kind,
                    ready_at_ms=now,
                    result_rows=result_rows,
                    request_bytes=request_bytes,
                    response_bytes=response_bytes,
                    cached=cached,
                    timeout_ms=request_timeout,
                )
            except (InjectedFaultError, RequestTimeoutError) as exc:
                failed_at = exc.at_ms if exc.at_ms is not None else now
                if breaker is not None:
                    self._note_transition(
                        endpoint_name, breaker.record_failure(failed_at)
                    )
                if policy is None or attempt >= policy.max_retries:
                    raise
                attempt += 1
                delay = policy.backoff_ms(attempt, self._retry_rng)
                self.metrics.retries += 1
                self.registry.inc(
                    "request_retries_total",
                    engine=self.engine,
                    endpoint=endpoint_name,
                    kind=kind,
                )
                now = failed_at + delay
                continue
            if breaker is not None:
                self._note_transition(endpoint_name, breaker.record_success(end))
            if self.timeout_ms is not None and end > self.timeout_ms:
                self.metrics.status = "timeout"
                raise QueryTimeoutError(
                    f"virtual time budget exceeded at endpoint {endpoint_name}",
                    elapsed_ms=end,
                    endpoint=endpoint_name,
                )
            if not cached and kind in metrics_module.METADATA_KINDS:
                self.registry.inc(
                    "metadata_requests_total", engine=self.engine, kind=kind
                )
            return end

    def _count_cache(self, kind: str, hit: bool) -> None:
        """Mirror ProbeCache hit/miss counts into the metrics registry."""
        self.registry.inc(
            "probe_cache_hits_total" if hit else "probe_cache_misses_total",
            engine=self.engine,
            kind=kind,
        )

    def _evaluate_with_plan_metrics(self, endpoint, kind, run):
        """Run one endpoint evaluation, mirroring plan-cache activity.

        The endpoint keeps cumulative plan-cache counters and a
        compile/execute wall-clock split (:meth:`Endpoint.plan_stats`);
        diffing snapshots around the call attributes exactly this
        request's share to the registry.  ``kind`` labels the counters
        with the request kind, separating the bound-join hot path (where
        skeletons repeat and hits are expected) from one-shot check /
        COUNT probes (client-cached, so each skeleton compiles once).
        """
        before = endpoint.plan_stats()
        result = run()
        after = endpoint.plan_stats()
        registry = self.registry
        engine = self.engine
        hits = after[0] - before[0]
        misses = after[1] - before[1]
        evictions = after[2] - before[2]
        if hits:
            registry.inc(
                "plan_cache_hits_total", hits,
                engine=engine, endpoint=endpoint.name, kind=kind,
            )
        if misses:
            registry.inc(
                "plan_cache_misses_total", misses,
                engine=engine, endpoint=endpoint.name, kind=kind,
            )
        if evictions:
            registry.inc(
                "plan_cache_evictions_total", evictions,
                engine=engine, endpoint=endpoint.name, kind=kind,
            )
        compile_s = after[3] - before[3]
        if compile_s > 0.0:
            registry.observe("endpoint_plan_compile_seconds", compile_s, engine=engine)
        execute_s = after[4] - before[4]
        if execute_s > 0.0:
            registry.observe("endpoint_plan_execute_seconds", execute_s, engine=engine)
        return result

    # ------------------------------------------------------------- probes

    def ask(self, endpoint_name: str, pattern: TriplePattern, at_ms: float) -> tuple[bool, float]:
        """Source-selection ASK for one triple pattern."""
        key = (endpoint_name, pattern)
        hit = self.caches.ask.get(key)
        if self.caches.ask.enabled:
            self._count_cache("ask", hit is not MISSING)
        if hit is not MISSING:
            end = self._issue(endpoint_name, metrics_module.ASK, at_ms, 0, 0, cached=True)
            return bool(hit), end
        endpoint = self.federation.get(endpoint_name)
        answer = endpoint.ask_pattern(pattern)
        end = self._issue(endpoint_name, metrics_module.ASK, at_ms, 1, 80, cached=False)
        self.caches.ask.put(key, answer)
        return answer, end

    def check(self, endpoint_name: str, query: SelectQuery, at_ms: float) -> tuple[bool, float]:
        """Lusail locality check query; True iff it returned any row.

        Check queries carry ``LIMIT 1``, so at most one row is shipped.
        """
        key = (endpoint_name, query)
        hit = self.caches.check.get(key)
        if self.caches.check.enabled:
            self._count_cache("check", hit is not MISSING)
        if hit is not MISSING:
            end = self._issue(endpoint_name, metrics_module.CHECK, at_ms, 0, 0, cached=True)
            return bool(hit), end
        endpoint = self.federation.get(endpoint_name)
        result = self._evaluate_with_plan_metrics(
            endpoint, metrics_module.CHECK, lambda: endpoint.select(query)
        )
        non_empty = len(result) > 0
        end = self._issue(
            endpoint_name,
            metrics_module.CHECK,
            at_ms,
            len(result),
            query_bytes(query),
            cached=False,
        )
        self.caches.check.put(key, non_empty)
        return non_empty, end

    def count(self, endpoint_name: str, query: SelectQuery, at_ms: float) -> tuple[int, float]:
        """SAPE per-triple-pattern COUNT statistics query."""
        key = (endpoint_name, query)
        hit = self.caches.count.get(key)
        if self.caches.count.enabled:
            self._count_cache("count", hit is not MISSING)
        if hit is not MISSING:
            end = self._issue(endpoint_name, metrics_module.COUNT, at_ms, 0, 0, cached=True)
            return int(hit), end  # type: ignore[arg-type]
        endpoint = self.federation.get(endpoint_name)
        result = self._evaluate_with_plan_metrics(
            endpoint, metrics_module.COUNT, lambda: endpoint.select(query)
        )
        row = result.rows[0]
        value = row[0]
        count = int(value.value) if value is not None else 0  # type: ignore[union-attr]
        end = self._issue(
            endpoint_name, metrics_module.COUNT, at_ms, 1, query_bytes(query), cached=False
        )
        self.caches.count.put(key, count)
        return count, end

    def stats_summary(self, endpoint_name: str, at_ms: float):
        """Fetch one endpoint's characteristic-set summary.

        Cached in :attr:`EngineCaches.stats` across queries; each use
        validates the cached copy against the endpoint's current
        ``store.version`` (the simulator's stand-in for an ETag'd HEAD
        request), so a stale summary is re-fetched, never served.  The
        fetch itself is a virtual ``stats`` request whose payload is the
        summary's serialized size estimate.
        """
        endpoint = self.federation.get(endpoint_name)
        version = endpoint.store.version
        hit = self.caches.stats.get(endpoint_name)
        fresh = hit is not MISSING and hit.version == version
        if self.caches.stats.enabled:
            self._count_cache("stats", fresh)
        if fresh:
            end = self._issue(endpoint_name, metrics_module.STATS, at_ms, 0, 0, cached=True)
            return hit, end
        summary = endpoint.charset_summary()
        end = self._issue(
            endpoint_name,
            metrics_module.STATS,
            at_ms,
            len(summary.sets) + len(summary.predicates),
            64,
            cached=False,
            response_bytes=summary.approx_bytes(),
        )
        self.caches.stats.put(endpoint_name, summary)
        return summary, end

    def join_digest(
        self, endpoint_name: str, predicate, position: str, at_ms: float
    ) -> tuple[frozenset[int], float]:
        """Fetch one endpoint's join-value digest for a predicate end.

        Digests (:mod:`repro.store.digests`) are planner metadata like
        the charset summaries: fetched as a ``stats`` request, cached in
        :attr:`EngineCaches.digest` across queries, and validated
        against the endpoint's ``store.version`` on every use — so the
        partial path pays for each digest once per federation state, not
        once per query.
        """
        endpoint = self.federation.get(endpoint_name)
        version = endpoint.store.version
        key = (endpoint_name, predicate, position)
        hit = self.caches.digest.get(key)
        fresh = hit is not MISSING and hit[0] == version
        if self.caches.digest.enabled:
            self._count_cache("digest", fresh)
        if fresh:
            end = self._issue(endpoint_name, metrics_module.STATS, at_ms, 0, 0, cached=True)
            return hit[1], end
        digest = endpoint.join_digest(predicate, position)
        end = self._issue(
            endpoint_name,
            metrics_module.STATS,
            at_ms,
            0,
            72,
            cached=False,
            response_bytes=digest_bytes(digest),
        )
        self.caches.digest.put(key, (version, digest))
        return digest, end

    # ----------------------------------------------------------- retrieval

    def select(
        self,
        endpoint_name: str,
        query: SelectQuery,
        at_ms: float,
        kind: str = metrics_module.SELECT,
    ) -> tuple[SelectResult, float]:
        """Evaluate a subquery at an endpoint and ship the result back."""
        endpoint = self.federation.get(endpoint_name)
        result = self._evaluate_with_plan_metrics(
            endpoint, kind, lambda: endpoint.select(query)
        )
        if self.audit.enabled:
            self._audit_probe_order(endpoint, query)
        end = self._issue(
            endpoint_name,
            kind,
            at_ms,
            len(result),
            query_bytes(query),
            cached=False,
            response_bytes=_payload_bytes(result),
        )
        return result, end

    def partial(
        self, endpoint_name: str, spec: PartialSpec, at_ms: float
    ) -> tuple[PartialResult, float]:
        """One whole-query partial-evaluation round at an endpoint.

        Ships the branch's local-complete query plus its fragment
        SELECTs (with their pruning digests) as a single ``partial``
        request; the response carries the local-complete rows and every
        fragment's surviving partial matches.  The request's virtual
        cost covers all shipped queries, embedded digests, and the full
        response payload — one request, one round trip, however many
        fragments ride along.
        """
        endpoint = self.federation.get(endpoint_name)
        result = self._evaluate_with_plan_metrics(
            endpoint,
            metrics_module.PARTIAL,
            lambda: endpoint.partial_evaluate(spec),
        )
        request_bytes = 0
        if spec.complete is not None:
            request_bytes += query_bytes(spec.complete)
        response_bytes = 0
        if result.complete is not None:
            response_bytes += _payload_bytes(result.complete)
        for fragment_spec in spec.fragments:
            request_bytes += query_bytes(fragment_spec.query)
            request_bytes += fragment_spec.digest_bytes()
        for fragment in result.fragments:
            response_bytes += _payload_bytes(fragment.result)
        registry = self.registry
        engine = self.engine
        complete_rows = result.complete_rows()
        fragment_rows = result.fragment_rows()
        if complete_rows:
            registry.inc(
                "partial_rows_total", complete_rows,
                engine=engine, endpoint=endpoint_name, section="complete",
            )
        if fragment_rows:
            registry.inc(
                "partial_rows_total", fragment_rows,
                engine=engine, endpoint=endpoint_name, section="fragment",
            )
        pruned = result.pruned_rows()
        if pruned:
            registry.inc(
                "partial_pruned_rows_total", pruned,
                engine=engine, endpoint=endpoint_name,
            )
        end = self._issue(
            endpoint_name,
            metrics_module.PARTIAL,
            at_ms,
            result.total_rows(),
            request_bytes,
            cached=False,
            response_bytes=response_bytes,
        )
        return result, end

    def _audit_probe_order(self, endpoint, query: SelectQuery) -> None:
        """Record compiled-plan probe-order estimates vs. actuals.

        Only runs while the audit is live (tracing on); the endpoint's
        audit path is counter-neutral and purely local, so traced and
        untraced executions stay request-for-request identical.
        """
        for probe in endpoint.audit_probes(query):
            self.audit.record(
                "probe_order",
                probe["estimated"],
                probe["actual"],
                endpoint=endpoint.name,
                pattern=probe["pattern"],
                input_rows=probe["input_rows"],
                output_rows=probe["output_rows"],
            )
