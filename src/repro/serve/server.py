"""Admission-controlled cooperative serving of concurrent queries.

:class:`QueryServer` multiplexes N in-flight federated queries over one
shared :class:`~repro.net.LaneBook` in virtual time.  Each admitted
query runs on its own worker thread, but **exactly one thread is ever
runnable**: workers park at every network request (the gate in
:class:`~repro.serve.client.ServingNetwork`) and the scheduler resumes
the worker whose next request has the smallest global ready time (ties
broken by admission order).  The thread handoff is a pair of events per
ticket — a baton, not a lock — so the interleaving is a pure function of
virtual timestamps and the execution is deterministic and replayable.

Three sharing layers cut the work a concurrent mix needs:

* a **result cache** keyed on canonical plan skeletons + federation
  store versions (:mod:`repro.serve.cache`) answers repeat queries at
  arrival for a flat :data:`CACHE_HIT_MS`, without admission;
* **whole-query attach**: an arrival whose skeleton matches a queued or
  in-flight query waits for that execution and shares its result;
* **in-flight subquery MQO**: concurrently admitted queries that issue
  canonically-equivalent endpoint subqueries share one shipped response
  (:class:`~repro.serve.client.ServingClient`).

Admission is quota-bound (global and per-tenant in-flight caps) with
deficit-round-robin fairness across tenant queues: each rotation tops a
tenant's deficit up by :data:`QUANTUM_MS` and admits while the deficit
covers the head query's estimated cost (a running mean of observed
service times), so cheap-query tenants are not starved behind a tenant
that floods expensive queries.
"""

from __future__ import annotations

import heapq
import threading
from collections import deque
from dataclasses import dataclass

from repro.core.engine import LusailEngine
from repro.endpoint.cache import EngineCaches
from repro.exceptions import UnsupportedQueryError
from repro.net.simulator import LaneBook, NetworkConfig, local_cluster_config
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.serve.cache import ResultCache, result_key, shared_result
from repro.serve.client import ServingClient
from repro.sparql.ast import SelectQuery
from repro.sparql.result import SelectResult
from repro.sparql.parser import parse_query
from repro.sparql.skeleton import canonicalize_query

__all__ = ["QueryRequest", "ServeConfig", "ServedQuery", "QueryServer"]

_INF = float("inf")

#: Deficit-round-robin refill per tenant per rotation (virtual ms).
QUANTUM_MS = 25.0
#: Cost estimate for a query name never observed before (virtual ms).
DEFAULT_COST_MS = 25.0
#: Flat virtual cost of answering from the mediator result cache.
CACHE_HIT_MS = 0.2


@dataclass(frozen=True)
class ServeConfig:
    """Knobs for admission, fairness, and sharing."""

    #: Global cap on concurrently executing queries (admission slots).
    max_inflight: int = 8
    #: Per-tenant cap on concurrently executing queries.
    per_tenant_inflight: int = 4
    #: Serve repeat queries from the skeleton-keyed result cache.
    result_cache: bool = True
    #: Attach arrivals to an identical queued/in-flight query.
    attach_identical: bool = True
    #: Share canonically-equivalent subquery SELECTs between in-flight
    #: queries (cross-query MQO).
    share_subqueries: bool = True


@dataclass(frozen=True)
class QueryRequest:
    """One traffic arrival."""

    at_ms: float
    tenant: str
    name: str
    text: str


@dataclass
class ServedQuery:
    """Completion record for one served request."""

    seq: int
    name: str
    tenant: str
    #: ``cache`` | ``attach`` | ``executed``
    path: str
    status: str
    arrival_ms: float
    start_ms: float
    finish_ms: float
    result_rows: int
    requests: int = 0
    result: SelectResult | None = None
    error: str | None = None

    @property
    def latency_ms(self) -> float:
        return self.finish_ms - self.arrival_ms

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class _Ticket:
    """One admitted (or queued) query execution and its scheduler baton."""

    __slots__ = (
        "seq", "request", "query", "key", "projected",
        "admitted_ms", "ready_ms", "blocked", "done", "turn_held",
        "go", "back", "thread", "outcome", "error", "waiters",
    )

    def __init__(self, seq: int, request: QueryRequest, query, key, projected):
        self.seq = seq
        self.request = request
        self.query = query
        self.key = key
        self.projected = projected
        self.admitted_ms = 0.0
        self.ready_ms = 0.0
        self.blocked = False
        self.done = False
        #: Set when the holder acquired its scheduling turn ahead of the
        #: network booking (the subquery-MQO producer path).
        self.turn_held = False
        self.go = threading.Event()
        self.back = threading.Event()
        self.thread: threading.Thread | None = None
        self.outcome = None
        self.error: BaseException | None = None
        #: Arrivals attached to this execution (whole-query MQO).
        self.waiters: list[tuple[int, QueryRequest]] = []


class QueryServer:
    """Deterministic concurrent query serving over a shared federation."""

    def __init__(
        self,
        federation,
        config: ServeConfig | None = None,
        network_config: NetworkConfig | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        fault_plan=None,
        resilience=None,
    ):
        self.federation = federation
        self.config = config or ServeConfig()
        self.network_config = network_config or local_cluster_config()
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Serve-level spans only; engines run untraced by default so
        #: interleaved workers cannot corrupt one span stack.
        self.tracer = tracer if tracer is not None else Tracer(enabled=False)
        self.fault_plan = fault_plan
        self.resilience = resilience
        #: Probe/plan caches shared by every admitted query — concurrent
        #: executions warm ASK/check/COUNT results for each other.
        self.caches = EngineCaches()
        #: Builds the engine each admitted query runs on; assignable, so
        #: a caller can wrap the default.
        self.engine_factory = self._default_engine
        #: The shared booking state all in-flight queries contend on.
        self.lanes = LaneBook(self.network_config.mediator_slots)
        self.result_cache = ResultCache(registry=self.registry)
        #: In-flight/completed subquery share registry:
        #: key -> (endpoint store version, response, completion global ms).
        self._subquery_shares: dict[tuple, tuple[int, SelectResult, float]] = {}
        self._subquery_keys: dict = {}
        self._parsed: dict[str, tuple] = {}
        self._cost_sum: dict[str, float] = {}
        self._cost_n: dict[str, int] = {}
        self.clock = 0.0
        self._seq = 0
        self._inflight: dict[int, _Ticket] = {}
        self._draining: list[tuple[float, int, str]] = []
        self._queues: dict[str, deque] = {}
        self._deficit: dict[str, float] = {}
        self._rr = 0
        self._pending: dict[tuple, _Ticket] = {}
        self._records: list[ServedQuery] = []
        self.mqo_subquery_hits = 0

    # -------------------------------------------------------- construction

    def _default_engine(self):
        engine = LusailEngine(
            self.federation,
            network_config=self.network_config,
            caches=self.caches,
            timeout_ms=None,
        )
        engine.tracer = Tracer(enabled=False)
        return engine

    def _query_info(self, text: str) -> tuple:
        """Parse + canonical cache key, memoized per distinct text."""
        info = self._parsed.get(text)
        if info is None:
            query = parse_query(text)
            if not isinstance(query, SelectQuery):
                raise UnsupportedQueryError("the serving layer executes SELECT queries")
            key, projected = result_key(query)
            info = (query, key, projected)
            self._parsed[text] = info
        return info

    # ---------------------------------------------- scheduler-facing hooks

    def gate(self, ticket: _Ticket, ready_ms: float) -> None:
        """Worker-side: park until the scheduler grants this request."""
        ticket.ready_ms = ready_ms
        ticket.blocked = True
        ticket.back.set()
        ticket.go.wait()
        ticket.go.clear()
        ticket.blocked = False

    def subquery_key(self, query) -> tuple:
        key = self._subquery_keys.get(query)
        if key is None:
            canonical = canonicalize_query(query)
            key = ("raw", query) if canonical is None else ("skeleton", canonical.query)
            self._subquery_keys[query] = key
        return key

    def shared_select(self, endpoint_name: str, key: tuple, version: int):
        """Response + completion time of an equivalent subquery, or None."""
        entry = self._subquery_shares.get((endpoint_name, key))
        if entry is None or entry[0] != version:
            return None
        self.mqo_subquery_hits += 1
        return entry[1], entry[2]

    def register_select(
        self, endpoint_name: str, key: tuple, version: int, result: SelectResult, done_ms: float
    ) -> None:
        self._subquery_shares[(endpoint_name, key)] = (version, result, done_ms)

    # ------------------------------------------------------------ the loop

    def run(self, requests: list[QueryRequest]) -> list[ServedQuery]:
        """Serve a traffic replay; returns one record per request.

        Arrivals are processed open-loop in timestamp order (ties by
        position).  The call is synchronous and deterministic: the same
        request list against the same federation yields byte-identical
        records.

        A server can serve several replays in sequence (state — caches,
        the global clock, cost estimates — carries over); each call
        returns only its own records.
        """
        self._records = []
        arrivals = sorted(enumerate(requests), key=lambda pair: (pair[1].at_ms, pair[0]))
        index, total = 0, len(arrivals)
        while True:
            t_arrival = arrivals[index][1].at_ms if index < total else _INF
            t_release = self._draining[0][0] if self._draining else _INF
            granted = None
            t_grant = _INF
            for ticket in self._inflight.values():
                if ticket.blocked and (
                    granted is None
                    or (ticket.ready_ms, ticket.seq) < (t_grant, granted.seq)
                ):
                    granted = ticket
                    t_grant = ticket.ready_ms
            if self._draining and t_release <= t_arrival and t_release <= t_grant:
                release, __, __tenant = heapq.heappop(self._draining)
                self.clock = max(self.clock, release)
            elif t_arrival <= t_grant:
                if index >= total:
                    if not any(self._queues.values()):
                        break
                    # Everything idle but work queued: only reachable if
                    # admission is stuck, which the quota invariants rule
                    # out — fail loudly rather than spin.
                    raise RuntimeError("serving scheduler stalled with queued work")
                __, request = arrivals[index]
                index += 1
                self.clock = max(self.clock, request.at_ms)
                self._on_arrival(request)
            else:
                self.clock = max(self.clock, t_grant)
                self._resume(granted)
            self._admit()
        if self._inflight or any(self._queues.values()):
            raise RuntimeError("serving scheduler stalled with work outstanding")
        self._records.sort(key=lambda record: record.seq)
        return self._records

    # ----------------------------------------------------------- arrivals

    def _on_arrival(self, request: QueryRequest) -> None:
        seq = self._seq
        self._seq += 1
        query, key, projected = self._query_info(request.text)
        config = self.config
        if config.result_cache:
            entry = self.result_cache.lookup(key, self.federation)
            if entry is not None:
                finish = request.at_ms + CACHE_HIT_MS
                self._record(
                    ServedQuery(
                        seq=seq,
                        name=request.name,
                        tenant=request.tenant,
                        path="cache",
                        status="ok",
                        arrival_ms=request.at_ms,
                        start_ms=request.at_ms,
                        finish_ms=finish,
                        result_rows=len(entry.rows),
                        result=shared_result(projected, entry.rows),
                    )
                )
                return
        if config.attach_identical:
            producer = self._pending.get(key)
            if producer is not None:
                producer.waiters.append((seq, request))
                self.registry.inc("serve_mqo_query_attached_total")
                return
        ticket = _Ticket(seq, request, query, key, projected)
        queue = self._queues.get(request.tenant)
        if queue is None:
            queue = self._queues[request.tenant] = deque()
            self._deficit.setdefault(request.tenant, 0.0)
        queue.append(ticket)
        self._pending[key] = ticket

    # ---------------------------------------------------------- admission

    def _cost(self, name: str) -> float:
        n = self._cost_n.get(name, 0)
        if n == 0:
            return DEFAULT_COST_MS
        return self._cost_sum[name] / n

    def _observe_cost(self, name: str, service_ms: float) -> None:
        self._cost_sum[name] = self._cost_sum.get(name, 0.0) + service_ms
        self._cost_n[name] = self._cost_n.get(name, 0) + 1

    def _capacity_left(self) -> int:
        return self.config.max_inflight - len(self._inflight) - len(self._draining)

    def _tenant_load(self, tenant: str) -> int:
        executing = sum(
            1 for ticket in self._inflight.values() if ticket.request.tenant == tenant
        )
        draining = sum(1 for __, __seq, name in self._draining if name == tenant)
        return executing + draining

    def _admit(self) -> None:
        """Deficit-round-robin admission across tenant queues."""
        config = self.config
        tenants = sorted(self._queues)
        count = len(tenants)
        if count == 0:
            return
        while self._capacity_left() > 0:
            eligible = [
                tenant
                for tenant in tenants
                if self._queues[tenant]
                and self._tenant_load(tenant) < config.per_tenant_inflight
            ]
            if not eligible:
                break
            # One full rotation; deficits grow by one quantum per visit,
            # so a head query costlier than the quantum is admitted after
            # finitely many rotations rather than starving.
            for __ in range(count):
                tenant = tenants[self._rr % count]
                self._rr += 1
                queue = self._queues[tenant]
                if not queue:
                    self._deficit[tenant] = 0.0
                    continue
                if self._tenant_load(tenant) >= config.per_tenant_inflight:
                    continue
                self._deficit[tenant] += QUANTUM_MS
                while (
                    queue
                    and self._capacity_left() > 0
                    and self._tenant_load(tenant) < config.per_tenant_inflight
                    and self._deficit[tenant] >= self._cost(queue[0].request.name)
                ):
                    ticket = queue.popleft()
                    self._deficit[tenant] -= self._cost(ticket.request.name)
                    self._start(ticket)
                if not queue:
                    # Classic DRR: an emptied queue forfeits its deficit.
                    self._deficit[tenant] = 0.0

    def _start(self, ticket: _Ticket) -> None:
        ticket.admitted_ms = self.clock
        self._inflight[ticket.seq] = ticket
        registry = self.registry
        registry.inc("serve_admitted_total", tenant=ticket.request.tenant)
        registry.observe(
            "serve_queue_wait_virtual_ms",
            ticket.admitted_ms - ticket.request.at_ms,
            tenant=ticket.request.tenant,
        )
        ticket.thread = threading.Thread(
            target=self._worker, args=(ticket,), name=f"serve-q{ticket.seq}", daemon=True
        )
        ticket.back.clear()
        ticket.thread.start()
        ticket.back.wait()
        if ticket.done:
            self._finalize(ticket)

    def _worker(self, ticket: _Ticket) -> None:
        try:
            engine = self.engine_factory()
            # Engine clocks run on the global serving timeline, so a
            # per-query virtual budget would misfire for late arrivals.
            engine.timeout_ms = None
            engine.fault_plan = self.fault_plan
            engine.resilience = self.resilience
            engine.registry = self.registry
            engine.client_factory = lambda **kwargs: ServingClient(
                server=self, ticket=ticket, **kwargs
            )
            ticket.outcome = engine.execute(ticket.query)
        except BaseException as exc:  # surfaced on the scheduler thread
            ticket.error = exc
        finally:
            ticket.done = True
            ticket.back.set()

    # --------------------------------------------------------- resumption

    def _resume(self, ticket: _Ticket) -> None:
        ticket.back.clear()
        ticket.go.set()
        ticket.back.wait()
        if ticket.done:
            self._finalize(ticket)

    def _finalize(self, ticket: _Ticket) -> None:
        del self._inflight[ticket.seq]
        if self._pending.get(ticket.key) is ticket:
            del self._pending[ticket.key]
        if ticket.error is not None:
            raise ticket.error
        outcome = ticket.outcome
        request = ticket.request
        finish = max(ticket.admitted_ms, outcome.metrics.virtual_ms)
        self._observe_cost(request.name, finish - ticket.admitted_ms)
        cacheable = outcome.ok and outcome.complete
        if cacheable and self.config.result_cache:
            touched = {record.endpoint for record in outcome.metrics.records}
            self.result_cache.store(
                ticket.key, outcome.result.rows, touched, self.federation
            )
        record = ServedQuery(
            seq=ticket.seq,
            name=request.name,
            tenant=request.tenant,
            path="executed",
            status=outcome.status,
            arrival_ms=request.at_ms,
            start_ms=ticket.admitted_ms,
            finish_ms=finish,
            result_rows=len(outcome.result),
            requests=outcome.metrics.request_count(),
            result=outcome.result,
            error=outcome.error,
        )
        self._record(record)
        for waiter_seq, waiter in ticket.waiters:
            waiter_finish = max(finish, waiter.at_ms) + CACHE_HIT_MS
            self._record(
                ServedQuery(
                    seq=waiter_seq,
                    name=waiter.name,
                    tenant=waiter.tenant,
                    path="attach",
                    status=outcome.status,
                    arrival_ms=waiter.at_ms,
                    start_ms=waiter.at_ms,
                    finish_ms=waiter_finish,
                    result_rows=len(outcome.result),
                    result=outcome.result,
                    error=outcome.error,
                )
            )
        if finish > self.clock:
            # The admission slot stays occupied until the query's virtual
            # completion, not the scheduler's (earlier) last event.
            heapq.heappush(self._draining, (finish, ticket.seq, request.tenant))

    def _record(self, record: ServedQuery) -> None:
        self._records.append(record)
        registry = self.registry
        registry.inc(
            "serve_queries_total",
            tenant=record.tenant,
            path=record.path,
            status=record.status,
        )
        registry.observe(
            "serve_latency_virtual_ms", record.latency_ms, tenant=record.tenant
        )
        if self.tracer.enabled:
            with self.tracer.span(
                "serve.query",
                t0=record.arrival_ms,
                query=record.name,
                tenant=record.tenant,
                path=record.path,
            ) as span:
                span.set(status=record.status, rows=record.result_rows)
                span.end(record.finish_ms)

    # -------------------------------------------------------- maintenance

    def invalidate(self) -> int:
        """Drop state invalidated by federation mutations.

        Sweeps the result cache (per-entry store versions), clears the
        subquery share registry entries whose endpoint version moved on,
        and clears the shared probe caches, which are not versioned.
        Returns the number of result-cache entries dropped.
        """
        dropped = self.result_cache.sweep(self.federation)
        stale = [
            share_key
            for share_key, (version, __, __done) in self._subquery_shares.items()
            if share_key[0] not in self.federation
            or self.federation.get(share_key[0]).store.version != version
        ]
        for share_key in stale:
            del self._subquery_shares[share_key]
        self.caches.clear()
        return dropped
