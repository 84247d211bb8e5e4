"""Admission-controlled cooperative serving of concurrent queries.

:class:`QueryServer` multiplexes N in-flight federated queries over one
shared :class:`~repro.net.LaneBook` in virtual time.  Queries run on
pooled threads, but **exactly one thread holds the turn**, and it runs
the scheduler itself: at a gate (:class:`~repro.serve.client.ServingNetwork`)
it grants the parked request with the smallest global ready time (ties
by admission order) — going on if that is its own, else waking exactly
the granted thread, or one for a query it admits — and a thread whose
query finished runs the next admitted one.  Decisions read only virtual
timestamps and admission order: the execution is deterministic.

Three sharing layers, always on, cut the work a concurrent mix needs:

* a **result cache** keyed on canonical plan skeletons
  (:mod:`repro.serve.cache`) answers repeat queries at arrival for a
  flat :data:`CACHE_HIT_MS`, without admission, while no write since
  the entry was filled could match one of the query's triple patterns;
* **whole-query attach**: an arrival whose skeleton matches a queued or
  in-flight query waits for that execution and shares its result;
* **in-flight subquery MQO**, the one multi-query optimiser: a SELECT
  shipped to an endpoint is answered from a response an earlier query
  shipped there, when that response's projection covers it and no write
  since could match the body's patterns (:meth:`QueryServer.subquery_key`,
  :class:`~repro.serve.client.ServingClient`).  A batch is a set of
  arrivals at one instant.

Admission is quota-bound (:data:`MAX_INFLIGHT` queries in flight, at
most :data:`PER_TENANT_INFLIGHT` per tenant) with deficit-round-robin
fairness across tenant queues: each rotation tops a tenant's deficit up
by :data:`QUANTUM_MS` and admits while the deficit covers the head
query's estimated cost (a running mean of observed service times), so
cheap-query tenants are not starved behind a tenant that floods
expensive queries.
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
from repro.sparql.ast import SelectQuery, ValuesPattern
from repro.sparql.result import SelectResult
from repro.sparql.parser import parse_query
from repro.sparql.skeleton import canonicalize_query, occurrence_order
from repro.store.triple_store import StoreState

__all__ = ["QueryRequest", "ServedQuery", "QueryServer"]

_INF = float("inf")

#: Global cap on concurrently executing queries (admission slots).
MAX_INFLIGHT = 8
#: Per-tenant cap on concurrently executing queries.
PER_TENANT_INFLIGHT = 4
#: Deficit-round-robin refill per tenant per rotation (virtual ms).
QUANTUM_MS = 25.0
#: Cost estimate for a query name never observed before (virtual ms).
DEFAULT_COST_MS = 25.0
#: Flat virtual cost of answering from the mediator result cache.
CACHE_HIT_MS = 0.2


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


class _Cancelled(BaseException):
    """Raised out of a parked query's gate once its replay failed."""


class _Worker:
    """A serving thread: the lock it parks on, the query it runs, and its
    pooled thread (None for the thread in :meth:`QueryServer.run`)."""

    __slots__ = ("baton", "ticket", "thread")

    def __init__(self):
        self.baton = threading.Lock()
        self.baton.acquire()  # held while the thread waits for the turn
        self.ticket: _Ticket | None = None
        self.thread: threading.Thread | None = None


class _Ticket:
    """One admitted (or queued) query execution."""

    __slots__ = (
        "seq", "request", "query", "key", "projected",
        "admitted_ms", "ready_ms", "blocked", "cancelled", "turn_held",
        "worker", "outcome", "waiters",
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
        self.cancelled = False
        #: Set when the holder acquired its scheduling turn ahead of the
        #: network booking (the subquery-MQO producer path).
        self.turn_held = False
        self.worker: _Worker | None = None
        self.outcome = None
        #: Arrivals attached to this execution (whole-query MQO).
        self.waiters: list[tuple[int, QueryRequest]] = []


class QueryServer:
    """Deterministic concurrent query serving over a shared federation."""

    def __init__(
        self,
        federation,
        network_config: NetworkConfig | None = None,
        registry: MetricsRegistry | None = None,
        tracer: Tracer | None = None,
        fault_plan=None,
        resilience=None,
    ):
        self.federation = federation
        self.network_config = network_config or local_cluster_config()
        self.registry = registry if registry is not None else MetricsRegistry()
        #: Serve-level spans only; each engine has its own (disabled)
        #: tracer, so interleaved workers never share one span stack.
        self.tracer = tracer if tracer is not None else Tracer()
        self.fault_plan = fault_plan
        self.resilience = resilience
        #: Probe/plan caches shared by every admitted query — concurrent
        #: executions warm ASK/check/COUNT results for each other.  Their
        #: entries validate themselves against the stores' writes.
        self.caches = EngineCaches()
        #: Builds the engine each admitted query runs on; assignable, so
        #: a caller can wrap the default.
        self.engine_factory = self._default_engine
        #: The shared booking state all in-flight queries contend on.
        self.lanes = LaneBook(self.network_config.mediator_slots)
        self.result_cache = ResultCache(registry=self.registry)
        #: In-flight/completed subquery share registry: (endpoint, key) ->
        #: (store state pin, body patterns,
        #: [(names, response, completion global ms), ...]).
        self._subquery_shares: dict[tuple, tuple[StoreState, list | None, list]] = {}
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
        #: The replay in flight, sorted, and its next arrival's index.
        self._arrivals: list[QueryRequest] = []
        self._index = 0
        #: The admission rotation under way; None at its fixpoint.
        self._admitting = None
        self._host = _Worker()
        self._idle: list[_Worker] = []
        self._failure: BaseException | None = None
        self.mqo_subquery_hits = 0

    # -------------------------------------------------------- construction

    def _default_engine(self):
        return LusailEngine(
            self.federation,
            network_config=self.network_config,
            caches=self.caches,
            timeout_ms=None,
        )

    def _query_info(self, text: str) -> tuple:
        """``(query, key, projected, patterns)``: the parsed query, its
        canonical cache key and projection, and the triple patterns it
        reads (None for a shape the walk does not know); memoized per
        distinct text."""
        info = self._parsed.get(text)
        if info is None:
            query = parse_query(text)
            if not isinstance(query, SelectQuery):
                raise UnsupportedQueryError("the serving layer executes SELECT queries")
            key, projected = result_key(query)
            info = (query, key, projected, query.triple_patterns())
            self._parsed[text] = info
        return info

    # ---------------------------------------------- scheduler-facing hooks

    def gate(self, ticket: _Ticket, ready_ms: float) -> None:
        """Worker-side, holding the turn: step the scheduler until it
        grants this request, parking while other threads hold the turn;
        raise :class:`_Cancelled` once the replay failed."""
        ticket.ready_ms = ready_ms
        ticket.blocked = True
        try:
            if not ticket.cancelled:
                granted = self._next()
                if granted is not ticket:
                    self._pass(granted, ticket.worker)
                    ticket.worker.baton.acquire()
        except BaseException as exc:  # a step failed here; run() re-raises it
            self._failure = exc
            ticket.cancelled = True
        ticket.blocked = False
        if ticket.cancelled:
            raise _Cancelled

    def subquery_key(self, query: SelectQuery) -> tuple[tuple, tuple]:
        """``(key, names)`` of a shipped SELECT, memoised per query.

        A *plain* SELECT (no DISTINCT, COUNT, ORDER BY, LIMIT or OFFSET)
        is keyed by its WHERE body alone, canonicalised with every
        variable projected in first-occurrence order, and ``names`` are
        its projection's canonical names: any response under the key
        whose names cover these holds its rows, since a plain
        projection keeps the body's multiplicities.  A body with
        top-level VALUES (a bound-join block) is keyed raw, under its
        own names.  Any other SELECT is keyed whole: only an exact twin
        answers it.
        """
        entry = self._subquery_keys.get(query)
        if entry is None:
            projected = query.projected_variables()
            plain = not (
                query.distinct
                or query.aggregate is not None
                or query.order_by
                or query.limit is not None
                or query.offset
            )
            if plain and any(isinstance(el, ValuesPattern) for el in query.where.elements):
                entry = ("body", query.where), projected
            elif plain:
                order = occurrence_order(query.where)
                unbound = tuple(var for var in projected if var not in order)
                canonical = canonicalize_query(
                    SelectQuery(where=query.where, select_vars=order + unbound)
                )
                entry = (
                    ("body", canonical.query),
                    tuple(canonical.rename[var] for var in projected),
                )
            else:
                canonical = canonicalize_query(query)
                if canonical is None:
                    entry = ("raw", query), projected
                else:
                    entry = ("skeleton", canonical.query), canonical.query.projected_variables()
            self._subquery_keys[query] = entry
        return entry

    def _share_current(self, endpoint_name: str, entry) -> bool:
        """True while the endpoint's store state ``entry`` pins is
        current for the body patterns it holds."""
        pin, patterns, __ = entry
        return self.federation.get(endpoint_name).store.current(pin, patterns)

    def shared_select(self, endpoint_name: str, query: SelectQuery):
        """The first response registered at ``endpoint_name``, still
        current, whose names cover ``query``'s, seen through ``query``'s
        projection (a column-subset view, nothing copied), and its
        completion time; or None."""
        key, names = self.subquery_key(query)
        entry = self._subquery_shares.get((endpoint_name, key))
        if entry is None or not self._share_current(endpoint_name, entry):
            return None
        for produced_names, result, done_ms in entry[2]:
            index = {name: position for position, name in enumerate(produced_names)}
            if all(name in index for name in names):
                self.mqo_subquery_hits += 1
                positions = [index[name] for name in names]
                return result.view(query.projected_variables(), positions), done_ms
        return None

    def register_select(
        self,
        endpoint_name: str,
        query: SelectQuery,
        result: SelectResult,
        done_ms: float,
    ) -> None:
        """Register ``query``'s shipped response, just evaluated, beside
        the still-current others under its key (one per projection), or
        in place of stale ones, pinned to the store's state with the
        triple patterns the body reads."""
        key, names = self.subquery_key(query)
        share_key = (endpoint_name, key)
        entry = self._subquery_shares.get(share_key)
        if entry is None or not self._share_current(endpoint_name, entry):
            self._subquery_shares[share_key] = (
                self.federation.get(endpoint_name).store.state,
                query.triple_patterns(),
                [(names, result, done_ms)],
            )
        else:
            entry[2].append((names, result, done_ms))

    # ------------------------------------------------------------ the loop

    def run(self, requests: list[QueryRequest]) -> list[ServedQuery]:
        """Serve a traffic replay; returns one record per request.

        Arrivals are processed open-loop in timestamp order (ties by
        position).  The call is synchronous and deterministic: the same
        request list against the same federation yields byte-identical
        records.  If a query or a scheduler step raises, the other queries
        are unwound and dropped and the exception is raised here.

        A server can serve several replays in sequence (state — caches,
        the global clock, cost estimates — carries over); each call
        returns only its own records.
        """
        self._records = []
        order = sorted(enumerate(requests), key=lambda pair: (pair[1].at_ms, pair[0]))
        self._arrivals = [request for __, request in order]
        self._index = 0
        host = self._host
        try:
            upcoming = self._next()
        except BaseException as exc:
            self._failure, upcoming = exc, None
        if upcoming is not None:
            # This thread runs queries too, and is back once all are done.
            self._idle.append(host)
            self._pass(upcoming, host)
            self._work(host)
        failure = self._failure
        if failure is not None:
            # Unwind each parked query: its gate raises, its thread returns.
            for ticket in list(self._inflight.values()):
                if ticket.worker is not None and not ticket.cancelled:
                    ticket.cancelled = True
                    self._pass(ticket, host)
                    host.baton.acquire()
            for queue in self._queues.values():
                queue.clear()
            self._inflight, self._pending, self._draining = {}, {}, []
            self._admitting = self._failure = None
        for worker in self._idle:
            worker.baton.release()
            worker.thread.join()
        self._idle = []
        if failure is not None:
            raise failure
        if self._inflight or any(self._queues.values()):
            raise RuntimeError("serving scheduler stalled with work outstanding")
        self._records.sort(key=lambda record: record.seq)
        return self._records

    def _next(self) -> _Ticket | None:
        """The ticket to run next — just admitted (no thread yet) or the
        granted parked request — or None once the replay is served."""
        arrivals = self._arrivals
        while True:
            if self._admitting is not None:
                ticket = next(self._admitting, None)
                if ticket is not None:
                    self._start(ticket)
                    return ticket
                self._admitting = None
            index = self._index
            t_arrival = arrivals[index].at_ms if index < len(arrivals) else _INF
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
                if index >= len(arrivals):
                    if not any(self._queues.values()):
                        return None
                    # Everything idle but work queued: only reachable if
                    # admission is stuck, which the quota invariants rule
                    # out — fail loudly rather than spin.
                    raise RuntimeError("serving scheduler stalled with queued work")
                request = arrivals[index]
                self._index = index + 1
                self.clock = max(self.clock, request.at_ms)
                self._on_arrival(request)
            else:
                # A grant changes no admission input: no rotation after it.
                self.clock = max(self.clock, t_grant)
                return granted
            self._admitting = self._admit()

    # ------------------------------------------------------------ the turn

    def _pass(self, ticket: _Ticket | None, me: _Worker) -> None:
        """Give the turn to ``ticket``'s thread (None: :meth:`run`'s); a
        query just admitted takes the thread idled last, or a new one."""
        worker = self._host if ticket is None else ticket.worker
        if worker is None:
            if self._idle:
                worker = self._idle.pop()
            else:
                worker = _Worker()
                worker.thread = threading.Thread(target=self._work, args=(worker,), daemon=True)
                worker.thread.start()
                self.registry.inc("serve_worker_threads_started_total")
            ticket.worker, worker.ticket = worker, ticket
        if worker is not me:
            self.registry.inc("serve_turn_handoffs_total")
        worker.baton.release()

    def _work(self, me: _Worker) -> None:
        """Park until handed the turn, run the query, finalize it, step
        the scheduler; return when woken without a query."""
        host = self._host
        while True:
            me.baton.acquire()
            ticket, upcoming = me.ticket, None
            if ticket is None:
                return
            try:
                self._execute(ticket)
                self._finalize(ticket)
                if self._admitting is None:
                    self._admitting = self._admit()
                upcoming = self._next()
            except BaseException as exc:  # a query or a step failed; run() re-raises it
                ticket.cancelled = True  # not parked: nothing to unwind
                if self._failure is None:
                    self._failure = exc
            me.ticket = None
            if upcoming is None:
                if me is host:
                    return
                # Served or failed: the turn goes back to run().
                if host.ticket is not None:
                    host.ticket.cancelled = True
                elif host in self._idle:
                    self._idle.remove(host)
            self._idle.append(me)
            self._pass(upcoming, me)

    # ----------------------------------------------------------- arrivals

    def _on_arrival(self, request: QueryRequest) -> None:
        seq = self._seq
        self._seq += 1
        query, key, projected, __ = self._query_info(request.text)
        entry = self.result_cache.lookup(key, self.federation)
        if entry is not None:
            result = shared_result(projected, entry.rows)
            finish = request.at_ms + CACHE_HIT_MS
            self._record(seq, request, "cache", request.at_ms, finish, result)
            return
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
        return MAX_INFLIGHT - len(self._inflight) - len(self._draining)

    def _tenant_load(self, tenant: str) -> int:
        executing = sum(
            1 for ticket in self._inflight.values() if ticket.request.tenant == tenant
        )
        draining = sum(1 for __, __seq, name in self._draining if name == tenant)
        return executing + draining

    def _admit(self):
        """Deficit-round-robin admission across tenant queues: yields
        each ticket to start.  A started query runs to its first gate
        before the rotation resumes where it stopped."""
        tenants = sorted(self._queues)
        count = len(tenants)
        if count == 0:
            return
        while self._capacity_left() > 0:
            eligible = [
                tenant
                for tenant in tenants
                if self._queues[tenant]
                and self._tenant_load(tenant) < PER_TENANT_INFLIGHT
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
                if self._tenant_load(tenant) >= PER_TENANT_INFLIGHT:
                    continue
                self._deficit[tenant] += QUANTUM_MS
                while (
                    queue
                    and self._capacity_left() > 0
                    and self._tenant_load(tenant) < PER_TENANT_INFLIGHT
                    and self._deficit[tenant] >= self._cost(queue[0].request.name)
                ):
                    ticket = queue.popleft()
                    self._deficit[tenant] -= self._cost(ticket.request.name)
                    yield ticket
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

    def _execute(self, ticket: _Ticket) -> None:
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

    # --------------------------------------------------------- completion

    def _finalize(self, ticket: _Ticket) -> None:
        del self._inflight[ticket.seq]
        if self._pending.get(ticket.key) is ticket:
            del self._pending[ticket.key]
        outcome = ticket.outcome
        request = ticket.request
        finish = max(ticket.admitted_ms, outcome.metrics.virtual_ms)
        self._observe_cost(request.name, finish - ticket.admitted_ms)
        if outcome.ok and outcome.complete:
            touched = {record.endpoint for record in outcome.metrics.records}
            self.result_cache.store(
                ticket.key,
                outcome.result.rows,
                touched,
                self.federation,
                patterns=self._query_info(request.text)[3],
            )
        self._record(
            ticket.seq, request, "executed", ticket.admitted_ms, finish, outcome.result,
            status=outcome.status, requests=outcome.metrics.request_count(), error=outcome.error,
        )
        for waiter_seq, waiter in ticket.waiters:
            # Rows are positional in the canonical projection: the waiter
            # sees them under its own variable names.
            result = outcome.result.view(self._query_info(waiter.text)[2])
            finish_waiter = max(finish, waiter.at_ms) + CACHE_HIT_MS
            self._record(
                waiter_seq, waiter, "attach", waiter.at_ms, finish_waiter, result,
                status=outcome.status, error=outcome.error,
            )
        if finish > self.clock:
            # The admission slot stays occupied until the query's virtual
            # completion, not the scheduler's (earlier) last event.
            heapq.heappush(self._draining, (finish, ticket.seq, request.tenant))

    def _record(
        self, seq: int, request: QueryRequest, path: str, start_ms: float, finish_ms: float,
        result: SelectResult, status: str = "ok", requests: int = 0, error: str | None = None,
    ) -> None:
        record = ServedQuery(
            seq, request.name, request.tenant, path, status, request.at_ms,
            start_ms, finish_ms, len(result), requests, result, error,
        )
        self._records.append(record)
        self.registry.inc("serve_queries_total", tenant=request.tenant, path=path, status=status)
        self.registry.observe("serve_latency_virtual_ms", record.latency_ms, tenant=request.tenant)
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

        Sweeps the result cache and the subquery share registry, each
        entry by the writes its patterns could match.  Lookups validate
        lazily anyway, and so do the shared probe caches, which this
        leaves alone: the sweep only bounds memory.  Returns the number
        of result-cache entries dropped.
        """
        dropped = self.result_cache.sweep(self.federation)
        stale = [
            share_key
            for share_key, entry in self._subquery_shares.items()
            if share_key[0] not in self.federation
            or not self._share_current(share_key[0], entry)
        ]
        for share_key in stale:
            del self._subquery_shares[share_key]
        return dropped
