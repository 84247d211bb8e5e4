"""SAPE subquery evaluation (paper Algorithm 3).

Execution of one decomposed conjunctive branch:

1. **Disjoint fast path** — a single required subquery and no OPTIONAL
   blocks: the whole branch is evaluated independently at every relevant
   endpoint and the results concatenated (Alg 3 lines 2-4).
2. **Phase one** — non-delayed subqueries go to all their endpoints
   concurrently; results of connected subqueries are joined eagerly
   (with the DP join-order optimizer) to obtain the found bindings.
3. **Phase two** — delayed subqueries run serially, most selective
   first, as block-wise bound joins: found bindings of the shared
   variables are shipped in ``VALUES`` blocks of ``MAX_BLOCK``
   bindings.  Each endpoint receives only the bindings its IRI
   authorities can match (the decentralized-authority model of the
   paper's Fig 1 puts an entity's triples at its authority's endpoint):
   a binding is routed away from an endpoint when a pattern binding it
   in subject or object position has no entity of that authority
   there — for a generic ``?s ?p ?o`` pattern, no entity of it under any
   predicate, which is Alg 3 line 13 decided per binding rather than
   from a sample.  An endpoint gets ``ceil(routed / MAX_BLOCK)``
   requests, none when nothing is routed to it.  A request costs its
   endpoint a fixed round trip, overhead and base evaluation, while rows
   cost the same however the bindings are split, so blocks are never
   shrunk for an unselective subquery: that would only add requests.
   (The cost rule still prices such a subquery unrouted and with a
   premium, see ``cost_model._priced_requests``.)
4. OPTIONAL groups are evaluated last (always delayed) and left-joined;
   residue filters apply at the mediator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.core.decomposition.subquery import Subquery, values_block
from repro.core.execution.cost_model import MAX_BLOCK
from repro.core.execution.join_order import (
    JoinHints,
    execute_plan,
    plan_joins,
    plan_summary,
)
from repro.core.execution.request_handler import ElasticRequestHandler
from repro.endpoint.client import FederationClient
from repro.exceptions import NetworkError
from repro.net import metrics as metrics_module
from repro.net.simulator import MediatorCostModel
from repro.planning.base_engine import guard_rows, mediator_runtime
from repro.rdf.terms import Term, Variable
from repro.relational import kernels
from repro.relational.relation import Relation

if TYPE_CHECKING:
    from repro.core.engine import BranchPlan, LusailConfig
    from repro.core.mqo import SharedSubqueryCache

#: Elastic Request Handler worker threads per mediator machine.
POOL_SIZE = 8


@dataclass
class BranchOutcome:
    relation: Relation
    end_ms: float
    join_cost_units: float = 0.0
    #: Share of fragment rows that survived digest pruning, where the
    #: strategy measures it (the partial round); None where nothing does.
    crossing_selectivity: float | None = None


@dataclass
class _Component:
    """A connected group of already-evaluated relations, joined eagerly."""

    relation: Relation
    variables: set[Variable] = field(default_factory=set)


class BranchScheduler:
    """Executes one planned branch against the federation.

    Everything it decides from is on the ``branch_plan`` it is built
    with.  ``shared``, when given, is a batch's
    :class:`~repro.core.mqo.SharedSubqueryCache`: required subqueries are
    looked up there before they ship, and eager ones stored after.
    """

    #: See :attr:`BranchOutcome.crossing_selectivity`.
    crossing_selectivity: float | None = None

    def __init__(
        self,
        client: FederationClient,
        branch_plan: BranchPlan,
        mediator: MediatorCostModel,
        config: LusailConfig,
        shared: SharedSubqueryCache | None = None,
    ):
        self.client = client
        self.plan = branch_plan.decomposition
        self.needed_vars = branch_plan.needed_vars
        self.estimates = branch_plan.estimates
        self.mediator = mediator
        self.config = config
        self.shared = shared
        self.handler = ElasticRequestHandler(pool_size=POOL_SIZE * max(1, config.machines))
        self.join_cost_units = 0.0
        #: Endpoints dropped in partial-results mode; their contribution
        #: is skipped for the rest of the branch.
        self._dead_endpoints: set[str] = set()

    # ----------------------------------------------------------- plumbing

    def _live(self, sources: tuple[str, ...]) -> tuple[str, ...]:
        if not self._dead_endpoints:
            return sources
        return tuple(name for name in sources if name not in self._dead_endpoints)

    def _fetch(self, request, endpoint: str, *args, at_ms: float, **kwargs):
        """``request(endpoint, *args, at_ms)``: ``(reply, end time)``.

        An irrecoverable failure propagates — or, under
        ``partial_results``, drops the endpoint for the rest of the
        branch: ``(None, the failure's timestamp)``.
        """
        try:
            return request(endpoint, *args, at_ms, **kwargs)
        except NetworkError as exc:
            if not self.config.partial_results:
                raise
            failed_at = exc.at_ms if exc.at_ms is not None else at_ms
        self._dead_endpoints.add(endpoint)
        self.client.metrics.dropped_endpoints.append(endpoint)
        self.client.registry.inc(
            "partial_drops_total", engine=self.client.engine, endpoint=endpoint
        )
        return None, failed_at

    def _guard_rows(self, rows: int) -> None:
        guard_rows(self.client, rows, self.config.max_mediator_rows)

    def _projection(self, subquery: Subquery) -> tuple[Variable, ...]:
        """What a subquery ships: its variables that are needed
        downstream, or — when none is — all of them, so that its row
        multiplicity still reaches the mediator."""
        return subquery.projection(self.needed_vars) or tuple(
            sorted(subquery.variables(), key=lambda v: v.name)
        )

    def _execute_subquery(self, subquery: Subquery, at_ms: float) -> tuple[Relation, float]:
        """Evaluate a subquery at all its endpoints concurrently."""
        projection = self._projection(subquery)
        # A batch shares required subqueries only: an OPTIONAL block's
        # rows depend on its own query's bindings, as a delayed
        # subquery's do once it has run bound — so only eager results
        # are stored.
        shareable = self.shared is not None and subquery.optional_group is None
        if shareable:
            reused = self.shared.get(subquery, projection)
            if reused is not None:
                return reused, at_ms
        query = subquery.to_select(projection)
        relation = Relation(projection, partitions=1)
        finish = at_ms
        mark = self.client.metrics.mark()
        audit = self.client.audit
        with self.client.tracer.span(
            "subquery",
            t0=at_ms,
            subquery=subquery.id,
            delayed=subquery.delayed,
            estimated_cardinality=subquery.estimated_cardinality,
            endpoints=list(subquery.sources),
        ) as span:
            for endpoint in self._live(subquery.sources):
                result, end = self._fetch(self.client.select, endpoint, query, at_ms=at_ms)
                finish = max(finish, end)
                if result is None:
                    continue
                relation.rows.extend(result)
                if audit.enabled:
                    # SAPE's per-endpoint COUNT-derived estimate against
                    # the rows this endpoint actually returned.
                    audit.record(
                        "sape_cardinality",
                        self.estimates.endpoint_cardinality(
                            subquery, endpoint, self.needed_vars
                        ),
                        len(result),
                        endpoint=endpoint,
                        subquery=subquery.id,
                    )
            if audit.enabled:
                # The aggregate C(sq) that drove the delay decision.
                audit.record(
                    "delay",
                    subquery.estimated_cardinality,
                    len(relation),
                    span=span,
                    subquery=subquery.id,
                    delayed=subquery.delayed,
                )
            span.set(
                rows=len(relation),
                requests=self.client.metrics.requests_since(mark),
            ).end(finish)
        relation.partitions = self.handler.partitions_for(subquery.sources, len(relation))
        self._guard_rows(len(relation))
        if shareable and not subquery.delayed:
            self.shared.put(subquery, relation)
        return relation, finish

    def _execute_bound_subquery(
        self,
        subquery: Subquery,
        bind_vars: tuple[Variable, ...],
        binding_rows: list[tuple[Term | None, ...]],
        at_ms: float,
    ) -> tuple[Relation, float]:
        """Evaluate a delayed subquery with VALUES blocks of bindings.

        Each source gets only the bindings its IRI authorities can match
        (:meth:`~repro.planning.stats.CharsetStatisticsProvider.route`),
        in ``ceil(routed / MAX_BLOCK)`` requests; a source with none gets
        no request.  Block *b* goes to every source that has one before
        block *b* + 1 goes to any.
        """
        projection = self._projection(subquery)
        relation = Relation(projection, partitions=1)
        finish = at_ms
        block_size = MAX_BLOCK
        tracer = self.client.tracer
        metrics = self.client.metrics
        registry = self.client.registry
        engine = self.client.engine
        sources = subquery.sources
        if self.config.refine_sources or not self._is_generic(subquery):
            route = self.client.stats.route
            routed = {
                endpoint: route(subquery, endpoint, bind_vars, binding_rows)
                for endpoint in sources
            }
        else:  # Alg 3 line 13 off: a generic pattern gets every binding
            routed = dict.fromkeys(sources, binding_rows)
        for endpoint, rows in routed.items():
            if len(rows) < len(binding_rows):
                registry.inc(
                    "bound_bindings_routed_out_total",
                    len(binding_rows) - len(rows),
                    engine=engine,
                    endpoint=endpoint,
                )
        # Every block of this subquery shares one query skeleton, so all
        # blocks after the first should hit the endpoint plan caches;
        # the hit delta on the span confirms compiled-plan reuse.
        plan_hits_before = registry.counter_value("plan_cache_hits_total", engine=engine)
        with tracer.span(
            "bound_subquery",
            t0=at_ms,
            subquery=subquery.id,
            bindings=len(binding_rows),
            block_size=block_size,
            estimated_cardinality=subquery.estimated_cardinality,
            endpoints=list(sources),
            routed_bindings={endpoint: len(rows) for endpoint, rows in routed.items()},
            skipped_sources=[endpoint for endpoint, rows in routed.items() if not rows],
        ) as subquery_span:
            longest = max((len(rows) for rows in routed.values()), default=0)
            for start in range(0, longest, block_size):
                mark = metrics.mark()
                rows_before = len(relation)
                with tracer.span("bound_block", t0=at_ms, block=start // block_size) as block_span:
                    block_end = at_ms
                    shipped = 0
                    for endpoint in self._live(sources):
                        block = routed[endpoint][start:start + block_size]
                        if not block:
                            continue
                        shipped += len(block)
                        query = subquery.to_select(
                            projection, values=values_block(bind_vars, block)
                        )
                        result, end = self._fetch(
                            self.client.select,
                            endpoint,
                            query,
                            at_ms=at_ms,
                            kind=metrics_module.BOUND,
                        )
                        block_end = max(block_end, end)
                        finish = max(finish, end)
                        if result is not None:
                            relation.rows.extend(result)
                    block_span.set(
                        bindings=shipped,
                        rows=len(relation) - rows_before,
                        requests=metrics.requests_since(mark),
                    ).end(block_end)
                registry.inc("bound_join_blocks_total", engine=engine)
            audit = self.client.audit
            if audit.enabled:
                # Total rows the COUNT estimate predicted vs. received...
                audit.record(
                    "bound_join",
                    subquery.estimated_cardinality,
                    len(relation),
                    span=subquery_span,
                    subquery=subquery.id,
                    bindings=len(binding_rows),
                )
                # ...and per binding.
                if binding_rows:
                    audit.record(
                        "bind_fanout",
                        subquery.estimated_cardinality / len(binding_rows),
                        len(relation) / len(binding_rows),
                        span=subquery_span,
                        subquery=subquery.id,
                    )
            subquery_span.set(
                rows=len(relation),
                requests=sum(
                    int(child.attrs.get("requests", 0)) for child in subquery_span.children
                ),
                plan_cache_hits=int(
                    registry.counter_value("plan_cache_hits_total", engine=engine)
                    - plan_hits_before
                ),
            ).end(finish)
        relation.partitions = self.handler.partitions_for(sources, len(relation))
        self._guard_rows(len(relation))
        return relation, finish

    def _join_planned(
        self, relations: list[Relation], span, at_ms: float, greedy: bool, hints=None
    ) -> Relation:
        """Order and run one multi-way join under ``span``: its cost is
        charged, and the enumerator's estimates audited against it."""
        plan = plan_joins(relations, greedy=greedy, hints=hints)
        joined, cost = execute_plan(plan, relations)
        self.join_cost_units += cost
        span.set(rows=len(joined), join_cost_units=cost).end(at_ms)
        audit = self.client.audit
        if audit.enabled:
            summary = plan_summary(plan)
            span.set(join_order=summary["order"])
            audit.record(
                "join_cost",
                summary["estimated_cost"],
                cost,
                span=span,
                order=summary["order"],
            )
            audit.record("join_rows", summary["estimated_rows"], len(joined), span=span)
        return joined

    # ----------------------------------------------------------- components

    def _merge_into_components(
        self, components: list[_Component], relation: Relation, at_ms: float = 0.0
    ) -> None:
        """Join a new relation into every component it connects with."""
        vars = set(relation.vars)
        connected = [c for c in components if c.variables & vars]
        merged_relation = relation
        merged_vars = set(vars)
        counters = self.kernel_counters
        fast_before = counters.fast_dispatches
        general_before = counters.general_dispatches
        with self.client.tracer.span(
            "mediator_join", t0=at_ms, inputs=len(connected) + 1
        ) as span:
            for component in connected:
                merged_relation = component.relation.join(merged_relation)
                # Charge the paper's JoinCost from the kernel's measured
                # build/probe row counts, not a pre-join estimate.
                self.join_cost_units += kernels.last_join_cost()
                merged_vars |= component.variables
                components.remove(component)
            span.set(
                rows=len(merged_relation),
                kernel_fast=counters.fast_dispatches - fast_before,
                kernel_general=counters.general_dispatches - general_before,
            ).end(at_ms)
        self.client.registry.inc(
            "mediator_join_rows_total", len(merged_relation), engine=self.client.engine
        )
        self._guard_rows(len(merged_relation))
        components.append(_Component(relation=merged_relation, variables=merged_vars))

    def _bindings_for(
        self, components: list[_Component], variables: set[Variable]
    ) -> tuple[tuple[Variable, ...], list[tuple[Term | None, ...]]] | None:
        """Find the component sharing variables with a delayed subquery.

        Returns (shared variables, distinct binding rows) of the one
        with the fewest bindings, or None when nothing evaluated so far
        connects to the subquery.
        """
        best = None
        for component in components:
            shared = tuple(
                sorted(component.variables & variables, key=lambda v: v.name)
            )
            if not shared:
                continue
            projected = component.relation.project(shared).distinct()
            rows = [row for row in projected.rows if None not in row]
            if best is None or len(rows) < len(best[1]):
                best = (shared, rows)
        return best

    def _refined_cardinality(
        self, subquery: Subquery, components: list[_Component]
    ) -> float:
        bindings = self._bindings_for(components, subquery.variables())
        if bindings is None:
            return subquery.estimated_cardinality
        return min(subquery.estimated_cardinality, float(len(bindings[1])))

    # ------------------------------------------------------------- phases

    def run(self, at_ms: float) -> BranchOutcome:
        """Execute the branch with the columnar kernel runtime installed.

        The runtime streams ``max_mediator_rows`` through the kernels (a
        too-large join aborts mid-probe) and collects this branch's
        ``kernel_counters``, which are flushed to the metrics registry
        when the branch ends — whether it succeeded, overflowed or failed.
        """
        with mediator_runtime(self.client, self.config.max_mediator_rows) as counters:
            self.kernel_counters = counters
            return self._run(at_ms)

    def _run(self, at_ms: float) -> BranchOutcome:
        """The branch tail, the same for every strategy: the required
        phase, then each OPTIONAL group left-joined in order, then the
        filters no subquery covered, then the mediator's pass over the
        answer it assembled."""
        tracer = self.client.tracer
        relation, now, assembled = self._run_required(at_ms)
        for group_id, subqueries in sorted(self.plan.optional_groups().items()):
            with tracer.span("optional_group", t0=now, group=group_id) as span:
                relation, now = self._run_optional_group(subqueries, relation, now)
                span.set(rows=len(relation)).end(now)
        for expression in self.plan.residue_filters:
            relation = relation.filter(expression)
        if assembled:
            now += self.mediator.scan_ms(len(relation))
        return BranchOutcome(relation, now, self.join_cost_units, self.crossing_selectivity)

    def _run_required(self, at_ms: float) -> tuple[Relation, float, bool]:
        """The required subqueries' relation, when it was complete, and
        whether the mediator assembled it — not on the disjoint fast
        path, whose per-endpoint answers are only concatenated."""
        required = self.plan.required_subqueries()
        tracer = self.client.tracer

        if self.plan.disjoint:  # one subquery, nothing OPTIONAL (Alg 3 lines 2-4)
            with tracer.span("phase1", t0=at_ms, disjoint=True) as span:
                relation, end = self._execute_subquery(required[0], at_ms)
                span.set(rows=len(relation)).end(end)
            return relation, end, False

        now = at_ms

        # Phase one: non-delayed required subqueries, concurrently.
        eager = [sq for sq in required if not sq.delayed]
        eager_results: list[tuple[Subquery, Relation]] = []
        with tracer.span("phase1", t0=now, subqueries=[sq.id for sq in eager]) as span:
            phase_end = now
            for subquery in eager:
                relation, end = self._execute_subquery(subquery, now)
                phase_end = max(phase_end, end)
                eager_results.append((subquery, relation))
            now = phase_end

            # Join connected eager results (DP order inside each component).
            components = self._join_eager(eager_results, now)
            span.set(rows=sum(len(r) for __, r in eager_results)).end(now)

        # Phase two: delayed required subqueries, most selective first.
        delayed = [sq for sq in required if sq.delayed]
        if delayed:
            with tracer.span(
                "phase2", t0=now, subqueries=[sq.id for sq in delayed]
            ) as span:
                while delayed:
                    delayed.sort(key=lambda sq: self._refined_cardinality(sq, components))
                    subquery = delayed.pop(0)
                    now = self._run_delayed(subquery, components, now)
                span.end(now)

        # Combine remaining components (cross product only if genuinely
        # disconnected).
        return self._combine_components(components, now), now, True

    def _join_eager(
        self, eager_results: list[tuple[Subquery, Relation]], at_ms: float = 0.0
    ) -> list[_Component]:
        """Group eager relations into connected components and join each."""
        components: list[_Component] = []
        remaining = list(eager_results)
        while remaining:
            seed_sq, seed_rel = remaining.pop(0)
            group = [(seed_sq, seed_rel)]
            group_vars = set(seed_rel.vars)
            changed = True
            while changed:
                changed = False
                for item in list(remaining):
                    if set(item[1].vars) & group_vars:
                        group.append(item)
                        group_vars |= set(item[1].vars)
                        remaining.remove(item)
                        changed = True
            relations = [relation for __, relation in group]
            if len(relations) == 1:
                joined = relations[0]
            else:
                with self.client.tracer.span(
                    "join_ordering",
                    t0=at_ms,
                    algorithm="greedy" if self.config.greedy_join_order else "dp",
                    inputs=len(relations),
                ) as span:
                    joined = self._join_planned(
                        relations,
                        span,
                        at_ms,
                        self.config.greedy_join_order,
                        self._join_hints(group),
                    )
                self.client.registry.inc(
                    "mediator_join_rows_total", len(joined), engine=self.client.engine
                )
            self._guard_rows(len(joined))
            components.append(_Component(relation=joined, variables=set(joined.vars)))
        return components

    def _join_hints(self, group: list[tuple[Subquery, Relation]]) -> JoinHints | None:
        """Statistics hints for one eager join group.

        Uses only summaries the provider already fetched this query, so
        building the hints is free in virtual time; returns None (the
        min-rule estimator) when nothing is provable.
        """
        provider = self.client.stats
        hints = JoinHints()
        for index, (subquery, relation) in enumerate(group):
            for variable in relation.vars:
                count = provider.distinct_values(subquery, variable)
                if count is not None:
                    hints.var_counts[(index, variable)] = float(count)
        for i in range(len(group)):
            for j in range(i + 1, len(group)):
                left_sq, left_rel = group[i]
                right_sq, right_rel = group[j]
                for variable in set(left_rel.vars) & set(right_rel.vars):
                    rows = provider.pair_fanout(left_sq, variable, right_sq)
                    if rows is None:
                        continue
                    key = frozenset((i, j))
                    known = hints.pair_rows.get(key)
                    hints.pair_rows[key] = rows if known is None else min(known, rows)
        if not hints.var_counts and not hints.pair_rows:
            return None
        return hints

    def _run_delayed(
        self, subquery: Subquery, components: list[_Component], now: float
    ) -> float:
        bindings = self._bindings_for(components, subquery.variables())
        if bindings is None:
            relation, end = self._execute_subquery(subquery, now)
        elif not bindings[1]:
            # Connected component is empty: the join is empty, skip the
            # remote work entirely.
            relation, end = Relation(self._projection(subquery)), now
        else:
            relation, end = self._execute_bound_subquery(subquery, *bindings, now)
        self._merge_into_components(components, relation, end)
        return end

    def _is_generic(self, subquery: Subquery) -> bool:
        return any(
            isinstance(pattern.predicate, Variable) for pattern in subquery.patterns
        )

    def _combine_components(
        self, components: list[_Component], at_ms: float = 0.0
    ) -> Relation:
        if not components:
            return Relation.unit()
        relations = [component.relation for component in components]
        if len(relations) == 1:
            return relations[0]
        with self.client.tracer.span(
            "mediator_join", t0=at_ms, inputs=len(relations), cross_product=True
        ) as span:
            joined = self._join_planned(relations, span, at_ms, greedy=True)
        self._guard_rows(len(joined))
        return joined

    def _run_optional_group(
        self, subqueries: list[Subquery], base: Relation, now: float
    ) -> tuple[Relation, float]:
        """Evaluate one OPTIONAL block and left-join it onto the base."""
        group_id = subqueries[0].optional_group
        base_component = _Component(relation=base, variables=set(base.vars))
        group_relation: Relation | None = None
        for subquery in sorted(subqueries, key=lambda sq: sq.estimated_cardinality):
            context = [base_component]
            if group_relation is not None:
                context.append(
                    _Component(relation=group_relation, variables=set(group_relation.vars))
                )
            bindings = self._bindings_for(context, subquery.variables())
            if bindings is not None and bindings[1]:
                relation, now = self._execute_bound_subquery(subquery, *bindings, now)
            else:
                relation, now = self._execute_subquery(subquery, now)
            if group_relation is None:
                group_relation = relation
            else:
                group_relation = group_relation.join(relation)
                self.join_cost_units += kernels.last_join_cost()
            self._guard_rows(len(group_relation))
        for expression in self.plan.optional_residue.get(group_id, ()):
            group_relation = group_relation.filter(expression)
        joined = base.left_join(group_relation, self.plan.optional_conditions.get(group_id))
        self.join_cost_units += kernels.last_join_cost()
        return joined, now
