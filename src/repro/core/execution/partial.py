"""Partial evaluation: one whole-query round per endpoint.

The alternative to SAPE's bound-join ladder (Peng/Zou, "Processing
SPARQL queries over distributed RDF graphs"): instead of evaluating the
decomposed branch subquery by subquery — with delayed subqueries costing
one serial round of VALUES blocks each — the mediator ships the *entire
branch* to every selected endpoint in a single ``partial`` request.
Each endpoint returns:

* its **local-complete** matches: whole-branch answer rows derivable
  from local data alone (shipped only to endpoints that can source
  every required fragment — elsewhere the set is provably empty), and
* per required subquery, its **partial matches**: the fragment's local
  rows, pre-pruned by join-value digests so rows whose crossing value
  cannot occur on the other side of the edge at any site never ship.

The mediator assembles the partial matches with the columnar join
kernels exactly like SAPE's eager phase, except every fragment relation
carries a per-fragment *origin column* recording which endpoint each
row came from.  After the join, rows whose origins all agree are
dropped — those are precisely the endpoint-local matches already
delivered as local-complete rows — and the remainder (the genuinely
cross-endpoint matches) is unioned with the local-complete rows.
OPTIONAL groups and residue filters then run unchanged on top.

Digest soundness (see :mod:`repro.store.digests`): a fragment row at
endpoint E is dropped only when, for some other required fragment and
some concrete-predicate pattern end holding the crossing variable, the
row's value is absent from *every* relevant site's digest — so no
assembled row can lose it.  With exactly two required fragments the
digest for E additionally excludes E's own values: a surviving
assembled row must mix two origins, so E-only values can never
contribute (with three or more fragments a mixed row may still reuse E
for the other fragment, hence the exclusion applies only at k=2).

:func:`choose_strategy` is the planner's picker between this path and
the LADE+SAPE bound-join path, driven by the characteristic-set
statistics already collected for the cost model; its estimate of the
crossing selectivity is audited against the measured one through the
EXPLAIN ANALYZE machinery (decision ``strategy``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.decomposition.subquery import DecompositionPlan, Subquery
from repro.core.execution.cost_model import CardinalityEstimates
from repro.core.execution.scheduler import BranchScheduler
from repro.endpoint.cache import MISSING
from repro.rdf.terms import IRI, Variable, is_concrete
from repro.relational.relation import Relation
from repro.sparql.ast import BGP, Filter, GroupPattern, SelectQuery
from repro.sparql.partial import FragmentSpec, PartialSpec
from repro.store.digests import OBJECT, SUBJECT

#: Margin the picker requires before leaving the bound-join incumbent:
#: partial must look at least this much cheaper in estimated virtual
#: time.  Estimates are coarse; a close call stays on the known path.
_PICKER_MARGIN = 0.9


def _origin_variable(subquery_id: int) -> Variable:
    """The per-fragment origin column (never collides with query vars)."""
    return Variable(f"__src{subquery_id}")


def _origin_term(endpoint_name: str) -> IRI:
    return IRI(f"urn:partial-origin:{endpoint_name}")


def _crossing_ends(subquery: Subquery, variable: Variable):
    """Concrete-predicate pattern ends of ``subquery`` holding ``variable``.

    Yields ``(predicate, position)`` pairs; each is one digest a value
    must appear in for the variable to bind at this fragment.  Patterns
    with variable predicates yield nothing (no digest constraint).
    """
    for pattern in subquery.patterns:
        if not is_concrete(pattern.predicate):
            continue
        if pattern.subject == variable:
            yield pattern.predicate, SUBJECT
        if pattern.object == variable:
            yield pattern.predicate, OBJECT


def _digest_keys(required: list[Subquery], sources=lambda subquery: subquery.sources):
    """``(source, predicate, position)`` of every digest a partial round
    over ``required`` embeds: per fragment, each end constraining a
    variable it shares with another fragment, at each of its sources."""
    for subquery in required:
        other_vars = {
            var
            for other in required
            if other.id != subquery.id
            for var in other.variables()
        }
        for variable in subquery.variables() & other_vars:
            for predicate, position in _crossing_ends(subquery, variable):
                for source in sources(subquery):
                    yield source, predicate, position


class PartialBranchScheduler(BranchScheduler):
    """Executes one branch with the partial-evaluation strategy.

    Only the required phase differs from :class:`BranchScheduler`:
    OPTIONAL groups, residue filters, kernel accounting and the
    partial-results degradation mode are all inherited.
    """

    #: Until a round measures it (and for one with nothing to prune).
    crossing_selectivity = 1.0
    #: Fragment rows the digests dropped at the endpoints, last round.
    fragment_rows_pruned = 0

    def _run_required(self, at_ms: float) -> tuple[Relation, float, bool]:
        required = self.plan.required_subqueries()
        with self.client.tracer.span(
            "partial_round", t0=at_ms, subqueries=[sq.id for sq in required]
        ) as span:
            mark = self.client.metrics.mark()
            relation, now = self._partial_round(required, at_ms)
            span.set(
                rows=len(relation),
                requests=self.client.metrics.requests_since(mark),
                pruned_rows=self.fragment_rows_pruned,
            ).end(now)
        return relation, now, True

    def _partial_round(
        self, required: list[Subquery], now: float
    ) -> tuple[Relation, float]:
        """The single partial round plus mediator-side assembly."""
        projections = {sq.id: self._projection(sq) for sq in required}
        branch_projection = tuple(
            sorted(
                {var for sq in required for var in projections[sq.id]},
                key=lambda v: v.name,
            )
        )
        complete_query = self._complete_query(required, branch_projection)

        digest_map, now = self._gather_digests(required, now)

        # Fan out: one partial request per endpoint, all at the same
        # virtual instant — the round ends when the slowest reply lands.
        live_sources = {sq.id: self._live(sq.sources) for sq in required}
        endpoints = list(
            dict.fromkeys(
                endpoint for sq in required for endpoint in live_sources[sq.id]
            )
        )
        complete_sources = set.intersection(*(set(live_sources[sq.id]) for sq in required))

        finish = now
        results: dict[str, object] = {}
        for endpoint in endpoints:
            spec = self._spec_for(
                endpoint,
                required,
                projections,
                live_sources,
                complete_sources,
                complete_query,
                digest_map,
            )
            if spec.complete is None and not spec.fragments:
                continue
            result, end = self._fetch(self.client.partial, endpoint, spec, at_ms=now)
            finish = max(finish, end)
            if result is not None:
                results[endpoint] = result
        now = finish

        relation = self._assemble(required, projections, branch_projection, results, now)
        return relation, now

    # ----------------------------------------------------------- requests

    def _complete_query(
        self, required: list[Subquery], projection: tuple[Variable, ...]
    ) -> SelectQuery:
        """The whole-branch SELECT whose local answers are the LC matches.

        Built exactly like the fragment SELECTs (same non-distinct bag
        semantics), so an endpoint's local-complete rows carry the same
        multiplicities as the join of its own fragment rows — the
        invariant the same-origin deduplication relies on.
        """
        patterns = tuple(p for sq in required for p in sq.patterns)
        elements = [BGP(patterns)]
        for sq in required:
            for expression in sq.filters:
                elements.append(Filter(expression))
        return SelectQuery(
            where=GroupPattern(elements),
            select_vars=projection if projection else None,
        )

    def _gather_digests(
        self, required: list[Subquery], now: float
    ) -> tuple[dict, float]:
        """Fetch every digest the fragment specs will embed, in parallel.

        Keys are ``(source, predicate, position)``; fetches ride the
        cached ``stats`` metadata path, so after the first query over a
        federation state this costs one cache hit per key.
        """
        digest_map: dict = {}
        wanted = set(_digest_keys(required, lambda subquery: self._live(subquery.sources)))
        finish = now
        for source, predicate, position in sorted(
            wanted, key=lambda item: (item[0], repr(item[1]), item[2])
        ):
            digest, end = self._fetch(
                self.client.join_digest, source, predicate, position, at_ms=now
            )
            finish = max(finish, end)
            if digest is not None:
                digest_map[(source, predicate, position)] = digest
        return digest_map, finish

    def _digests_for(
        self,
        subquery: Subquery,
        projections: dict[int, tuple[Variable, ...]],
        required: list[Subquery],
        live_sources: dict[int, tuple[str, ...]],
        digest_map: dict,
        endpoint: str,
    ) -> tuple:
        """Pruning digests for one fragment at one endpoint.

        For each crossing variable, the allowed set is the intersection
        over the *other* fragments sharing it (and over each such
        fragment's constraining pattern ends) of the union of the
        relevant sites' digests.  With exactly two required fragments
        the evaluating endpoint's own digests are excluded from the
        union — see the module docstring for why that is sound only
        at k=2.
        """
        exclude_self = len(required) == 2
        pairs = []
        for variable in projections[subquery.id]:
            allowed: set | None = None
            for other in required:
                if other.id == subquery.id or variable not in other.variables():
                    continue
                constraint: set | None = None
                for predicate, position in _crossing_ends(other, variable):
                    union: set = set()
                    usable = True
                    for source in live_sources[other.id]:
                        if exclude_self and source == endpoint:
                            continue
                        digest = digest_map.get((source, predicate, position))
                        if digest is None:
                            usable = False
                            break
                        union |= digest
                    if not usable:
                        continue
                    constraint = union if constraint is None else constraint & union
                if constraint is not None:
                    allowed = constraint if allowed is None else allowed & constraint
            if allowed is not None:
                pairs.append((variable, frozenset(allowed)))
        return tuple(pairs)

    def _spec_for(
        self,
        endpoint: str,
        required: list[Subquery],
        projections: dict[int, tuple[Variable, ...]],
        live_sources: dict[int, tuple[str, ...]],
        complete_sources: set[str],
        complete_query: SelectQuery,
        digest_map: dict,
    ) -> PartialSpec:
        fragments = []
        if len(required) > 1:
            for subquery in required:
                if endpoint not in live_sources[subquery.id]:
                    continue
                fragments.append(
                    FragmentSpec(
                        subquery.id,
                        subquery.to_select(projections[subquery.id]),
                        self._digests_for(
                            subquery, projections, required,
                            live_sources, digest_map, endpoint,
                        ),
                    )
                )
        complete = complete_query if endpoint in complete_sources else None
        return PartialSpec(complete, tuple(fragments))

    # ----------------------------------------------------------- assembly

    def _assemble(
        self,
        required: list[Subquery],
        projections: dict[int, tuple[Variable, ...]],
        branch_projection: tuple[Variable, ...],
        results: dict,
        now: float,
    ) -> Relation:
        local_complete = Relation(branch_projection, partitions=1)
        for endpoint, result in results.items():
            if result.complete is not None:
                local_complete.rows.extend(result.complete)
        self._guard_rows(len(local_complete))
        if len(required) < 2:
            return local_complete

        shipped = 0
        pruned = 0
        fragment_relations: list[tuple[Subquery, Relation]] = []
        for subquery in required:
            projection = projections[subquery.id]
            origin_var = _origin_variable(subquery.id)
            relation = Relation((*projection, origin_var), partitions=1)
            for endpoint, result in results.items():
                origin = _origin_term(endpoint)
                for fragment in result.fragments:
                    if fragment.id != subquery.id:
                        continue
                    rows = fragment.result.rows
                    relation.rows.extend((*row, origin) for row in rows)
                    shipped += len(rows)
                    pruned += fragment.pruned_rows
            self._guard_rows(len(relation))
            fragment_relations.append((subquery, relation))
        self.fragment_rows_pruned = pruned
        if shipped + pruned:
            self.crossing_selectivity = shipped / (shipped + pruned)

        components = self._join_eager(fragment_relations, now)
        assembled = self._combine_components(components, now)
        assembled = self._drop_same_origin(
            assembled, [_origin_variable(sq.id) for sq in required]
        )
        assembled = assembled.project(branch_projection)
        relation = assembled.union(local_complete)
        self._guard_rows(len(relation))
        return relation

    def _drop_same_origin(
        self, relation: Relation, origin_vars: list[Variable]
    ) -> Relation:
        """Drop rows whose origin columns all name the same endpoint.

        Those rows are endpoint-local joins — exactly the set delivered
        (with identical multiplicities) as that endpoint's local-complete
        matches — so keeping them would double-count.
        """
        if len(relation) == 0:
            return relation
        indexes = [relation.vars.index(var) for var in origin_vars]
        columns = relation.columns
        first = columns[indexes[0]]
        rest = [columns[i] for i in indexes[1:]]
        keep = [
            i
            for i in range(len(relation))
            if any(column[i] != first[i] for column in rest)
        ]
        if len(keep) == len(relation):
            return relation
        kept_columns = [[column[i] for i in keep] for column in columns]
        return Relation._from_columns(
            relation.vars, kept_columns, len(keep), partitions=relation.partitions
        )


# --------------------------------------------------------------------------
# Strategy picker


@dataclass
class StrategyDecision:
    """The picker's verdict plus the estimates behind it (for the audit)."""

    strategy: str
    estimated_crossing_selectivity: float
    est_partial_rows: float = 0.0
    est_bound_rows: float = 0.0
    est_partial_ms: float = 0.0
    est_bound_ms: float = 0.0
    reason: str = ""


def _fragment_selectivities(
    required: list[Subquery], provider
) -> dict[int, float]:
    """Charset-based per-fragment digest-pruning survival estimates.

    For each fragment and crossing variable: the other fragments can
    bind at most their own distinct-value count for that variable, so a
    fragment with many more distinct crossing values than its partners
    will mostly be pruned.  Each fragment's survival is the min over
    its crossing variables of ``min(1, other_distinct / own_distinct)``
    (every digest must pass independently); fragments with no usable
    statistics keep 1.0, and the audit tracks how honest this is.
    """
    survival = {sq.id: 1.0 for sq in required}
    if len(required) < 2:
        return survival
    for subquery in required:
        other_vars: dict[Variable, float] = {}
        for other in required:
            if other.id == subquery.id:
                continue
            for variable in subquery.variables() & other.variables():
                count = provider.distinct_values(other, variable)
                if count is None:
                    continue
                other_vars[variable] = min(
                    other_vars.get(variable, float("inf")), float(count)
                )
        for variable, other_count in other_vars.items():
            own = provider.distinct_values(subquery, variable)
            if own is None or own <= 0:
                continue
            survival[subquery.id] = min(
                survival[subquery.id], min(1.0, other_count / float(own))
            )
    return survival


def _digests_are_cold(required: list[Subquery], client) -> bool:
    """Whether the partial round must be preceded by a digest fetch round.

    Peeks at the engine-level digest cache (no counters touched) for
    the keys the round will request: a digest is warm only while its
    cached store version still matches the endpoint's.
    """
    cache = client.caches.digest
    for key in _digest_keys(required):
        hit = cache.peek(key)
        if hit is MISSING or hit[0] != client.federation.get(key[0]).store.version:
            return True
    return False


def choose_strategy(
    plan: DecompositionPlan,
    needed_vars: set[Variable],
    estimates: CardinalityEstimates,
    client,
) -> StrategyDecision:
    """Pick partial vs. bound-join for one branch from planner estimates.

    Pure arithmetic over statistics the analysis phase already holds:
    never issues a request, so the decision is free in virtual time.
    The coarse virtual-cost model mirrors the simulator's shape — a
    per-round latency term plus a per-row transfer term — with partial
    paying one round and its digest-discounted fragment volume, and
    bound-join paying one eager round plus one serial round per delayed
    subquery over its estimated response volume.
    """
    required = plan.required_subqueries()
    if len(required) < 2:
        return StrategyDecision(
            "bound-join", 1.0, reason="single required subquery"
        )

    network_config = client.config
    extents = {
        sq.id: sum(
            estimates.endpoint_cardinality(sq, endpoint, needed_vars)
            for endpoint in sq.sources
        )
        for sq in required
    }
    survival = _fragment_selectivities(required, client.stats)

    est_partial_rows = sum(
        survival[sq.id] * extents[sq.id] for sq in required
    )
    total_extent = sum(extents.values())
    # Volume-weighted survival: directly comparable to the shipped /
    # (shipped + pruned) fraction the partial round measures.
    selectivity = est_partial_rows / total_extent if total_extent else 1.0
    delayed = [sq for sq in required if sq.delayed]
    # Eager subqueries ship unpruned; a delayed subquery's VALUES-bound
    # replies are already join-filtered by the eager bindings, which is
    # first-order the same cut a digest applies — so the same survival
    # fraction discounts them.
    est_bound_rows = sum(
        extents[sq.id] for sq in required if not sq.delayed
    ) + sum(
        survival[sq.id] * sq.estimated_cardinality for sq in delayed
    )

    regions = [
        client.federation.get(endpoint).region
        for sq in required
        for endpoint in sq.sources
    ]
    mean_rtt = (
        sum(network_config.rtt(region) for region in regions) / len(regions)
        if regions
        else 0.0
    )
    latency_ms = network_config.request_overhead_ms + mean_rtt
    row_ms = network_config.row_transfer_ms + network_config.eval_row_ms
    # A cold digest cache costs partial one extra metadata round before
    # anything ships, but the digests are engine-level and version
    # checked — like the charset summaries, a one-time investment per
    # federation state.  The comparison therefore uses the steady-state
    # (warm) cost: when partial wins there, it is worth bootstrapping
    # the digests on this run even though this run pays two rounds.
    cold = _digests_are_cold(required, client)
    est_partial_ms = (2 if cold else 1) * latency_ms + est_partial_rows * row_ms
    warm_partial_ms = latency_ms + est_partial_rows * row_ms
    est_bound_ms = (1 + len(delayed)) * latency_ms + est_bound_rows * row_ms

    if warm_partial_ms < est_bound_ms * _PICKER_MARGIN:
        return StrategyDecision(
            "partial",
            selectivity,
            est_partial_rows,
            est_bound_rows,
            est_partial_ms,
            est_bound_ms,
            reason=(
                "partial round estimated cheaper (bootstrapping digests)"
                if cold
                else "partial round estimated cheaper"
            ),
        )
    return StrategyDecision(
        "bound-join",
        selectivity,
        est_partial_rows,
        est_bound_rows,
        est_partial_ms,
        est_bound_ms,
        reason="bound-join ladder estimated cheaper",
    )
