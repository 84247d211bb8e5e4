"""Multi-query optimization (paper Sec V: "Lusail also supports
multi-query optimization").

When a batch of queries is decomposed by LADE, different queries often
produce identical subqueries (same patterns, same filters, same relevant
endpoints).  The multi-query executor evaluates each distinct *eager*
subquery once per batch and shares the shipped relation across queries,
on top of the ASK/check/COUNT caches the engine already shares.

Matching goes through :class:`SubqueryMatcher`, which keys subqueries on
their **canonical skeleton** (:func:`repro.sparql.skeleton.canonicalize_query`)
rather than raw structure: two subqueries that differ only in variable
names share one key, while embedded constants stay part of the key as
lifted VALUES data and the relevant-endpoint set always participates.
In-flight cross-query sharing in the serving layer does *not* go through
this matcher: ``QueryServer.subquery_key`` canonicalises each shipped
SELECT on its own (same :func:`canonicalize_query`, per endpoint, no
source set in the key), so the two mechanisms agree on variable renaming
but are separate code.

A batch's :class:`SharedSubqueryCache` is a value handed to every
scheduler the batch builds (``BranchScheduler._execute_subquery`` reads
it).  Delayed subqueries are not stored: their results depend on the
bindings found by the rest of their own query.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.engine import LusailEngine
from repro.planning.base_engine import ExecutionOutcome
from repro.rdf.terms import Variable
from repro.relational.relation import Relation
from repro.sparql.ast import SelectQuery
from repro.sparql.skeleton import canonicalize_query


class SubqueryMatcher:
    """Canonical-skeleton keys for cross-query subquery matching.

    ``canonical(subquery)`` returns ``(key, rename)``: a hashable key
    two structurally-equivalent subqueries share regardless of variable
    naming, and the injective original→canonical variable map needed to
    translate relations between the two namings.  Keys always include
    the subquery's relevant-endpoint set — the same patterns evaluated
    against different sources ship different relations.

    Canonicalization is memoized on the raw structural key, so repeated
    lookups for the same decomposition output are dictionary-cheap.
    """

    __slots__ = ("_memo",)

    def __init__(self):
        self._memo: dict[tuple, tuple] = {}

    @staticmethod
    def raw_key(subquery) -> tuple:
        return (subquery.patterns, subquery.filters, subquery.sources)

    @staticmethod
    def _occurrence_order(subquery) -> tuple:
        """All subquery variables, ordered by first occurrence in the
        patterns (then filters).  Projecting the skeleton query in this
        order keeps the canonical rename independent of the original
        variable *names* — a sorted SELECT * projection would leak them.
        """
        order: list = []
        seen: set = set()
        for pattern in subquery.patterns:
            for term in (pattern.subject, pattern.predicate, pattern.object):
                if isinstance(term, Variable) and term not in seen:
                    seen.add(term)
                    order.append(term)
        for expression in subquery.filters:
            for variable in sorted(
                expression.variables() - seen, key=lambda v: v.name
            ):
                seen.add(variable)
                order.append(variable)
        return tuple(order)

    def canonical(self, subquery) -> tuple[tuple, dict]:
        raw = self.raw_key(subquery)
        entry = self._memo.get(raw)
        if entry is None:
            query = subquery.to_select(self._occurrence_order(subquery))
            canon = canonicalize_query(query)
            if canon is None:  # defensive: to_select(()) has no VALUES
                entry = (("raw", raw), {})
            else:
                entry = (("skeleton", canon.query, subquery.sources), canon.rename)
            self._memo[raw] = entry
        return entry

    def key(self, subquery) -> tuple:
        return self.canonical(subquery)[0]


@dataclass
class SharedSubqueryCache:
    """Batch-scoped store of evaluated subquery relations.

    Relations are stored under **canonical** variable names; lookups
    rename them (column adoption, no row copies) into the requesting
    subquery's own namespace.
    """

    matcher: SubqueryMatcher = field(default_factory=SubqueryMatcher)
    relations: dict[tuple, Relation] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0

    def key(self, subquery) -> tuple:
        return self.matcher.key(subquery)

    def get(self, subquery, projection) -> Relation | None:
        """A cached relation covering ``projection``, renamed for the
        requester, or None (counted as a miss)."""
        key, rename = self.matcher.canonical(subquery)
        cached = self.relations.get(key)
        if cached is not None:
            needed = {rename.get(var, var) for var in projection}
            if needed <= set(cached.vars):
                self.hits += 1
                return self._rename(cached, rename, tuple(projection))
        self.misses += 1
        return None

    @staticmethod
    def _rename(cached: Relation, rename: dict, projection: tuple) -> Relation:
        inverse = {canon: orig for orig, canon in rename.items()}
        requester_vars = tuple(inverse.get(var, var) for var in cached.vars)
        # The relation is already on the mediator: no remote requests,
        # no added virtual time.  Adopt the cached columns under the
        # requester's names — relational operators never mutate inputs.
        renamed = Relation._from_columns(
            requester_vars, cached.columns, len(cached), partitions=cached.partitions
        )
        if requester_vars == projection:
            return renamed
        # Narrower need: re-project (a per-column copy).
        reused = renamed.project(projection)
        reused.partitions = cached.partitions
        return reused

    def put(self, subquery, relation: Relation) -> None:
        """Store ``relation`` unless a wider projection is already cached."""
        key, rename = self.matcher.canonical(subquery)
        existing = self.relations.get(key)
        if existing is not None and len(existing.vars) > len(relation.vars):
            return
        canonical_vars = tuple(rename.get(var, var) for var in relation.vars)
        self.relations[key] = Relation._from_columns(
            canonical_vars, relation.columns, len(relation), partitions=relation.partitions
        )


@dataclass
class BatchOutcome:
    """Results of a batch execution plus sharing statistics."""

    outcomes: list[ExecutionOutcome]
    shared_hits: int
    shared_misses: int
    total_requests: int

    def __iter__(self):
        return iter(self.outcomes)


class MultiQueryExecutor:
    """Execute a batch of queries with cross-query subquery sharing."""

    def __init__(self, engine: LusailEngine):
        self.engine = engine

    def execute_batch(self, queries: list[SelectQuery | str]) -> BatchOutcome:
        """One fresh cache per batch, reached through the batch's own
        engine value (:meth:`LusailEngine.sharing`): the caller's engine
        is not modified, so batches running on other engines or threads,
        or nested inside this one, can neither see this cache nor switch
        it off."""
        cache = SharedSubqueryCache()
        engine = self.engine.sharing(cache)
        outcomes = [engine.execute(query) for query in queries]
        total_requests = sum(outcome.metrics.request_count() for outcome in outcomes)
        return BatchOutcome(
            outcomes=outcomes,
            shared_hits=cache.hits,
            shared_misses=cache.misses,
            total_requests=total_requests,
        )
