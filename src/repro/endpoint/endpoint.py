"""A simulated SPARQL endpoint.

An endpoint wraps a :class:`~repro.store.TripleStore` with the SPARQL
evaluator and a region tag.  It is the stand-in for the Jena Fuseki /
Virtuoso instances the paper deployed: federation engines only talk to it
through :class:`~repro.endpoint.client.FederationClient`, which adds the
virtual network costs.

The store and the compiled plans work on this endpoint's private
integer term ids (see :attr:`Endpoint.dictionary`), and so does what
``select()`` returns: a :class:`~repro.sparql.result.SelectResult`
holding id columns plus a reference to the dictionary that minted them
(over a real transport: the columns and the dictionary entries the
mediator has not been sent yet).  Ids from different endpoints are
incomparable, so the mediator translates them into its shared codec on
ingest (:func:`repro.relational.relation.mediator_codec`), each
distinct term once; the dictionary is append-only, so a mutation
between two requests never invalidates what was translated.  Terms
appear only when a caller reads ``result.rows``.
"""

from __future__ import annotations

from time import perf_counter
from typing import Iterable

from repro.endpoint.cache import MISSING, PlanCache
from repro.exceptions import EvaluationError
from repro.net import regions as regions_module
from repro.rdf.triple import Triple, TriplePattern
from repro.sparql.ast import BGP, AskQuery, ExistsExpr, Filter, Query, SelectQuery
from repro.sparql.result import SelectResult
from repro.sparql.partial import FragmentResult, PartialResult, PartialSpec, prune_rows
from repro.sparql.plan import CompiledPlan, compile_query, split_parameters
from repro.sparql.skeleton import Canonicalized, canonicalize_query, is_fragment_shape
from repro.store.triple_store import TripleStore


def _is_single_pattern_count(query: Query) -> bool:
    """True for single-triple-pattern aggregate COUNT probes.

    For these the compiled plan is predicate-independent (one probe, no
    ordering choice), so the predicate is lifted into the parameter
    VALUES block too: COUNT statistics probes about *different
    predicates* then collapse onto one cached plan per endpoint instead
    of one per predicate.
    """
    if not isinstance(query, SelectQuery) or query.aggregate is None or query.order_by:
        return False
    triple_count = 0
    for element in query.where.elements:
        if isinstance(element, BGP):
            triple_count += len(element.triples)
        elif not isinstance(element, Filter):
            return False
    return triple_count == 1


def _is_probe_shape(query: Query) -> bool:
    """True for the probe families worth skeleton-canonicalizing.

    ASK queries, COUNT statistics probes, and ``LIMIT 1`` locality
    checks (an EXISTS filter at the top level) are structurally
    repetitive: only variable names and embedded constants vary, so
    canonicalization collapses them onto shared compiled plans.  Full
    retrieval SELECTs are left alone — lifting their constants into
    parameters would degrade the statistics the probe ordering uses.
    """
    if isinstance(query, AskQuery):
        return True
    if not isinstance(query, SelectQuery):
        return False
    if query.aggregate is not None and not query.order_by:
        return True
    return query.limit == 1 and any(
        isinstance(el, Filter) and isinstance(el.expression, ExistsExpr)
        for el in query.where.elements
    )


class Endpoint:
    """One independently administered SPARQL endpoint."""

    def __init__(
        self,
        name: str,
        triples: Iterable[Triple] = (),
        region: str = regions_module.LOCAL,
    ):
        self.name = name
        self.region = region
        self.store = TripleStore(name=name)
        self.store.add_all(triples)
        #: Characteristic-set summary maintainer (repro.store.charsets),
        #: created lazily by :meth:`charset_summary`; None until the
        #: statistics path first asks for a summary.
        self._charset_maintainer = None
        #: Join-value digest index (repro.store.digests), created lazily
        #: by :meth:`join_digest`; None until partial evaluation first
        #: asks for a fingerprint set.
        self._digest_index = None
        #: Failure injection: an unavailable endpoint refuses requests,
        #: which engines surface as a runtime error (the paper's plots
        #: annotate such runs as errors rather than timeouts).
        self.available = True
        #: Real public endpoints cap result sizes (e.g. Virtuoso's
        #: default 10K-row limit on Bio2RDF).  When set, SELECT results
        #: are silently truncated — engines that fetch whole extents
        #: lose rows, while bound/selective strategies stay correct.
        self.result_limit: int | None = None
        #: Compiled physical plans, keyed on the query skeleton (VALUES
        #: rows stripped): every bound-join block of one subquery reuses
        #: a single compiled plan.
        self.plan_cache = PlanCache()
        #: Cumulative wall-clock split between query compilation and
        #: plan execution, mirrored into the metrics registry by the
        #: federation client and shown by the profile CLI.
        self.plan_compile_s = 0.0
        self.plan_execute_s = 0.0

    def __repr__(self) -> str:
        return f"Endpoint({self.name!r}, region={self.region!r}, triples={len(self.store)})"

    def __len__(self) -> int:
        return len(self.store)

    @property
    def dictionary(self):
        """This endpoint's private term dictionary.

        Ids are endpoint-local: the same IRI generally has different ids
        at different endpoints, which is why a result leaving
        ``select()`` names the dictionary its id columns belong to.
        """
        return self.store.dictionary

    # ------------------------------------------------------------- queries

    def _canonicalize(self, query: Query) -> tuple[Query, Canonicalized | None]:
        """Skeleton-canonicalize probe-shaped queries before keying.

        Check / COUNT / ASK probes differ only in variable names and
        constants; canonicalization (:mod:`repro.sparql.skeleton`) maps
        them onto shared cache keys so each probe *shape* compiles once.
        Returns the (possibly rewritten) query plus the restore handle.
        """
        if not _is_probe_shape(query):
            return query, None
        canonical = canonicalize_query(query, lift_predicates=_is_single_pattern_count(query))
        if canonical is None:
            return query, None
        return canonical.query, canonical

    def _plan_for(
        self, query: Query
    ) -> tuple[CompiledPlan, tuple, Canonicalized | None]:
        """Cached compiled plan for ``query`` plus its VALUES blocks.

        The cache key is the skeleton with VALUES rows stripped — and,
        for probe-shaped queries, variable names normalized and
        constants lifted into a parameter block — so a bound-join
        re-issuing one subquery with fresh blocks, or a probe family
        re-issued over different patterns, compiles exactly once.
        Stale plans (store mutated since compilation) are dropped by
        the cache and recompiled here.
        """
        query, canonical = self._canonicalize(query)
        skeleton, params = split_parameters(query)
        plan = self.plan_cache.get_plan(skeleton)
        if plan is MISSING:
            started = perf_counter()
            plan = compile_query(self.store, skeleton)
            self.plan_compile_s += perf_counter() - started
            self.plan_cache.put(skeleton, plan)
        return plan, params, canonical

    def select(self, query: SelectQuery) -> SelectResult:
        """Run a SELECT query locally (truncated at ``result_limit``)."""
        plan, params, canonical = self._plan_for(query)
        started = perf_counter()
        result = plan.execute_select(params, max_rows=self.result_limit)
        self.plan_execute_s += perf_counter() - started
        if canonical is not None:
            result = canonical.restore(result)
        return result

    def _fragment_select(self, query: SelectQuery) -> SelectResult:
        """Run one partial-evaluation SELECT through the plan cache.

        Fragment-shaped queries (flat BGP + FILTER SELECTs, see
        :func:`repro.sparql.skeleton.is_fragment_shape`) are skeleton-
        canonicalized first, so branch fragments that differ only in
        variable names or embedded constants replay one compiled plan
        with fresh parameter bindings.
        """
        canonical = canonicalize_query(query) if is_fragment_shape(query) else None
        plan, params, _probe_canonical = self._plan_for(
            query if canonical is None else canonical.query
        )
        started = perf_counter()
        result = plan.execute_select(params, max_rows=self.result_limit)
        self.plan_execute_s += perf_counter() - started
        if canonical is not None:
            result = canonical.restore(result)
        return result

    def partial_evaluate(self, spec: PartialSpec) -> PartialResult:
        """Answer one partial-evaluation round (the whole branch at once).

        Evaluates the local-complete whole-branch query (when shipped)
        and every fragment SELECT locally, then applies each fragment's
        join-value digests so rows that cannot participate in any
        cross-endpoint match never reach the wire.
        """
        complete = None
        if spec.complete is not None:
            complete = self._fragment_select(spec.complete)
        fragments: list[FragmentResult] = []
        for fragment in spec.fragments:
            result = self._fragment_select(fragment.query)
            kept, pruned = prune_rows(result, fragment.digests)
            result.rows = kept
            fragments.append(FragmentResult(fragment.id, result, pruned))
        return PartialResult(complete, fragments)

    def join_digest(self, predicate, position) -> frozenset[int]:
        """Fingerprints of this store's values for ``predicate`` at
        ``position`` (see :mod:`repro.store.digests`); lazily built and
        invalidated with ``store.version``."""
        index = self._digest_index
        if index is None:
            from repro.store.digests import JoinDigestIndex

            index = self._digest_index = JoinDigestIndex(self.store)
        return index.digest(predicate, position)

    def ask(self, query: AskQuery) -> bool:
        """Run an ASK query locally."""
        plan, params, _canonical = self._plan_for(query)
        started = perf_counter()
        result = plan.execute_ask(params)
        self.plan_execute_s += perf_counter() - started
        return result

    def audit_probes(self, query: SelectQuery) -> list[dict]:
        """Probe-order audit records for one SELECT (observability only).

        Re-executes the *cached* compiled plan op by op (see
        :meth:`CompiledPlan.audit_probes`) to measure the actual
        matches-per-row behind each probe's compile-time estimate.  The
        plan is fetched with a counter-neutral peek and the re-run does
        not feed ``plan_execute_s``, so auditing never perturbs
        plan-cache statistics or the compile/execute split.  Empty when
        the plan is not cached (capacity 0).
        """
        query, _canonical = self._canonicalize(query)
        skeleton, params = split_parameters(query)
        plan = self.plan_cache.peek_plan(skeleton)
        if plan is MISSING:
            return []
        return plan.audit_probes(params)

    def ask_pattern(self, pattern: TriplePattern) -> bool:
        """ASK over one triple pattern (the source-selection probe)."""
        return self.store.ask(pattern.subject, pattern.predicate, pattern.object)

    def count_pattern(self, pattern: TriplePattern) -> int:
        """COUNT over one triple pattern (the SAPE statistics probe)."""
        return self.store.count(pattern.subject, pattern.predicate, pattern.object)

    def evaluate(self, query: Query):
        if isinstance(query, SelectQuery):
            return self.select(query)
        if isinstance(query, AskQuery):
            return self.ask(query)
        raise EvaluationError(f"unsupported query type {type(query).__name__}")

    def plan_stats(self) -> tuple[int, int, int, float, float]:
        """(hits, misses, evictions, compile_s, execute_s) snapshot.

        The federation client diffs consecutive snapshots to mirror
        per-request plan-cache activity into the metrics registry.
        """
        cache = self.plan_cache
        return (
            cache.hits,
            cache.misses,
            cache.evictions,
            self.plan_compile_s,
            self.plan_execute_s,
        )

    def charset_summary(self):
        """The endpoint's current characteristic-set summary.

        Built lazily on first use from the store's id-space columns and
        kept current by the :class:`~repro.store.charsets.CharsetMaintainer`:
        mutations through :meth:`add` / :meth:`remove` are applied as
        incremental deltas, bulk loads and out-of-band store mutations
        (detected through ``store.version``) trigger a full recompute.
        """
        maintainer = self._charset_maintainer
        if maintainer is None:
            from repro.store.charsets import CharsetMaintainer

            maintainer = self._charset_maintainer = CharsetMaintainer(self.store)
        return maintainer.summary()

    def add(self, triple: Triple) -> bool:
        added = self.store.add(triple)
        if added and self._charset_maintainer is not None:
            self._charset_maintainer.record_add(triple)
        return added

    def add_all(self, triples: Iterable[Triple]) -> int:
        added = self.store.add_all(triples)
        if added and self._charset_maintainer is not None:
            self._charset_maintainer.record_bulk()
        return added

    def remove(self, triple: Triple) -> bool:
        removed = self.store.remove(triple)
        if removed and self._charset_maintainer is not None:
            self._charset_maintainer.record_remove(triple)
        return removed
