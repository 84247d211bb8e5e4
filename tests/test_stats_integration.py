"""Integration tests for the characteristic-set statistics provider.

Covers the planner-facing contract of ``repro.planning.stats``: summary
answers must be *sound* wherever they replace a probe (check verdicts,
ASK pruning), *accurate* where they replace COUNT estimates (q-error
audited against exact local counts), and *invisible* in the answers —
every engine must return the union-store oracle's rows.  Where a summary
cannot prove an answer the remote probe runs; each fallback is pinned
with its exact request count.  Also pins the
``refine_sources_with_bindings`` edge cases.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decomposition.check_queries import checks_for_pair
from repro.core.decomposition.gjv import join_entities
from repro.core.decomposition.subquery import Subquery
from repro.core.execution.cost_model import collect_statistics, count_query
from repro.datasets import lubm
from repro.endpoint import Endpoint, EngineCaches, Federation, FederationClient
from repro.harness.profiling import profile_query
from repro.harness.runner import ENGINE_ORDER, make_engines
from repro.net import metrics as metrics_module
from repro.net.simulator import local_cluster_config
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from repro.planning.source_selection import refine_sources_with_bindings, select_sources
from repro.rdf import IRI, RDF_TYPE, UB, Triple, TriplePattern, Variable
from repro.sparql.ast import Comparison, TermExpr, VarExpr

from tests.conftest import QA, build_paper_federation, oracle_rows

S, P, U, C, A = (Variable(name) for name in "SPUCA")

TP_ADVISOR = TriplePattern(S, UB.advisor, P)
TP_TAKES = TriplePattern(S, UB.takesCourse, C)
TP_TEACHER = TriplePattern(P, UB.teacherOf, C)
TP_PHD = TriplePattern(P, UB.PhDDegreeFrom, U)
TP_ADDRESS = TriplePattern(U, UB.address, A)
QA_PATTERNS = [TP_ADVISOR, TP_TAKES, TP_TEACHER, TP_PHD, TP_ADDRESS]

MIT = IRI("http://mit.example.org/MIT")
NOWHERE = IRI("http://nowhere.example/u")


def make_client(federation=None):
    return FederationClient(
        federation or build_paper_federation(), local_cluster_config(), EngineCaches()
    )


class TestRefineSourcesEdgeCases:
    """Satellite: ``refine_sources_with_bindings`` corner cases."""

    def test_empty_binding_set_prunes_everything(self):
        # No bindings means no evidence any endpoint can contribute: the
        # delayed pattern's remote evaluation would join against nothing.
        client = make_client()
        names = client.federation.names()
        relevant, end = refine_sources_with_bindings(client, [], names, 0.0)
        assert relevant == ()
        assert end == 0.0  # no probes shipped

    def test_all_endpoints_pruned(self):
        # A binding that exists nowhere rules out every candidate.
        client = make_client()
        bound = [TriplePattern(P, UB.PhDDegreeFrom, NOWHERE)]
        relevant, __ = refine_sources_with_bindings(client, bound, client.federation.names(), 0.0)
        assert relevant == ()

    def test_only_source_failing_probe_yields_empty(self):
        # EP2 has no ub:address for MIT; with EP2 as the only candidate
        # the refinement must come back empty instead of keeping it.
        client = make_client()
        bound = [TriplePattern(MIT, UB.address, A)]
        relevant, __ = refine_sources_with_bindings(client, bound, ("EP2",), 0.0)
        assert relevant == ()

    def test_matching_binding_keeps_endpoint(self):
        client = make_client()
        bound = [TriplePattern(MIT, UB.address, A)]
        relevant, __ = refine_sources_with_bindings(client, bound, client.federation.names(), 0.0)
        assert relevant == ("EP1",)

    def test_summary_verdicts_skip_ask_probes(self):
        # The misses above are proven from the characteristic sets; no
        # ASK traffic reaches the wire.
        client = make_client()
        bound = [TriplePattern(P, UB.PhDDegreeFrom, NOWHERE)]
        refine_sources_with_bindings(client, bound, client.federation.names(), 0.0)
        assert client.metrics.requests_by_kind().get(metrics_module.ASK, 0) == 0

    def test_provider_and_probe_paths_agree(self):
        # A bound subject is beyond the summaries: each candidate is
        # settled by an ASK, and what is kept is what the endpoints'
        # exact local ASKs say.
        bound = [TriplePattern(MIT, UB.address, A)]
        client = make_client()
        names = client.federation.names()
        kept, __ = refine_sources_with_bindings(client, bound, names, 0.0)
        exact = tuple(
            name for name in names if client.federation.get(name).ask_pattern(bound[0])
        )
        assert kept == exact == ("EP1",)
        assert client.metrics.request_count(metrics_module.ASK) == len(names)


def paper_checks():
    """All check queries Lusail would formulate for the Qa pattern set."""
    sources = ("EP1", "EP2")
    checks = []
    for variable, patterns in join_entities(QA_PATTERNS).items():
        for pattern_a, pattern_b in combinations(sorted(patterns, key=repr), 2):
            checks.extend(
                checks_for_pair(variable, pattern_a, pattern_b, QA_PATTERNS, sources)
            )
    return checks


class TestCheckVerdictSoundness:
    def test_verdicts_match_executed_checks(self):
        client = make_client()
        outcomes = set()
        for check in paper_checks():
            for name in check.sources:
                verdict, __ = client.stats.check_empty(name, check, 0.0)
                if verdict is None:
                    continue  # provider abstained; probe path takes over
                actual_empty = not client.federation.get(name).select(check.query).rows
                assert verdict == actual_empty, (check.query, name)
                outcomes.add(verdict)
        # The paper federation exercises both decisive outcomes.
        assert outcomes == {True, False}

    @given(
        left=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4)),
                      max_size=14),
        right=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 2), st.integers(0, 4)),
                       max_size=14),
    )
    @settings(max_examples=40, deadline=None)
    def test_verdicts_sound_on_random_federations(self, left, right):
        # Soundness must hold for arbitrary data, not just the paper's
        # figure: any decisive verdict equals the executed check result.
        entities = [IRI(f"http://example.org/e{i}") for i in range(5)]
        preds = [UB.advisor, UB.takesCourse, UB.teacherOf]
        federation = Federation()
        for name, rows in (("EP1", left), ("EP2", right)):
            endpoint = Endpoint(name)
            endpoint.add_all(
                [Triple(entities[s], preds[p], entities[o]) for s, p, o in rows]
            )
            federation.add(endpoint)
        client = make_client(federation)
        for check in paper_checks():
            for name in check.sources:
                verdict, __ = client.stats.check_empty(name, check, 0.0)
                if verdict is None:
                    continue
                actual_empty = not client.federation.get(name).select(check.query).rows
                assert verdict == actual_empty, (check.query, name)


class TestAnswerIdentity:
    """Statistics are a planning aid: answers must be the oracle's."""

    @pytest.mark.parametrize("which", ENGINE_ORDER)
    def test_paper_query_rows_identical(self, paper_federation, which):
        engine = make_engines(paper_federation, which=(which,))[which]
        outcome = engine.execute(QA)
        assert outcome.ok, (which, outcome.status)
        assert sorted(map(repr, outcome.result.rows)) == sorted(
            map(repr, oracle_rows(paper_federation, QA))
        )

    @pytest.mark.parametrize("which", ENGINE_ORDER)
    def test_lubm_rows_identical(self, lubm2, which):
        engine = make_engines(lubm2, which=(which,))[which]
        for qname, qtext in lubm.queries().items():
            outcome = engine.execute(qtext)
            assert outcome.ok, (which, qname, outcome.status)
            assert sorted(map(repr, outcome.result.rows)) == sorted(
                map(repr, oracle_rows(lubm2, qtext))
            ), qname


class TestMetadataReduction:
    #: Metadata requests of each LUBM query on a fresh engine: one
    #: summary fetch per endpoint, plus Q1's four check queries no
    #: summary can decide.  The remote probes alone sent 52 / 52 / 12 /
    #: 49; a provider that stops answering lands far above these.
    COLD_METADATA = {"Q1": 6, "Q2": 2, "Q3": 2, "Q4": 2}

    def test_lusail_metadata_requests_under_ceiling(self, lubm2):
        for qname, ceiling in self.COLD_METADATA.items():
            engine = make_engines(lubm2, which=("Lusail",))["Lusail"]
            outcome = engine.execute(lubm.queries()[qname])
            assert outcome.ok
            assert outcome.metrics.metadata_request_count() <= ceiling, qname

    def test_summary_fetched_once_per_endpoint(self, lubm2):
        engine = make_engines(lubm2, which=("Lusail",))["Lusail"]
        stats_requests = 0
        for qtext in lubm.queries().values():
            outcome = engine.execute(qtext)
            stats_requests += outcome.metrics.requests_by_kind().get(metrics_module.STATS, 0)
        assert 0 < stats_requests <= len(lubm2.names())


class TestStatsAccuracy:
    def test_stats_estimates_audited_and_tight(self, lubm2):
        # The audit compares every summary-fed cardinality against the
        # exact local count; on unfiltered patterns the summary is exact.
        run = profile_query("Lusail", lubm2, "Q4", lubm.queries()["Q4"])
        stats = run.report.q_error.get("stats")
        assert stats is not None and stats["count"] > 0
        assert stats["max"] <= 2.0


class TestProbeFallbacks:
    """Where a summary abstains, the remote probe answers — and only there."""

    def test_ask_when_can_match_abstains(self):
        # A bound subject is beyond the summaries; an unbound one is not.
        client = make_client()
        bound = TriplePattern(MIT, UB.address, A)
        selection, __ = select_sources(client, [bound, TP_ADDRESS], 0.0)
        names = client.federation.names()
        assert client.metrics.requests_by_kind() == {
            metrics_module.STATS: len(names),
            metrics_module.ASK: len(names),
        }
        assert selection.relevant(bound) == tuple(
            name for name in names if client.federation.get(name).ask_pattern(bound)
        )

    def test_check_query_when_check_empty_abstains(self, lubm2):
        # LUBM Q1's type-constrained checks are beyond the summaries: one
        # check_query span and one check request each.
        tracer = Tracer(enabled=True)
        engine = make_engines(
            lubm2, which=("Lusail",), tracer=tracer, registry=MetricsRegistry()
        )["Lusail"]
        query = lubm.queries()["Q1"]
        outcome = engine.execute(query)
        assert outcome.ok
        (root,) = tracer.roots
        assert len(root.find("check_query")) == 4
        assert outcome.metrics.request_count(metrics_module.CHECK) == 4
        assert root.find("gjv_detection")[0].attrs["check_queries"] == 4
        assert sorted(map(repr, outcome.result.rows)) == sorted(
            map(repr, oracle_rows(lubm2, query))
        )

    def test_count_when_filter_is_pushable(self, paper_federation):
        # A filter on the pattern's own variables rides on a COUNT probe,
        # one per source; the estimate is the filtered local count.
        pushed = Comparison("!=", VarExpr(C), TermExpr(NOWHERE))
        unfiltered = Subquery(0, (TP_ADVISOR,), ("EP1", "EP2"))
        filtered = Subquery(1, (TP_TAKES,), ("EP1", "EP2"), filters=(pushed,))
        client = make_client(paper_federation)
        estimates, __ = collect_statistics(client, [unfiltered, filtered], 0.0)
        assert client.metrics.requests_by_kind() == {
            metrics_module.STATS: 2,
            metrics_module.COUNT: 2,
        }
        query = count_query(TP_TAKES, (pushed,))
        for name in ("EP1", "EP2"):
            endpoint = paper_federation.get(name)
            local = endpoint.select(query).rows[0][0]
            assert estimates.pattern_count(TP_TAKES, name) == int(local.value)
            assert estimates.pattern_count(TP_ADVISOR, name) == endpoint.count_pattern(
                TP_ADVISOR
            )


class TestSummaryInvalidation:
    def test_store_mutation_invalidates_cached_summary(self, paper_federation):
        # A cold run caches per-endpoint summaries keyed by
        # ``store.version``; mutating an endpoint must refresh them and
        # the new answers must reflect the mutation.
        engine = make_engines(paper_federation, which=("Lusail",))["Lusail"]
        before = engine.execute(QA)
        assert before.ok and before.result.rows
        ep1 = paper_federation.get("EP1")
        lee = IRI("http://mit.example.org/Lee")
        ben = IRI("http://mit.example.org/Ben")
        assert ep1.remove(Triple(lee, UB.advisor, ben))
        after = engine.execute(QA)
        assert after.ok
        assert len(after.result.rows) < len(before.result.rows)
