"""Tests for the FedX, SPLENDID, HiBISCuS and ANAPSID baselines."""

import pytest

from repro.baselines import (
    AnapsidEngine,
    FedXConfig,
    FedXEngine,
    HibiscusEngine,
    SplendidEngine,
    build_authority_index,
    build_operands,
    build_void_index,
    order_operands,
)
from repro.core.decomposition.subquery import Subquery
from repro.net import metrics as metrics_module
from repro.planning.source_selection import SourceSelection
from repro.rdf import IRI, UB, TriplePattern, Variable

from tests.conftest import QA, assert_same_bag, build_paper_federation, oracle_rows

UB_PREFIX = "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"

S, P, C, U, A = (Variable(n) for n in "SPCUA")
TP_ADVISOR = TriplePattern(S, UB.advisor, P)
TP_TAKES = TriplePattern(S, UB.takesCourse, C)
TP_ADDRESS = TriplePattern(U, UB.address, A)


def _exclusive(operand: Subquery) -> bool:
    """An operand is an exclusive group when one endpoint answers several
    patterns as a unit (``Operand`` stored this as ``.exclusive``; on a
    ``Subquery`` it is read off the sources and patterns)."""
    return len(operand.sources) == 1 and len(operand.patterns) > 1


class TestOperands:
    def test_exclusive_group_formed(self):
        selection = SourceSelection(
            sources={TP_ADVISOR: ("EP1",), TP_TAKES: ("EP1",), TP_ADDRESS: ("EP1", "EP2")}
        )
        operands, residue = build_operands([TP_ADVISOR, TP_TAKES, TP_ADDRESS], selection, ())
        assert all(isinstance(op, Subquery) for op in operands)
        exclusive = [op for op in operands if _exclusive(op)]
        assert len(exclusive) == 1 and len(exclusive[0].patterns) == 2
        assert not residue

    def test_order_prefers_exclusive_group_on_equal_free_variables(self):
        any_edge = TriplePattern(U, Variable("X"), A)
        selection = SourceSelection(
            sources={any_edge: ("EP1", "EP2"), TP_ADVISOR: ("EP1",), TP_TAKES: ("EP1",)}
        )
        operands, __ = build_operands([any_edge, TP_ADVISOR, TP_TAKES], selection, ())
        first = order_operands(operands)[0]
        assert _exclusive(first) and first.patterns == (TP_ADVISOR, TP_TAKES)

    def test_multi_source_patterns_stay_single(self):
        selection = SourceSelection(
            sources={TP_ADVISOR: ("EP1", "EP2"), TP_TAKES: ("EP1", "EP2")}
        )
        operands, __ = build_operands([TP_ADVISOR, TP_TAKES], selection, ())
        assert len(operands) == 2
        assert all(not _exclusive(op) for op in operands)

    def test_filters_pushed_into_covering_operand(self):
        from repro.rdf.terms import typed_literal
        from repro.sparql.ast import Comparison, TermExpr, VarExpr

        selection = SourceSelection(sources={TP_ADVISOR: ("EP1",)})
        expr = Comparison("!=", VarExpr(P), TermExpr(typed_literal(0)))
        operands, residue = build_operands([TP_ADVISOR], selection, (expr,))
        assert operands[0].filters == (expr,)
        assert not residue

    def test_order_prefers_connected(self):
        selection = SourceSelection(
            sources={
                TP_ADVISOR: ("EP1", "EP2"),
                TP_TAKES: ("EP1", "EP2"),
                TP_ADDRESS: ("EP1", "EP2"),
            }
        )
        operands, __ = build_operands([TP_ADDRESS, TP_ADVISOR, TP_TAKES], selection, ())
        ordered = order_operands(operands)
        # After the first operand, each following one shares a variable
        # with what is bound, as long as the graph allows it.
        bound = set(ordered[0].variables())
        assert ordered[1].variables() & bound or not (
            set().union(*(op.variables() for op in ordered[1:])) & bound
        )


@pytest.fixture(params=[FedXEngine, HibiscusEngine, SplendidEngine])
def engine(request, paper_federation):
    return request.param(paper_federation)


class TestBaselineCorrectness:
    def test_qa_matches_oracle(self, engine, paper_federation):
        outcome = engine.execute(QA)
        assert outcome.ok
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, QA))

    def test_optional_query(self, engine, paper_federation):
        text = UB_PREFIX + (
            "SELECT ?p ?u ?a WHERE { ?s ub:advisor ?p . ?p ub:PhDDegreeFrom ?u "
            "OPTIONAL { ?u ub:address ?a } }"
        )
        outcome = engine.execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, text))

    def test_union_query(self, engine, paper_federation):
        text = UB_PREFIX + (
            "SELECT ?x WHERE { { ?x ub:teacherOf ?c } UNION { ?x ub:PhDDegreeFrom ?u } }"
        )
        outcome = engine.execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, text))

    def test_filter_query(self, engine, paper_federation):
        text = UB_PREFIX + 'SELECT ?u WHERE { ?u ub:address ?a FILTER (?a = "XXX") }'
        outcome = engine.execute(text)
        assert_same_bag(outcome.result.rows, oracle_rows(paper_federation, text))

    def test_limit(self, engine):
        text = UB_PREFIX + "SELECT ?s WHERE { ?s ub:advisor ?p } LIMIT 1"
        assert len(engine.execute(text).result) == 1


ALL_BASELINES = [FedXEngine, HibiscusEngine, SplendidEngine, AnapsidEngine]


class TestSharedPipeline:
    """What every baseline gets from ``OperandEngine`` and the base
    engine's one branch loop."""

    @pytest.mark.parametrize("engine_class", ALL_BASELINES)
    def test_union_phases_are_maxima_not_sums(self, engine_class, paper_federation):
        # UNION branches run concurrently from virtual time zero, so the
        # phase profile is the per-phase maximum over branches.  With
        # source selection warm (free) that leaves the longest branch's
        # execution, which cannot exceed the query's own duration; the
        # sum over branches did.
        text = UB_PREFIX + (
            "SELECT ?x WHERE { { ?x ub:teacherOf ?c } UNION { ?x ub:PhDDegreeFrom ?u } }"
        )
        engine = engine_class(paper_federation)
        engine.execute(text)
        metrics = engine.execute(text).metrics
        assert metrics.phase_ms["source_selection"] == 0.0
        assert 0.0 < sum(metrics.phase_ms.values()) <= metrics.virtual_ms

    @pytest.mark.parametrize("engine_class", ALL_BASELINES)
    def test_source_selection_span_counts_patterns(self, engine_class, paper_federation):
        from repro.obs import Tracer

        engine = engine_class(paper_federation)
        engine.tracer = Tracer(enabled=True)
        assert engine.execute(QA).ok
        (span,) = engine.tracer.roots[0].find("source_selection")
        assert span.attrs["patterns"] == 5
        assert span.attrs.get("index") == engine.source_index


class TestFedXBehaviour:
    def test_uses_bound_joins(self, paper_federation):
        engine = FedXEngine(paper_federation)
        outcome = engine.execute(QA)
        assert outcome.metrics.request_count(metrics_module.BOUND) > 0

    def test_block_size_controls_requests(self, paper_federation):
        small_blocks = FedXEngine(paper_federation, config=FedXConfig(block_size=1))
        big_blocks = FedXEngine(paper_federation, config=FedXConfig(block_size=100))
        small = small_blocks.execute(QA)
        big = big_blocks.execute(QA)
        assert small.metrics.request_count(metrics_module.BOUND) >= big.metrics.request_count(
            metrics_module.BOUND
        )
        assert_same_bag(small.result.rows, big.result.rows)

    def test_ask_cache_warm_second_run(self, paper_federation):
        engine = FedXEngine(paper_federation)
        engine.execute(QA)
        second = engine.execute(QA)
        assert second.metrics.request_count(metrics_module.ASK) == 0

    def test_timeout(self, paper_federation):
        engine = FedXEngine(paper_federation, timeout_ms=0.1)
        assert engine.execute(QA).status == "timeout"


class TestSplendidBehaviour:
    def test_preprocessing_recorded(self, paper_federation):
        engine = SplendidEngine(paper_federation)
        assert engine.requires_preprocessing
        assert engine.stats.preprocessing_ms > 0

    def test_void_index_contents(self, paper_federation):
        index = build_void_index(paper_federation)
        ep1 = index.endpoints["EP1"]
        assert ep1.predicate_counts[UB.advisor] == 2
        assert ep1.has_predicate(UB.address)
        assert not ep1.has_predicate(UB.nothing)

    def test_index_source_selection_skips_asks_for_var_patterns(self, paper_federation):
        engine = SplendidEngine(paper_federation)
        text = UB_PREFIX + "SELECT ?s ?p WHERE { ?s ub:advisor ?p }"
        outcome = engine.execute(text)
        # Fully variable subject/object: index answers source selection.
        assert outcome.metrics.request_count(metrics_module.ASK) == 0

    def test_estimates(self, paper_federation):
        index = build_void_index(paper_federation)
        unbound = index.estimate(TP_ADVISOR, ("EP1", "EP2"))
        assert unbound == 4
        bound_subject = TriplePattern(IRI("http://mit.example.org/Lee"), UB.advisor, P)
        assert index.estimate(bound_subject, ("EP1",)) <= 1.0


class TestHibiscusBehaviour:
    def test_preprocessing_recorded(self, paper_federation):
        engine = HibiscusEngine(paper_federation)
        assert engine.stats.preprocessing_ms > 0

    def test_authority_index(self, paper_federation):
        index = build_authority_index(paper_federation)
        assert "http://mit.example.org" in index["EP1"].subjects(UB.advisor)
        assert "http://cmu.example.org" in index["EP2"].subjects(UB.advisor)

    def test_pruning_never_loses_results(self, paper_federation):
        fedx = FedXEngine(paper_federation).execute(QA)
        hibiscus = HibiscusEngine(paper_federation).execute(QA)
        assert_same_bag(fedx.result.rows, hibiscus.result.rows)

    def test_pruning_reduces_requests_on_cross_authority_query(self):
        """A query whose join variable lives in one authority lets
        HiBISCuS prune the other endpoint."""
        federation = build_paper_federation()
        text = UB_PREFIX + (
            "SELECT ?s ?c WHERE { ?s ub:advisor ?p . ?p ub:teacherOf ?c }"
        )
        fedx = FedXEngine(federation).execute(text)
        hibiscus = HibiscusEngine(federation).execute(text)
        assert_same_bag(fedx.result.rows, hibiscus.result.rows)
        assert hibiscus.metrics.request_count() <= fedx.metrics.request_count()


class TestBoundJoinPrimitives:
    """``left_bound_join`` (called by no engine) went with its test; that
    OPTIONAL keeps unmatched rows is checked for every baseline by
    ``TestBaselineCorrectness::test_optional_query`` (ANAPSID:
    ``tests/test_anapsid.py::TestCorrectness::test_optional_query``)."""

    def test_bound_join_block_boundaries(self, paper_federation):
        from repro.baselines.bound_join import bound_join
        from repro.endpoint import EngineCaches, FederationClient
        from repro.net.simulator import local_cluster_config
        from repro.relational import Relation
        from repro.rdf import Variable
        from tests.conftest import CMU, MIT

        client = FederationClient(paper_federation, local_cluster_config(), EngineCaches())
        U, A = Variable("U"), Variable("A")
        base = Relation([U], [(MIT.MIT,), (CMU.CMU,)])
        operand = Subquery(
            id=0,
            patterns=(TriplePattern(U, UB.address, A),),
            sources=("EP1", "EP2"),
        )
        joined, __ = bound_join(client, base, operand, (U, A), 0.0, block_size=1)
        # Two blocks x two endpoints = four bound requests.
        assert client.metrics.request_count(metrics_module.BOUND) == 4
        assert len(joined) == 2
