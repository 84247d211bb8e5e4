"""Bound joins routed by IRI authority.

``CharsetStatisticsProvider.route`` keeps a binding off an endpoint only
when a pattern proves it cannot match there: the binding is an IRI in
the subject (object) position of a pattern whose predicate has no
subject (object) of that authority at the endpoint — for a variable
predicate, none under any predicate.  Three groups of checks:

- soundness, case by case, on a two-authority federation;
- the Alg 3 line 13 regression: source refinement for a generic pattern
  used to ASK with the first three bindings only and dropped an endpoint
  only later bindings reach;
- a differential run against routing patched to the identity at its
  module seam: same answers, same rows shipped, same delay verdicts, no
  more bound requests, on LUBM, LargeRDF and QFed.
"""

from collections import Counter
from unittest import mock

import pytest

from repro.core.decomposition.subquery import Subquery
from repro.core.engine import LusailConfig, LusailEngine
from repro.datasets import largerdf, lubm, qfed, queries_largerdf, queries_lubm
from repro.endpoint import Endpoint, Federation
from repro.harness import experiments
from repro.net import metrics as metrics_module
from repro.obs.trace import Tracer
from repro.rdf import IRI, BNode, Literal, Triple, TriplePattern, Variable

from tests.conftest import oracle_rows

A, B = "http://a.org/", "http://b.org/"
P, Q, R = (IRI(f"http://ex.org/{name}") for name in ("p", "q", "r"))
X, Y = Variable("x"), Variable("y")


def _two_authorities() -> Federation:
    """Endpoint A holds a.org's entities, B b.org's, with one link each
    way and a blank node and a literal at A."""
    a = Endpoint("A")
    a.add_all(
        [
            Triple(IRI(A + "s1"), P, IRI(A + "o1")),
            Triple(IRI(A + "s1"), Q, Literal("v")),
            Triple(BNode("n1"), P, IRI(A + "o2")),
            Triple(IRI(A + "s2"), P, IRI(B + "o3")),
        ]
    )
    b = Endpoint("B")
    b.add_all(
        [
            Triple(IRI(B + "s1"), P, IRI(B + "o1")),
            Triple(IRI(B + "s1"), R, IRI(A + "o1")),
        ]
    )
    return Federation([a, b])


@pytest.fixture
def provider():
    """A client's provider with both endpoints' summaries fetched."""
    client = LusailEngine(_two_authorities()).build_client()
    for name in ("A", "B"):
        client.stats.summary(name, 0.0)
    return client.stats


def _subquery(*patterns: TriplePattern) -> Subquery:
    return Subquery(id=0, patterns=patterns, sources=("A", "B"))


class TestRouteSoundness:
    def test_an_iri_goes_only_where_its_authority_is_a_subject(self, provider):
        subquery = _subquery(TriplePattern(X, P, Y))
        rows = [(IRI(A + "s1"),), (IRI(B + "s1"),)]
        assert provider.route(subquery, "A", (X,), rows) == [rows[0]]
        assert provider.route(subquery, "B", (X,), rows) == [rows[1]]

    def test_object_position_reads_the_object_authorities(self, provider):
        # A's objects of :p are a.org's and b.org's; B's only b.org's.
        subquery = _subquery(TriplePattern(Y, P, X))
        rows = [(IRI(A + "o1"),), (IRI(B + "o1"),)]
        assert provider.route(subquery, "A", (X,), rows) == rows
        assert provider.route(subquery, "B", (X,), rows) == [rows[1]]

    def test_literals_blank_nodes_and_undef_never_prune(self, provider):
        rows = [(Literal("v"),), (BNode("n1"),), (None,)]
        for pattern in (TriplePattern(X, P, Y), TriplePattern(Y, P, X)):
            for endpoint in ("A", "B"):
                assert provider.route(_subquery(pattern), endpoint, (X,), rows) == rows

    def test_a_variable_in_subject_and_object_must_pass_both(self, provider):
        # At B, ?x must be a b.org subject of :p and an a.org object of :r.
        subquery = _subquery(TriplePattern(X, P, Y), TriplePattern(Y, R, X))
        rows = [(IRI(B + "s1"),), (IRI(A + "o1"),)]
        assert provider.route(subquery, "B", (X,), rows) == []
        # One pattern holding ?x twice checks both of its positions.
        same = _subquery(TriplePattern(X, P, X))
        assert provider.route(same, "A", (X,), [(IRI(B + "o3"),)]) == []
        assert provider.route(same, "A", (X,), [(IRI(A + "s1"),)]) == [(IRI(A + "s1"),)]

    def test_a_predicate_absent_at_the_endpoint_prunes_its_iris(self, provider):
        # B has no :q: no IRI can match there, a literal is still sent.
        subquery = _subquery(TriplePattern(X, Q, Y))
        rows = [(IRI(B + "s1"),), (Literal("v"),)]
        assert provider.route(subquery, "B", (X,), rows) == [rows[1]]

    def test_every_bound_column_is_checked(self, provider):
        subquery = _subquery(TriplePattern(X, P, Y))
        rows = [(IRI(A + "s1"), IRI(A + "o1")), (IRI(A + "s1"), IRI(B + "o1"))]
        assert provider.route(subquery, "B", (X, Y), rows) == []
        assert provider.route(subquery, "A", (X, Y), rows) == rows

    def test_a_generic_pattern_reads_every_predicate(self, provider):
        subquery = _subquery(TriplePattern(X, Variable("p"), Y))
        rows = [(IRI(A + "s1"),), (IRI(B + "s1"),)]
        assert provider.route(subquery, "A", (X,), rows) == [rows[0]]
        assert provider.route(subquery, "B", (X,), rows) == [rows[1]]
        objects = _subquery(TriplePattern(Y, Variable("p"), X))
        # B's objects over every predicate are b.org's (of :p) and a.org's (of :r).
        elsewhere = (IRI("http://c.org/z"),)
        assert provider.route(objects, "B", (X,), [*rows, elsewhere]) == rows

    def test_an_endpoint_whose_summary_was_never_fetched_gets_every_row(self):
        client = LusailEngine(_two_authorities()).build_client()
        rows = [(IRI(A + "s1"),), (IRI(B + "s1"),)]
        routed = client.stats.route(_subquery(TriplePattern(X, P, Y)), "B", (X,), rows)
        assert routed is rows
        assert client.metrics.request_count() == 0


# ------------------------------------------------ Alg 3 line 13 regression

SAMPLED_QUERY = "SELECT * WHERE { <http://a.org/hub> <http://ex.org/knows> ?x . ?x ?p ?o }"


def _sampled_federation() -> Federation:
    """Four bindings of ``?x``: three a.org people first, then b.org's
    ``q0``, whose triples only B holds."""
    knows, name, fill = (IRI(f"http://ex.org/{n}") for n in ("knows", "name", "fill"))
    a = Endpoint("A")
    a.add_all(
        [Triple(IRI(A + "hub"), knows, IRI(A + f"p{i}")) for i in range(3)]
        + [Triple(IRI(A + "hub"), knows, IRI(B + "q0"))]
        + [Triple(IRI(A + f"p{i}"), name, Literal(f"a{i}")) for i in range(3)]
        + [Triple(IRI(A + f"f{i}"), fill, Literal(str(i))) for i in range(400)]
    )
    b = Endpoint("B")
    b.add_all(
        [Triple(IRI(B + "q0"), name, Literal("b0"))]
        + [Triple(IRI(B + f"f{i}"), fill, Literal(str(i))) for i in range(400)]
    )
    return Federation([a, b])


@pytest.mark.parametrize("refine", [True, False])
def test_generic_pattern_reaches_every_endpoint_a_binding_needs(refine):
    federation = _sampled_federation()
    engine = LusailEngine(federation, LusailConfig(refine_sources=refine))
    engine.tracer = Tracer(enabled=True)
    outcome = engine.execute(SAMPLED_QUERY)
    expected = oracle_rows(federation, SAMPLED_QUERY)
    assert len(expected) == 4
    assert Counter(outcome.result.rows) == Counter(expected)
    (bound,) = engine.tracer.roots[0].find("bound_subquery")
    # Refinement routes each binding to its authority's endpoint; without
    # it the generic pattern gets every binding everywhere.
    assert bound.attrs["routed_bindings"] == ({"A": 3, "B": 1} if refine else {"A": 4, "B": 4})


# ---------------------------------------------- differential vs. unrouted


def _unrouted(self, subquery, endpoint_name, bind_vars, rows):
    return rows


def _run(federation, text, warm_engine=None):
    engine = warm_engine or LusailEngine(federation)
    outcome = engine.execute(text)
    assert outcome.ok, outcome.error
    reasons = [
        branch.delays.reasons if branch.delays is not None else None
        for branch in outcome.plan.branch_plans
    ]
    metrics = outcome.metrics
    return (
        Counter(outcome.result.rows),
        metrics.rows_shipped(),
        reasons,
        metrics.request_count(metrics_module.BOUND),
    )


def _lubm():
    return lubm.build_federation(4, lubm.BENCH_PROFILE, seed=1), queries_lubm.queries(), True


def _largerdf():
    federation = largerdf.build_federation(scale=1.0, seed=1, hub_scale=1.0)
    return federation, queries_largerdf.paper_selection(), False


def _qfed():
    return experiments.qfed_federation(), qfed.queries(), False


@pytest.mark.parametrize(
    "dataset, routes_some",
    [(_lubm, True), (_largerdf, True), (_qfed, False)],
    ids=["LUBM", "LargeRDF", "QFed"],
)
def test_routing_changes_nothing_but_the_empty_requests(dataset, routes_some):
    """Each query against routing patched to the identity: the same
    answer bag, rows shipped and delay verdicts, and no more bound
    requests.  LUBM runs on a warm engine per side, the others cold.
    QFed's bound joins each have one source, so nothing is routed out
    there."""
    federation, queries, warm = dataset()
    routed_engine = LusailEngine(federation) if warm else None
    unrouted_engine = LusailEngine(federation) if warm else None
    routed_total = unrouted_total = 0
    for name, text in sorted(queries.items()):
        answer, shipped, reasons, routed = _run(federation, text, routed_engine)
        with mock.patch("repro.planning.stats.CharsetStatisticsProvider.route", _unrouted):
            expected = _run(federation, text, unrouted_engine)
        assert (answer, shipped, reasons) == expected[:3], name
        assert routed <= expected[3], name
        routed_total += routed
        unrouted_total += expected[3]
    assert (routed_total < unrouted_total) == routes_some, (routed_total, unrouted_total)
