"""Bound joins routed by IRI authority.

``route`` keeps a binding off an endpoint only when a planned check
(``CharsetStatisticsProvider.plan_routes``, recorded on the branch plan)
proves it cannot match there: the binding is an IRI in the subject
(object) position of a pattern whose predicate has no subject (object)
of that authority at the endpoint — for a variable predicate, none
under any predicate.  Five groups of checks:

- soundness, case by case, on a two-authority federation;
- ``route`` against :func:`reference_route`, the same rule applied one
  row and one endpoint at a time, on random federations;
- its cost shape: one authority read per binding and checked column,
  however many sources a bound subquery has;
- the Alg 3 line 13 regression: source refinement for a generic pattern
  used to ASK with the first three bindings only and dropped an endpoint
  only later bindings reach;
- a differential run against plans whose routes are cleared, so that
  every binding goes everywhere: same answers, same rows shipped, same
  delay verdicts, no more bound requests, on LUBM, LargeRDF and QFed.
"""

from collections import Counter
from collections.abc import Container
from contextlib import contextmanager
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decomposition.subquery import Subquery
from repro.core.engine import LusailEngine
from repro.core.execution.scheduler import BranchScheduler
from repro.datasets import largerdf, lubm, qfed, queries_largerdf, queries_lubm
from repro.endpoint import Endpoint, Federation
from repro.harness import experiments
from repro.net import metrics as metrics_module
from repro.obs.trace import Tracer
from repro.planning.stats import route
from repro.rdf import IRI, BNode, Literal, Triple, TriplePattern, Variable
from repro.rdf.terms import is_concrete

from tests.conftest import oracle_rows
from tests.plan_forcing import ForcedPlanEngine

A, B = "http://a.org/", "http://b.org/"
P, Q, R = (IRI(f"http://ex.org/{name}") for name in ("p", "q", "r"))
X, Y = Variable("x"), Variable("y")


def reference_route(provider, subquery, endpoint_name, bind_vars, rows):
    """The routing rule one row at a time, for one endpoint, read off
    the provider's summaries: what ``route(provider.plan_routes(subquery),
    ...)[endpoint_name]`` must equal, order included."""
    summary = provider._summaries.get(endpoint_name)
    if summary is None:
        return rows
    checks: list[tuple[int, Container[str]]] = []
    for pattern in subquery.patterns:
        for term, tables in (
            (pattern.subject, summary.subject_authorities),
            (pattern.object, summary.object_authorities),
        ):
            if not isinstance(term, Variable) or term not in bind_vars:
                continue
            if is_concrete(pattern.predicate):
                allowed = tables.get(pattern.predicate, {})
            else:  # any predicate's
                allowed = set().union(*tables.values())
            checks.append((bind_vars.index(term), allowed))
    return [
        row
        for row in rows
        if all(
            not isinstance(row[index], IRI) or row[index].authority in allowed
            for index, allowed in checks
        )
    ]


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


def _route(provider, subquery, bind_vars, rows):
    return route(provider.plan_routes(subquery), ("A", "B"), bind_vars, rows)


class TestRouteSoundness:
    def test_an_iri_goes_only_where_its_authority_is_a_subject(self, provider):
        subquery = _subquery(TriplePattern(X, P, Y))
        rows = [(IRI(A + "s1"),), (IRI(B + "s1"),)]
        assert _route(provider, subquery, (X,), rows) == {"A": [rows[0]], "B": [rows[1]]}

    def test_object_position_reads_the_object_authorities(self, provider):
        # A's objects of :p are a.org's and b.org's; B's only b.org's.
        subquery = _subquery(TriplePattern(Y, P, X))
        rows = [(IRI(A + "o1"),), (IRI(B + "o1"),)]
        assert _route(provider, subquery, (X,), rows) == {"A": rows, "B": [rows[1]]}

    def test_literals_blank_nodes_and_undef_never_prune(self, provider):
        rows = [(Literal("v"),), (BNode("n1"),), (None,)]
        for pattern in (TriplePattern(X, P, Y), TriplePattern(Y, P, X)):
            assert _route(provider, _subquery(pattern), (X,), rows) == {"A": rows, "B": rows}

    def test_a_variable_in_subject_and_object_must_pass_both(self, provider):
        # At B, ?x must be a b.org subject of :p and an a.org object of :r.
        subquery = _subquery(TriplePattern(X, P, Y), TriplePattern(Y, R, X))
        rows = [(IRI(B + "s1"),), (IRI(A + "o1"),)]
        assert _route(provider, subquery, (X,), rows)["B"] == []
        # One pattern holding ?x twice checks both of its positions.
        same = _subquery(TriplePattern(X, P, X))
        assert _route(provider, same, (X,), [(IRI(B + "o3"),)])["A"] == []
        assert _route(provider, same, (X,), [(IRI(A + "s1"),)])["A"] == [(IRI(A + "s1"),)]

    def test_a_predicate_absent_at_the_endpoint_prunes_its_iris(self, provider):
        # B has no :q: no IRI can match there, a literal is still sent.
        subquery = _subquery(TriplePattern(X, Q, Y))
        rows = [(IRI(B + "s1"),), (Literal("v"),)]
        assert _route(provider, subquery, (X,), rows)["B"] == [rows[1]]

    def test_every_bound_column_is_checked(self, provider):
        subquery = _subquery(TriplePattern(X, P, Y))
        rows = [(IRI(A + "s1"), IRI(A + "o1")), (IRI(A + "s1"), IRI(B + "o1"))]
        assert _route(provider, subquery, (X, Y), rows) == {"A": rows, "B": []}

    def test_a_generic_pattern_reads_every_predicate(self, provider):
        subquery = _subquery(TriplePattern(X, Variable("p"), Y))
        rows = [(IRI(A + "s1"),), (IRI(B + "s1"),)]
        assert _route(provider, subquery, (X,), rows) == {"A": [rows[0]], "B": [rows[1]]}
        objects = _subquery(TriplePattern(Y, Variable("p"), X))
        # B's objects over every predicate are b.org's (of :p) and a.org's (of :r).
        elsewhere = (IRI("http://c.org/z"),)
        assert _route(provider, objects, (X,), [*rows, elsewhere])["B"] == rows

    def test_an_endpoint_whose_summary_was_never_fetched_gets_every_row(self):
        client = LusailEngine(_two_authorities()).build_client()
        client.stats.summary("A", 0.0)
        requests = client.metrics.request_count()
        rows = [(IRI(A + "s1"),), (IRI(B + "s1"),)]
        routed = _route(client.stats, _subquery(TriplePattern(X, P, Y)), (X,), rows)
        assert routed["B"] is rows
        assert routed["A"] == [rows[0]]
        assert client.metrics.request_count() == requests


# ------------------------------------------------------ reference oracle

#: What random federations and bindings draw from: IRIs of three http
#: authorities, one IRI without a path, two URN authorities, a blank
#: node and literals.
IRIS = [IRI(f"http://{host}.org/e{i}") for host in "abc" for i in range(2)] + [
    IRI("http://d.org"),
    IRI("urn:isbn:1"),
    IRI("urn:issn:2"),
]
NODES = [*IRIS, BNode("n0")]
TERMS = [*NODES, Literal("v"), Literal("1", datatype="http://www.w3.org/2001/XMLSchema#integer")]


@st.composite
def routing_cases(draw):
    """A 2–3-endpoint federation, which of its summaries are fetched, a
    subquery and one- or two-column binding rows (UNDEF included)."""
    size = draw(st.integers(2, 3))
    endpoints = []
    for index in range(size):
        # The first endpoint never holds :r, so :r is absent there.
        predicates = (P, Q) if index == 0 else (P, Q, R)
        triple = st.builds(
            Triple, st.sampled_from(NODES), st.sampled_from(predicates), st.sampled_from(TERMS)
        )
        endpoint = Endpoint(f"E{index}")
        endpoint.add_all(draw(st.lists(triple, min_size=1, max_size=8)))
        endpoints.append(endpoint)
    fetched = draw(st.lists(st.booleans(), min_size=size, max_size=size))
    pattern = st.builds(
        TriplePattern,
        st.sampled_from([X, Y, Variable("z"), IRIS[0]]),
        st.sampled_from([P, Q, R, Variable("p")]),
        st.sampled_from([X, Y, Variable("z"), IRIS[2], Literal("v")]),
    )
    patterns = tuple(draw(st.lists(pattern, min_size=1, max_size=3)))
    bind_vars = draw(st.sampled_from([(X,), (Y,), (X, Y), (Y, X)]))
    cell = st.sampled_from([*TERMS, None])
    rows = draw(st.lists(st.tuples(*[cell] * len(bind_vars)), max_size=12))
    return Federation(endpoints), fetched, patterns, bind_vars, rows


@settings(max_examples=150, deadline=None)
@given(routing_cases())
def test_route_matches_the_per_row_reference(case):
    federation, fetched, patterns, bind_vars, rows = case
    provider = LusailEngine(federation).build_client().stats
    names = federation.names()
    for name, fetch in zip(names, fetched):
        if fetch:
            provider.summary(name, 0.0)
    subquery = Subquery(id=0, patterns=patterns, sources=tuple(names))
    routed = route(provider.plan_routes(subquery), names, bind_vars, rows)
    assert list(routed) == names
    for name in names:
        assert routed[name] == reference_route(provider, subquery, name, bind_vars, rows), name


# ------------------------------------------------------------ cost shape

KNOWS = IRI("http://ex.org/knows")
HUB = IRI("http://u0.org/hub")
PEOPLE_QUERY = f"SELECT * WHERE {{ {HUB.n3()} {KNOWS.n3()} ?x . ?x ?p ?o }}"


def _people(size: int) -> Federation:
    """``size`` endpoints, endpoint i holding authority u<i>'s five
    people (a name each) and 400 filler triples; the first endpoint's
    hub knows every person."""
    name, fill = IRI("http://ex.org/name"), IRI("http://ex.org/fill")
    endpoints = []
    for i in range(size):
        host = f"http://u{i}.org/"
        endpoint = Endpoint(f"E{i}")
        endpoint.add_all(
            [Triple(IRI(f"{host}p{j}"), name, Literal(f"{i}.{j}")) for j in range(5)]
            + [Triple(IRI(f"{host}f{j}"), fill, Literal(str(j))) for j in range(400)]
        )
        endpoints.append(endpoint)
    endpoints[0].add_all(
        [Triple(HUB, KNOWS, IRI(f"http://u{i}.org/p{j}")) for i in range(size) for j in range(5)]
    )
    return Federation(endpoints)


@contextmanager
def _authority_reads():
    """Counts ``IRI.authority`` evaluations inside the block."""
    reads = [0]
    read = IRI.authority.fget

    def counted(iri):
        reads[0] += 1
        return read(iri)

    with mock.patch.object(IRI, "authority", property(counted)):
        yield reads


class TestRouteCostShape:
    """Routing reads each binding's authority once per checked column; a
    return to one pass per source fails here without a clock."""

    def test_a_bound_subquery_reads_each_binding_once(self):
        federation = _people(4)
        engine = LusailEngine(federation)
        engine.tracer = Tracer(enabled=True)
        run_bound = BranchScheduler._execute_bound_subquery
        reads_per_subquery = []

        def counted(scheduler, subquery, bind_vars, rows, at_ms):
            before = reads[0]
            result = run_bound(scheduler, subquery, bind_vars, rows, at_ms)
            reads_per_subquery.append(reads[0] - before)
            return result

        with (
            _authority_reads() as reads,
            mock.patch.object(BranchScheduler, "_execute_bound_subquery", counted),
        ):
            outcome = engine.execute(PEOPLE_QUERY)
        assert Counter(outcome.result.rows) == Counter(oracle_rows(federation, PEOPLE_QUERY))
        (bound,) = engine.tracer.roots[0].find("bound_subquery")
        assert len(bound.attrs["endpoints"]) == 4
        assert bound.attrs["routed_bindings"] == dict.fromkeys(federation.names(), 5)
        # ?x is the one checked column (of ?x ?p ?o).
        (reads_in_subquery,) = reads_per_subquery
        assert 0 < reads_in_subquery <= bound.attrs["bindings"] * 1

    def test_the_reads_do_not_grow_with_the_sources(self):
        federation = _people(4)
        provider = LusailEngine(federation).build_client().stats
        names = federation.names()
        for name in names:
            provider.summary(name, 0.0)
        people = [IRI(f"http://u{i % 4}.org/p{i % 5}") for i in range(20)]
        rows = [(person, people[-1 - index]) for index, person in enumerate(people)]
        for pattern, bind_vars in (
            (TriplePattern(X, Variable("p"), Variable("o")), (X,)),
            (TriplePattern(X, KNOWS, Y), (X, Y)),
        ):
            subquery = Subquery(id=0, patterns=(pattern,), sources=tuple(names))
            routes = provider.plan_routes(subquery)
            bindings = [row[: len(bind_vars)] for row in rows]
            reads = {}
            for count in (1, 2, 4):
                with _authority_reads() as counter:
                    route(routes, names[:count], bind_vars, bindings)
                reads[count] = counter[0]
            assert len(set(reads.values())) == 1, reads
            assert reads[4] <= len(bindings) * len(bind_vars), reads


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


def test_generic_pattern_reaches_every_endpoint_a_binding_needs():
    federation = _sampled_federation()
    engine = LusailEngine(federation)
    engine.tracer = Tracer(enabled=True)
    outcome = engine.execute(SAMPLED_QUERY)
    expected = oracle_rows(federation, SAMPLED_QUERY)
    assert len(expected) == 4
    assert Counter(outcome.result.rows) == Counter(expected)
    (bound,) = engine.tracer.roots[0].find("bound_subquery")
    # Routing sends each binding to its authority's endpoint, not every
    # binding everywhere.
    assert bound.attrs["routed_bindings"] == {"A": 3, "B": 1}


# ---------------------------------------------- differential vs. unrouted


def _unrouted(plan):
    """The plan with its routes cleared: every binding to every source."""
    return replace(plan, routes={})


def _run(federation, text, warm_engine=None, force=None):
    engine = warm_engine or ForcedPlanEngine(federation, force=force)
    outcome = engine.execute(text)
    assert outcome.ok, outcome.error
    reasons = [branch.delays.reasons for branch in outcome.plan.branch_plans]
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
    """Each query against its plan with the routes cleared, which sends
    every binding to every source: the same answer bag, rows shipped and
    delay verdicts, and no more bound requests.  LUBM runs on a warm engine per side, the
    others cold.  QFed's bound joins each have one source, so nothing is
    routed out there."""
    federation, queries, warm = dataset()
    routed_engine = LusailEngine(federation) if warm else None
    unrouted_engine = ForcedPlanEngine(federation, force=_unrouted) if warm else None
    routed_total = unrouted_total = 0
    for name, text in sorted(queries.items()):
        answer, shipped, reasons, routed = _run(federation, text, routed_engine)
        expected = _run(federation, text, unrouted_engine, force=_unrouted)
        assert (answer, shipped, reasons) == expected[:3], name
        assert routed <= expected[3], name
        routed_total += routed
        unrouted_total += expected[3]
    assert (routed_total < unrouted_total) == routes_some, (routed_total, unrouted_total)
