"""Property oracle for the array-backed substrate.

The ISSUE-level acceptance criterion: across seeded random decentralized
federations, the sorted-run store path must be observationally identical
to a term-space evaluation of the same input triples — same rows with
multiplicities through both centralized evaluation and full federated
execution — and identical to the row-based :class:`RowRelation` mediator
oracle on store-fed merge joins.  Turning tracing on must not change any result (traced-vs-
untraced invariance).
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.engine import LusailEngine
from repro.datasets.random_federation import (
    FederationShape,
    build_random_federation,
    build_random_query,
)
from repro.obs import MetricsRegistry, Tracer
from repro.rdf import Variable
from repro.relational import Relation, kernel_runtime
from repro.sparql import evaluate_select
from tests.reference_relational import RowRelation
from tests.reference_sparql import ReferenceStore, reference_bgp

_SETTINGS = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


@st.composite
def federation_and_query(draw):
    fed_seed = draw(st.integers(min_value=0, max_value=10_000))
    query_seed = draw(st.integers(min_value=0, max_value=10_000))
    endpoints = draw(st.integers(min_value=2, max_value=4))
    shape = FederationShape(endpoints=endpoints, entities_per_endpoint=10)
    federation = build_random_federation(fed_seed, shape)
    query = build_random_query(query_seed, endpoints)
    return federation, query


def term_space_rows(federation, query) -> Counter:
    """The (pure BGP) query over the federation's triples, never encoded."""
    union = ReferenceStore()
    for name in federation.names():
        union.add_all(iter(federation.get(name).store))
    (bgp,) = query.where.elements
    return Counter(
        tuple(solution[var] for var in query.select_vars)
        for solution in reference_bgp(union, bgp.triples)
    )


@given(federation_and_query())
@_SETTINGS
def test_sorted_path_matches_term_space_path(case):
    federation, query = case
    expected = term_space_rows(federation, query)
    # Centralized: the same query over the sorted-run union store.
    assert Counter(evaluate_select(federation.union_store(), query).rows) == expected
    # Federated: the engine runs entirely on sorted-run endpoints.
    outcome = LusailEngine(federation).execute(query)
    assert outcome.ok, outcome.error
    assert Counter(outcome.result.rows) == expected


@given(federation_and_query())
@_SETTINGS
def test_traced_execution_matches_untraced(case):
    federation, query = case
    untraced = LusailEngine(federation).execute(query)
    engine = LusailEngine(federation)
    engine.tracer = Tracer(enabled=True)
    engine.registry = MetricsRegistry()
    traced = engine.execute(query)
    assert untraced.ok and traced.ok
    assert Counter(traced.result.rows) == Counter(untraced.result.rows)
    assert traced.metrics.virtual_ms == untraced.metrics.virtual_ms
    assert engine.tracer.roots, "tracing was enabled but produced no spans"


@given(federation_and_query())
@_SETTINGS
def test_store_fed_merge_join_matches_row_oracle(case):
    federation, query = case
    # Feed mediator relations straight off the sorted store runs: for
    # each endpoint, join (?s p1 ?o) with (?s p2 ?o2) on the shared
    # subject using the merge kernel, and compare with the row oracle.
    for name in federation.names():
        store = federation.get(name).store
        predicates = sorted(store.predicates(), key=lambda p: p.value)[:2]
        if len(predicates) < 2:
            continue
        s, o, o2 = Variable("s"), Variable("o"), Variable("o2")
        sides = []
        for variables, predicate in (((s, o), predicates[0]), ((s, o2), predicates[1])):
            rows = [
                (triple.subject, triple.object)
                for triple in store.match(None, predicate, None)
            ]
            sides.append(Relation(variables, rows).sorted_by((s,)))
        left, right = sides
        with kernel_runtime() as runtime:
            joined = left.join(right)
            if len(left) and len(right):
                assert runtime.last_join.kind == "merge"
        oracle = RowRelation.from_relation(left).join(RowRelation.from_relation(right))
        assert Counter(map(tuple, joined.rows)) == Counter(map(tuple, oracle.rows))
