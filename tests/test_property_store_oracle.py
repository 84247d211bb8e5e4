"""Property oracle for the array-backed substrate.

The ISSUE-level acceptance criterion: across seeded random decentralized
federations, the sorted-run store path must be observationally identical
to a term-space evaluation of the same input triples — same rows with
multiplicities through both centralized evaluation and full federated
execution.  Turning tracing on must not change any result (traced-vs-
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
from repro.sparql import evaluate_select
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
