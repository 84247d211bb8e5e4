"""Property-based cross-engine correctness.

For seeded random decentralized federations (obeying the authority
discipline of DESIGN.md) and random connected conjunctive queries, every
federated engine must return exactly the rows a centralized evaluation
over the union graph returns — with multiplicities.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import FedXEngine, HibiscusEngine, SplendidEngine
from repro.core.engine import LusailConfig, LusailEngine
from repro.datasets.random_federation import (
    FederationShape,
    build_random_federation,
    build_random_query,
)
from repro.sparql import evaluate_select, serialize_query

_ENGINE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def _oracle(federation, query):
    union = federation.union_store()
    return Counter(evaluate_select(union, query).rows)


@st.composite
def federation_and_query(draw):
    fed_seed = draw(st.integers(min_value=0, max_value=10_000))
    query_seed = draw(st.integers(min_value=0, max_value=10_000))
    endpoints = draw(st.integers(min_value=2, max_value=4))
    shape = FederationShape(endpoints=endpoints, entities_per_endpoint=10)
    federation = build_random_federation(fed_seed, shape)
    query = build_random_query(query_seed, endpoints)
    return federation, query


@given(federation_and_query())
@_ENGINE_SETTINGS
def test_lusail_matches_oracle(case):
    federation, query = case
    outcome = LusailEngine(federation).execute(query)
    assert outcome.ok, outcome.error
    assert Counter(outcome.result.rows) == _oracle(federation, query), serialize_query(query)


@given(federation_and_query())
@_ENGINE_SETTINGS
def test_fedx_matches_oracle(case):
    federation, query = case
    outcome = FedXEngine(federation).execute(query)
    assert outcome.ok, outcome.error
    assert Counter(outcome.result.rows) == _oracle(federation, query), serialize_query(query)


@given(federation_and_query())
@_ENGINE_SETTINGS
def test_hibiscus_matches_oracle(case):
    federation, query = case
    outcome = HibiscusEngine(federation).execute(query)
    assert outcome.ok, outcome.error
    assert Counter(outcome.result.rows) == _oracle(federation, query), serialize_query(query)


@given(federation_and_query())
@_ENGINE_SETTINGS
def test_splendid_matches_oracle(case):
    federation, query = case
    outcome = SplendidEngine(federation).execute(query)
    assert outcome.ok, outcome.error
    assert Counter(outcome.result.rows) == _oracle(federation, query), serialize_query(query)


@given(federation_and_query())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_lusail_ablations_match_oracle(case):
    federation, query = case
    expected = _oracle(federation, query)
    for config in (
        LusailConfig(decomposition="exclusive"),
        LusailConfig(decomposition="triple"),
        LusailConfig(delay_policy=None),
        LusailConfig(use_chauvenet=False),
    ):
        outcome = LusailEngine(federation, config=config).execute(query)
        assert outcome.ok, (config, outcome.error)
        assert Counter(outcome.result.rows) == expected, (config, serialize_query(query))


@given(st.integers(min_value=0, max_value=5000), st.integers(min_value=0, max_value=5000))
@settings(max_examples=20, deadline=None)
def test_lusail_deterministic(fed_seed, query_seed):
    shape = FederationShape(endpoints=3, entities_per_endpoint=8)
    federation = build_random_federation(fed_seed, shape)
    query = build_random_query(query_seed, 3)
    first = LusailEngine(federation).execute(query)
    second = LusailEngine(federation).execute(query)
    assert Counter(first.result.rows) == Counter(second.result.rows)
    assert first.metrics.request_count() >= second.metrics.request_count()


@st.composite
def federation_and_optional_query(draw):
    from repro.datasets.random_federation import build_random_optional_query

    fed_seed = draw(st.integers(min_value=0, max_value=10_000))
    query_seed = draw(st.integers(min_value=0, max_value=10_000))
    endpoints = draw(st.integers(min_value=2, max_value=3))
    shape = FederationShape(endpoints=endpoints, entities_per_endpoint=8)
    federation = build_random_federation(fed_seed, shape)
    query = build_random_optional_query(query_seed, endpoints)
    return federation, query


@given(federation_and_optional_query())
@_ENGINE_SETTINGS
def test_lusail_optional_matches_oracle(case):
    federation, query = case
    outcome = LusailEngine(federation).execute(query)
    assert outcome.ok, outcome.error
    assert Counter(outcome.result.rows) == _oracle(federation, query), serialize_query(query)


@given(federation_and_optional_query())
@_ENGINE_SETTINGS
def test_fedx_optional_matches_oracle(case):
    federation, query = case
    outcome = FedXEngine(federation).execute(query)
    assert outcome.ok, outcome.error
    assert Counter(outcome.result.rows) == _oracle(federation, query), serialize_query(query)


@given(federation_and_optional_query())
@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_splendid_optional_matches_oracle(case):
    federation, query = case
    outcome = SplendidEngine(federation).execute(query)
    assert outcome.ok, outcome.error
    assert Counter(outcome.result.rows) == _oracle(federation, query), serialize_query(query)
