"""Interleaved writes: answers follow the store, whatever the caches hold.

Random SELECTs over a seeded random federation, with random ``add`` /
``remove`` writes and endpoint replacements between them, run on one
warm engine of each kind and
on one :class:`~repro.serve.QueryServer`.  Every answer must equal the
union-store oracle's bag at that state: probe caches, indexes, the
serving result cache and the subquery share all carry state across the
writes, and none of it may show.

Writes keep the generator's authority discipline (DESIGN.md): a triple
is added at its subject's home endpoint, with a shared predicate and a
local object or the endpoint's own interlink predicate and a remote
object, and a removal drops a triple the endpoint holds.  A "replace"
write swaps an endpoint for a new one of the same name holding other
triples (one dropped, one added), so a cache that pinned the old
endpoint by name alone would answer from a store that left.  Before the
engines start, each endpoint loses every triple of one vocabulary term,
and a "revive" write adds one back: that is the write which turns an
endpoint every probe and index saw as irrelevant into a source.

Bounded at 12 examples of 4 steps each (about 3 s on 2 vCPUs).
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.baselines import AnapsidEngine, FedXEngine, HibiscusEngine, SplendidEngine
from repro.core.engine import LusailEngine
from repro.datasets.random_federation import (
    CLASSES,
    DATA_PREDICATES,
    LOCAL_LINKS,
    FederationShape,
    build_random_federation,
    build_random_query,
    remote_link,
)
from repro.endpoint import Endpoint
from repro.rdf import IRI, RDF_TYPE, Triple, typed_literal
from repro.serve import QueryRequest, QueryServer
from repro.sparql import evaluate_select, serialize_query

ENGINES = (LusailEngine, FedXEngine, HibiscusEngine, SplendidEngine, AnapsidEngine)
ENTITIES = 8
#: The shared vocabulary a write may use: ``rdf:type`` per class, data
#: predicates, local links, and each endpoint's own interlink.
TERMS = (
    [("type", cls) for cls in CLASSES]
    + [("data", predicate) for predicate in DATA_PREDICATES]
    + [("local", predicate) for predicate in LOCAL_LINKS]
    + [("remote", None)]
)


def _entity(endpoint: int, index: int) -> IRI:
    return IRI(f"http://ep{endpoint}.example.org/entity{index}")


def _triple(endpoints: int, endpoint: int, term, subject: int, obj: int) -> Triple:
    """A triple of ``term`` at its subject's home ``endpoint``."""
    kind, vocabulary = term
    entity = _entity(endpoint, subject % ENTITIES)
    if kind == "type":
        return Triple(entity, RDF_TYPE, vocabulary)
    if kind == "data":
        return Triple(entity, vocabulary, typed_literal(obj % 20))
    if kind == "local":
        return Triple(entity, vocabulary, _entity(endpoint, obj % ENTITIES))
    other = (endpoint + 1 + obj % (endpoints - 1)) % endpoints
    return Triple(entity, remote_link(endpoint), _entity(other, obj // endpoints % ENTITIES))


def _matches(triple: Triple, endpoint: int, term) -> bool:
    kind, vocabulary = term
    if kind == "type":
        return triple.predicate == RDF_TYPE and triple.object == vocabulary
    if kind == "remote":
        return triple.predicate == remote_link(endpoint)
    return triple.predicate == vocabulary


@st.composite
def _scenario(draw):
    endpoints = draw(st.integers(2, 3))
    fed_seed = draw(st.integers(0, 10_000))
    pool = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=3, unique=True))
    # One vocabulary term per endpoint is absent when the engines start,
    # so a write can make an endpoint relevant that every probe and
    # index saw as irrelevant.
    dropped = draw(st.lists(st.sampled_from(TERMS), min_size=endpoints, max_size=endpoints))
    write = st.tuples(
        st.sampled_from(["add", "revive", "remove", "replace"]),
        st.integers(0, endpoints - 1),
        st.sampled_from(TERMS),
        st.integers(0, 10_000),
        st.integers(0, 10_000),
    )
    steps = draw(
        st.lists(
            st.tuples(st.lists(write, max_size=3), st.integers(0, len(pool) - 1)),
            min_size=4,
            max_size=4,
        )
    )
    return endpoints, fed_seed, pool, dropped, steps


def _apply(federation, endpoints: int, dropped, write) -> None:
    kind, index, term, subject, obj = write
    endpoint = federation.get(f"ep{index}")
    if kind == "remove":
        held = sorted(endpoint.store, key=repr)
        if held:
            endpoint.remove(held[subject % len(held)])
        return
    if kind == "revive":
        term = dropped[index]
    added = _triple(endpoints, index, term, subject, obj)
    if kind == "replace":
        federation.remove(endpoint.name)
        held = sorted(endpoint.store, key=repr)
        if held:
            del held[subject % len(held)]
        federation.add(Endpoint(endpoint.name, [*held, added], region=endpoint.region))
        return
    endpoint.add(added)


@given(_scenario())
@settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
def test_warm_engines_and_a_server_follow_interleaved_writes(scenario):
    endpoints, fed_seed, pool, dropped, steps = scenario
    federation = build_random_federation(
        fed_seed, FederationShape(endpoints=endpoints, entities_per_endpoint=ENTITIES)
    )
    for index, term in enumerate(dropped):
        endpoint = federation.get(f"ep{index}")
        for triple in [t for t in endpoint.store if _matches(t, index, term)]:
            endpoint.remove(triple)
    queries = [build_random_query(seed, endpoints) for seed in pool]
    engines = [engine_class(federation) for engine_class in ENGINES]
    server = QueryServer(federation)
    # Warm every cache on every query before the first write.
    for query in queries:
        for engine in engines:
            engine.execute(query)
        server.run([QueryRequest(0.0, "t", "warm", serialize_query(query))])
    for writes, pick in steps:
        for write in writes:
            _apply(federation, endpoints, dropped, write)
        query = queries[pick]
        expected = Counter(evaluate_select(federation.union_store(), query).rows)
        text = serialize_query(query)
        for engine in engines:
            outcome = engine.execute(query)
            assert outcome.ok, (engine.name, outcome.error)
            assert Counter(outcome.result.rows) == expected, (engine.name, text)
        served = server.run([QueryRequest(0.0, "t", "q", text)])[0]
        assert served.ok, served.error
        assert Counter(served.result.rows) == expected, ("QueryServer", served.path, text)
