"""Shared fixtures: the paper's running example and small federations."""

from __future__ import annotations

import gc
from functools import cache

import pytest

from repro.core.engine import LusailEngine
from repro.endpoint import Endpoint, Federation
from repro.rdf import IRI, Literal, Namespace, Triple, UB

MIT = Namespace("http://mit.example.org/")
CMU = Namespace("http://cmu.example.org/")

#: The paper's running example query (Fig 2).
QA = """
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?S ?P ?U ?A WHERE {
  ?S ub:advisor ?P .
  ?S ub:takesCourse ?C .
  ?P ub:teacherOf ?C .
  ?P ub:PhDDegreeFrom ?U .
  ?U ub:address ?A .
}
"""


@pytest.fixture(autouse=True)
def collector_state_is_restored():
    """A collector pause (``repro.store.dictionary.collector_paused``)
    that leaks fails the test that leaked it."""
    enabled = gc.isenabled()
    yield
    assert gc.isenabled() == enabled, "the test left the cycle collector switched"


def build_paper_federation() -> Federation:
    """Figure 1's two universities, including Tim's interlink and Ann's
    false-positive case."""
    from repro.rdf.namespaces import RDF_TYPE

    ep1 = Endpoint("EP1")  # MIT
    ep1.add_all(
        [
            Triple(MIT.Lee, UB.advisor, MIT.Ben),
            Triple(MIT.Lee, UB.takesCourse, MIT.c1),
            Triple(MIT.Ben, UB.teacherOf, MIT.c1),
            Triple(MIT.Ben, UB.PhDDegreeFrom, MIT.MIT),
            Triple(MIT.MIT, UB.address, Literal("XXX")),
            Triple(MIT.Sam, UB.advisor, MIT.Ann),
            Triple(MIT.Sam, UB.takesCourse, MIT.c1),
            Triple(MIT.Ann, UB.PhDDegreeFrom, MIT.MIT),
        ]
    )
    ep2 = Endpoint("EP2")  # CMU
    ep2.add_all(
        [
            Triple(CMU.Kim, UB.advisor, CMU.Joy),
            Triple(CMU.Kim, UB.takesCourse, CMU.c2),
            Triple(CMU.Joy, UB.teacherOf, CMU.c2),
            Triple(CMU.Joy, UB.PhDDegreeFrom, CMU.CMU),
            Triple(CMU.CMU, UB.address, Literal("CCCC")),
            Triple(CMU.Kim, UB.advisor, CMU.Tim),
            Triple(CMU.Kim, UB.takesCourse, CMU.c3),
            Triple(CMU.Tim, UB.teacherOf, CMU.c3),
            Triple(CMU.Tim, UB.PhDDegreeFrom, MIT.MIT),
        ]
    )
    return Federation([ep1, ep2])


@pytest.fixture
def paper_federation() -> Federation:
    return build_paper_federation()


@pytest.fixture
def lusail(paper_federation) -> LusailEngine:
    return LusailEngine(paper_federation)


def _lubm(universities: int) -> Federation:
    from repro.datasets import lubm

    return lubm.build_federation(universities=universities, seed=7)


def _qfed() -> Federation:
    from repro.datasets import qfed

    return qfed.build_federation(seed=7)


def _largerdf() -> Federation:
    from repro.datasets import largerdf

    return largerdf.build_federation(scale=0.5, seed=7)


#: The session federations' builders, by fixture name.
SESSION_BUILDERS = {
    "lubm2": lambda: _lubm(2),
    "lubm4": lambda: _lubm(4),
    "qfed_federation": _qfed,
    "largerdf_federation": _largerdf,
}
#: The session federations built so far: one object per fixture name,
#: shared by every test that names the fixture.
_SESSION_FEDERATIONS: dict[str, Federation] = {}


def _session_federation(name: str) -> Federation:
    federation = _SESSION_FEDERATIONS[name] = SESSION_BUILDERS[name]()
    return federation


@pytest.fixture(scope="session")
def lubm2() -> Federation:
    return _session_federation("lubm2")


@pytest.fixture(scope="session")
def lubm4() -> Federation:
    return _session_federation("lubm4")


@pytest.fixture(scope="session")
def qfed_federation() -> Federation:
    return _session_federation("qfed_federation")


@pytest.fixture(scope="session")
def largerdf_federation() -> Federation:
    return _session_federation("largerdf_federation")


def _written(federation: Federation) -> list:
    """What a write to ``federation`` replaces: its endpoints and each
    one's store state."""
    return [(endpoint, endpoint.store.state) for endpoint in federation]


@pytest.fixture(autouse=True)
def session_federations_stay_unwritten():
    """A test that writes to a session federation — a store state moved,
    an endpoint joined, left or was replaced — fails: every later test
    sharing the fixture would read its writes.  Session fixtures are set
    up before this one, so a test's first use of one is covered too."""
    before = {name: _written(federation) for name, federation in _SESSION_FEDERATIONS.items()}
    yield
    for name, written in before.items():
        after = _written(_SESSION_FEDERATIONS[name])
        unchanged = len(after) == len(written) and all(
            endpoint is was and state is old
            for (endpoint, state), (was, old) in zip(after, written)
        )
        assert unchanged, f"the test wrote to the session federation {name}"


@cache
def _session_triples(name: str) -> tuple[tuple[str, str, tuple[Triple, ...]], ...]:
    """Each endpoint of the session federation ``name``: its name, region
    and triples, read once from a copy nothing else touches."""
    return tuple(
        (endpoint.name, endpoint.region, tuple(endpoint.store))
        for endpoint in SESSION_BUILDERS[name]()
    )


def fresh_federation(name: str) -> Federation:
    """The data of the session fixture ``name`` on endpoints built for the
    caller: no compiled plan, member set or summary another test left.
    A test that pins counters those caches move runs on one of these."""
    return Federation(
        Endpoint(endpoint, triples, region) for endpoint, region, triples in _session_triples(name)
    )


def assert_same_bag(left_rows, right_rows):
    """Bag-semantics equality between two row collections."""
    from collections import Counter

    assert Counter(left_rows) == Counter(right_rows)


def serial_runs(federation: Federation, queries: dict[str, str]):
    """Warm serial virtual cost and rows of each named query.

    Each query runs twice on one private engine; the second run is the
    steady-state cost a one-at-a-time mediator pays per arrival (probe
    and plan caches warm), which favours the serial side.
    """
    from repro.endpoint.cache import EngineCaches
    from repro.obs import MetricsRegistry, Tracer

    engine = LusailEngine(federation, caches=EngineCaches(), timeout_ms=None)
    engine.tracer = Tracer(enabled=False)
    engine.registry = MetricsRegistry()
    costs, rows = {}, {}
    for name in sorted(queries):
        engine.execute(queries[name], raise_on_failure=True)
        outcome = engine.execute(queries[name], raise_on_failure=True)
        costs[name] = outcome.metrics.virtual_ms
        rows[name] = outcome.result.rows
    return costs, rows


def assert_served_as_serial(records, serial_rows) -> None:
    """Every ok served record holds, as a bag, its query's serial rows.

    Served rows are shared list objects (cache entries, attached
    waiters), so each distinct ``(name, rows object)`` is compared once.
    """
    checked = set()
    for record in records:
        key = (record.name, id(record.result.rows) if record.result else None)
        if record.ok and key not in checked:
            assert_same_bag(record.result.rows, serial_rows[record.name])
            checked.add(key)


def oracle_rows(federation: Federation, query_text: str):
    """Centralized union-graph evaluation (the expected answer)."""
    from repro.sparql import evaluate_select, parse_query

    union = federation.union_store()
    return evaluate_select(union, parse_query(query_text)).rows
