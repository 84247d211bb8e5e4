"""Shared fixtures: the paper's running example and small federations."""

from __future__ import annotations

import gc

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


@pytest.fixture(scope="session")
def lubm2() -> Federation:
    from repro.datasets import lubm

    return lubm.build_federation(universities=2, seed=7)


@pytest.fixture(scope="session")
def lubm4() -> Federation:
    from repro.datasets import lubm

    return lubm.build_federation(universities=4, seed=7)


@pytest.fixture(scope="session")
def qfed_federation() -> Federation:
    from repro.datasets import qfed

    return qfed.build_federation(seed=7)


@pytest.fixture(scope="session")
def largerdf_federation() -> Federation:
    from repro.datasets import largerdf

    return largerdf.build_federation(scale=0.5, seed=7)


def assert_same_bag(left_rows, right_rows):
    """Bag-semantics equality between two row collections."""
    from collections import Counter

    assert Counter(left_rows) == Counter(right_rows)


def oracle_rows(federation: Federation, query_text: str):
    """Centralized union-graph evaluation (the expected answer)."""
    from repro.sparql import evaluate_select, parse_query

    union = federation.union_store()
    return evaluate_select(union, parse_query(query_text)).rows
