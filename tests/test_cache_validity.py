"""Writes retire only the cache entries they can change.

Every cache holding an endpoint-derived answer — the serving result
cache, the serving subquery share and the client's ASK / check / COUNT
probe caches — validates an entry by
:meth:`repro.store.TripleStore.last_write` over the triple patterns the
answer reads: a write to a predicate the entry does not read, or to
another ``rdf:type`` class, keeps it; a write its patterns could match
retires it.  Each case below fills one cache on EP1, writes, and asks
again: a kept entry counts a hit, a retired one a miss, and the answer
returned is always the store's current one.
"""

import pytest

from repro.endpoint import EngineCaches, FederationClient
from repro.net.simulator import local_cluster_config
from repro.rdf import Literal, Namespace, RDF_TYPE, Triple, TriplePattern, Variable, UB
from repro.serve import QueryRequest, QueryServer, ResultCache
from repro.sparql import evaluate_select, parse_query
from repro.sparql.ast import (
    BGP,
    CountAggregate,
    Expression,
    Filter,
    GroupPattern,
    Not,
    PatternNode,
    SelectQuery,
)
from repro.store import TripleStore

from tests.conftest import MIT, QA, build_paper_federation

EX = Namespace("http://example.org/")
PREFIX = (
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
    "PREFIX mit: <http://mit.example.org/>\n"
)

ADVISOR = PREFIX + "SELECT ?s ?p WHERE { ?s ub:advisor ?p }"
GRADUATE = PREFIX + "SELECT ?s WHERE { ?s a ub:GraduateStudent }"
ANY_PREDICATE = PREFIX + "SELECT ?s ?o WHERE { ?s ?q ?o }"
UNDER_OPTIONAL = PREFIX + (
    "SELECT ?s ?c WHERE { ?s ub:advisor ?p OPTIONAL { ?s ub:takesCourse ?c } }"
)
UNDER_UNION = PREFIX + (
    "SELECT ?s ?p WHERE { { ?s ub:advisor ?p } UNION { ?s ub:teacherOf ?p } }"
)
UNDER_SUBSELECT = PREFIX + (
    "SELECT ?s WHERE { ?s ub:advisor ?p { SELECT ?s WHERE { ?s ub:takesCourse ?c } } }"
)
UNDER_NOT_EXISTS = PREFIX + (
    "SELECT ?s WHERE { ?s ub:advisor ?p FILTER NOT EXISTS { ?p ub:teacherOf ?c } }"
)

ZOE_EMAIL = Triple(MIT.Zoe, UB.emailAddress, Literal("zoe@mit"))
ZOE_ADVISOR = Triple(MIT.Zoe, UB.advisor, MIT.Ben)
LEE_ADVISOR = Triple(MIT.Lee, UB.advisor, MIT.Ben)
ZOE_COURSE = Triple(MIT.Zoe, RDF_TYPE, UB.Course)
ZOE_GRADUATE = Triple(MIT.Zoe, RDF_TYPE, UB.GraduateStudent)
LEE_GRADUATE = Triple(MIT.Lee, RDF_TYPE, UB.GraduateStudent)
ZOE_TAKES = Triple(MIT.Zoe, UB.takesCourse, MIT.c1)
ANN_TEACHES = Triple(MIT.Ann, UB.teacherOf, MIT.c1)

#: (case id, query, write kind, triple, retires the entry)
CASES = [
    ("unread-predicate", ADVISOR, "add", ZOE_EMAIL, False),
    ("other-class", GRADUATE, "add", ZOE_COURSE, False),
    ("type-class-not-read", ADVISOR, "add", ZOE_GRADUATE, False),
    ("matching-add", ADVISOR, "add", ZOE_ADVISOR, True),
    ("matching-remove", ADVISOR, "remove", LEE_ADVISOR, True),
    ("class-add", GRADUATE, "add", ZOE_GRADUATE, True),
    ("class-remove", GRADUATE, "remove", LEE_GRADUATE, True),
    ("variable-predicate", ANY_PREDICATE, "add", ZOE_EMAIL, True),
    ("optional-unread", UNDER_OPTIONAL, "add", ZOE_EMAIL, False),
    ("optional", UNDER_OPTIONAL, "add", ZOE_TAKES, True),
    ("union", UNDER_UNION, "add", ANN_TEACHES, True),
    ("subselect", UNDER_SUBSELECT, "add", ZOE_TAKES, True),
    ("not-exists", UNDER_NOT_EXISTS, "add", ANN_TEACHES, True),
    ("add_all-unread", ADVISOR, "add_all", ZOE_EMAIL, False),
    ("add_all-other-class", GRADUATE, "add_all", ZOE_COURSE, False),
    ("add_all-matching", ADVISOR, "add_all", ZOE_ADVISOR, True),
    ("add_all-class", GRADUATE, "add_all", ZOE_GRADUATE, True),
]


def _federation():
    """The paper federation, with two ``rdf:type`` triples on EP1."""
    federation = build_paper_federation()
    federation.get("EP1").add_all([LEE_GRADUATE, Triple(MIT.c1, RDF_TYPE, UB.Course)])
    return federation


def _write(endpoint, kind: str, triple: Triple) -> None:
    if kind == "add_all":
        assert endpoint.add_all([triple]) == 1
    else:
        assert getattr(endpoint, kind)(triple)


def _rows(endpoint, query):
    return sorted(evaluate_select(endpoint.store, query).rows, key=repr)


class _Harness:
    """Fill one cache with an answer from EP1; ask again later."""

    def fill(self, federation, query) -> None:
        raise NotImplementedError

    def ask(self, federation, query):
        """``(hit, answer)``; ``answer`` compares to :meth:`truth`."""
        raise NotImplementedError

    def truth(self, federation, query):
        raise NotImplementedError

    def applies(self, query) -> bool:
        return True


class _ResultCacheHarness(_Harness):
    def fill(self, federation, query):
        self.cache = ResultCache()
        rows = _rows(federation.get("EP1"), query)
        self.cache.store(("q",), rows, ["EP1"], federation, query.triple_patterns())

    def ask(self, federation, query):
        entry = self.cache.lookup(("q",), federation)
        if entry is None:
            return False, _rows(federation.get("EP1"), query)
        return True, entry.rows

    def truth(self, federation, query):
        return _rows(federation.get("EP1"), query)


class _ShareHarness(_Harness):
    def fill(self, federation, query):
        self.server = QueryServer(federation)
        result = federation.get("EP1").select(query)
        self.server.register_select("EP1", query, result, 0.0)

    def ask(self, federation, query):
        shared = self.server.shared_select("EP1", query)
        if shared is None:
            return False, _rows(federation.get("EP1"), query)
        return True, sorted(shared[0].rows, key=repr)

    def truth(self, federation, query):
        return _rows(federation.get("EP1"), query)


class _ProbeHarness(_Harness):
    kind = ""

    def fill(self, federation, query):
        self.caches = EngineCaches()
        self._probe(federation, query)

    def _client(self, federation):
        return FederationClient(federation, local_cluster_config(), caches=self.caches)

    def _probe(self, federation, query):
        raise NotImplementedError

    def ask(self, federation, query):
        cache = getattr(self.caches, self.kind)
        hits = cache.hits
        answer = self._probe(federation, query)
        return cache.hits > hits, answer


class _AskHarness(_ProbeHarness):
    kind = "ask"

    def applies(self, query):
        """An ASK probe reads one triple pattern."""
        elements = query.where.elements
        return len(elements) == 1 and isinstance(elements[0], BGP) and len(elements[0].triples) == 1

    def _probe(self, federation, query):
        pattern = query.where.elements[0].triples[0]
        return self._client(federation).ask("EP1", pattern, 0.0)[0]

    def truth(self, federation, query):
        return federation.get("EP1").ask_pattern(query.where.elements[0].triples[0])


class _CheckHarness(_ProbeHarness):
    kind = "check"

    def _probe(self, federation, query):
        return self._client(federation).check("EP1", query, 0.0)[0]

    def truth(self, federation, query):
        return len(federation.get("EP1").select(query)) > 0


class _CountHarness(_ProbeHarness):
    kind = "count"

    @staticmethod
    def _counting(query):
        return SelectQuery(where=query.where, aggregate=CountAggregate(Variable("n")))

    def _probe(self, federation, query):
        return self._client(federation).count("EP1", self._counting(query), 0.0)[0]

    def truth(self, federation, query):
        return len(evaluate_select(federation.get("EP1").store, query).rows)


HARNESSES = {
    "result-cache": _ResultCacheHarness,
    "subquery-share": _ShareHarness,
    "ask": _AskHarness,
    "check": _CheckHarness,
    "count": _CountHarness,
}


@pytest.mark.parametrize(
    "harness_name, query_text, kind, triple, retired",
    [
        pytest.param(name, *case[1:], id=f"{name}-{case[0]}")
        for name in sorted(HARNESSES)
        for case in CASES
        if HARNESSES[name]().applies(parse_query(case[1]))
    ],
)
def test_a_write_retires_exactly_the_entries_it_can_change(
    harness_name, query_text, kind, triple, retired
):
    harness = HARNESSES[harness_name]()
    query = parse_query(query_text)
    federation = _federation()
    harness.fill(federation, query)
    assert harness.ask(federation, query)[0], "an unwritten store keeps the entry"
    _write(federation.get("EP1"), kind, triple)
    hit, answer = harness.ask(federation, query)
    assert hit is not retired
    assert answer == harness.truth(federation, query)


def test_a_write_to_another_endpoint_keeps_every_entry():
    federation = _federation()
    query = parse_query(ADVISOR)
    for name in sorted(HARNESSES):
        harness = HARNESSES[name]()
        harness.fill(federation, query)
        federation.get("EP2").add(Triple(MIT.Zed, UB.advisor, MIT.Ben))
        assert harness.ask(federation, query)[0], name


class TestLastWrite:
    """The store primitive the caches read."""

    def _store(self):
        store = TripleStore()
        store.add_all(
            [Triple(EX.a, EX.p, EX.b), Triple(EX.a, RDF_TYPE, EX.C), Triple(EX.b, EX.q, EX.a)]
        )
        return store

    def test_a_bulk_load_into_an_empty_store_retires_everything(self):
        store = self._store()
        assert store.last_write([TriplePattern(Variable("s"), EX.q, Variable("o"))]) == 1

    def test_writes_are_kept_per_predicate_and_per_class(self):
        store = self._store()
        by_p = [TriplePattern(Variable("s"), EX.p, Variable("o"))]
        by_class = [TriplePattern(Variable("s"), RDF_TYPE, EX.C)]
        by_type = [TriplePattern(Variable("s"), RDF_TYPE, Variable("c"))]
        store.add(Triple(EX.b, RDF_TYPE, EX.D))
        assert store.version == 2
        assert store.last_write(by_p) == 1
        assert store.last_write(by_class) == 1
        assert store.last_write(by_type) == 2
        store.remove(Triple(EX.a, EX.p, EX.b))
        assert store.last_write(by_p) == 3
        assert store.last_write(by_p + by_class) == 3
        store.add_all([Triple(EX.c, RDF_TYPE, EX.C), Triple(EX.c, EX.q, EX.a)])
        assert store.last_write(by_class) == 4
        assert store.last_write(by_p) == 3

    def test_variable_predicates_and_unknown_shapes_read_the_version(self):
        store = self._store()
        store.add(Triple(EX.z, EX.r, EX.z))
        assert store.last_write([TriplePattern(EX.a, Variable("p"), Variable("o"))]) == 2
        assert store.last_write(None) == 2

    def test_a_constant_the_dictionary_lacks_reads_zero(self):
        store = self._store()
        store.add(Triple(EX.z, EX.p, EX.z))
        assert store.last_write([TriplePattern(Variable("s"), EX.unknown, Variable("o"))]) == 0
        assert store.last_write([TriplePattern(EX.nobody, EX.p, Variable("o"))]) == 0
        assert store.last_write([TriplePattern(Variable("s"), EX.p, EX.nothing)]) == 0
        assert store.last_write([TriplePattern(Variable("s"), RDF_TYPE, EX.Nothing)]) == 0

    def test_clear_retires_everything(self):
        store = self._store()
        store.clear()
        assert store.last_write([TriplePattern(Variable("s"), EX.p, Variable("o"))]) == 2


class TestTriplePatternsWalk:
    def test_every_supported_shape_is_walked(self):
        query = parse_query(
            PREFIX
            + "SELECT ?s WHERE { ?s ub:advisor ?p OPTIONAL { ?s ub:takesCourse ?c } "
            "{ ?s ub:a ?x } UNION { ?s ub:b ?x } "
            "FILTER (?p != mit:Ben || NOT EXISTS { ?p ub:teacherOf ?c }) "
            "{ SELECT ?s WHERE { ?s ub:d ?y } } VALUES ?s { mit:Lee } } "
            "ORDER BY ASC(EXISTS { ?s ub:e ?z })"
        )
        predicates = [pattern.predicate for pattern in query.triple_patterns()]
        assert predicates == [
            UB.advisor, UB.takesCourse, UB.a, UB.b, UB.teacherOf, UB.d, UB.e,
        ]

    def test_an_unknown_node_makes_the_walk_abstain(self):
        class Unknown(PatternNode):
            __slots__ = ()

        assert GroupPattern([BGP([]), Unknown()]).triple_patterns() is None
        wrapped = SelectQuery(where=GroupPattern([Filter(Not(_UnknownExpression()))]))
        assert wrapped.triple_patterns() is None


class _UnknownExpression(Expression):
    __slots__ = ()


def test_server_reexecutes_after_a_write_without_invalidate():
    """Twin of ``test_server_reexecutes_after_store_mutation`` with no
    ``invalidate()``: every cache validates itself against the write."""
    federation = build_paper_federation()
    server = QueryServer(federation)
    request = [QueryRequest(at_ms=0.0, tenant="a", name="QA", text=QA)]
    first = server.run(request)
    assert first[0].path == "executed"
    federation.get("EP1").add_all(
        [Triple(MIT.Zoe, UB.advisor, MIT.Ben), Triple(MIT.Zoe, UB.takesCourse, MIT.c1)]
    )
    second = server.run(request)
    assert second[0].path == "executed"
    assert len(second[0].result.rows) == len(first[0].result.rows) + 1
    assert server.result_cache.invalidations == 1


def test_server_keeps_its_answer_across_a_write_it_does_not_read():
    federation = build_paper_federation()
    server = QueryServer(federation)
    request = [QueryRequest(at_ms=0.0, tenant="a", name="QA", text=QA)]
    first = server.run(request)
    federation.get("EP1").add(ZOE_EMAIL)
    federation.get("EP2").add(ZOE_GRADUATE)
    again = server.run(request)
    assert again[0].path == "cache"
    assert again[0].result.rows == first[0].result.rows
    assert server.result_cache.invalidations == 0


def test_invalidate_leaves_the_probe_caches_alone():
    federation = build_paper_federation()
    server = QueryServer(federation)
    client = FederationClient(federation, local_cluster_config(), caches=server.caches)
    pattern = parse_query(ADVISOR).where.elements[0].triples[0]
    client.ask("EP1", pattern, 0.0)
    federation.get("EP1").add(ZOE_EMAIL)
    server.invalidate()
    assert len(server.caches.ask) == 1
    client.ask("EP1", pattern, 0.0)
    assert server.caches.ask.hits == 1
