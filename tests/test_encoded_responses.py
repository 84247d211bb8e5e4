"""Ids across the wire: encoded SELECT responses end to end.

An endpoint answers with id columns plus its dictionary; the client
sizes the response from cached per-id text lengths; the mediator
translates whole columns through one table per (codec, endpoint
dictionary).  The identities pinned here are what keeps every virtual
number where the term-row hand-off had it:

* translating a response and encoding its decoded rows assign the *same*
  codec ids (row-major first-occurrence order), so every relation column
  is list-equal either way;
* the payload estimate equals the term walk it replaced, cell for cell;
* the dictionary is append-only, so store mutations and lost responses
  leave the tables valid and nothing is ever translated twice;
* term producers (digest-pruned fragments, the serving layer's
  attached views) still flow through the same calls;
* a response appended to a relation stays a segment in its endpoint's
  id space until an operator reads ids, and any operator sequence over
  segments gives the rows and ids eager translation gives, without
  ever writing a response's columns.
"""

from collections import Counter
from contextlib import contextmanager

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.engine import LusailConfig, LusailEngine
from repro.datasets import lubm, qfed, queries_lubm
from repro.datasets.random_federation import (
    build_random_federation,
    build_random_optional_query,
    build_random_query,
)
from repro.endpoint import Endpoint, Federation
from repro.endpoint.client import _TERM_OVERHEAD_BYTES, _payload_bytes
from repro.faults import EndpointFaults, FaultPlan
from repro.rdf import BNode, IRI, Literal, Triple, Variable
from repro.rdf.terms import typed_literal
from repro.relational.relation import Relation, RowStore, mediator_codec
from repro.serve import QueryRequest, QueryServer
from repro.serve.client import ServingClient
from repro.sparql import evaluate_select, parse_query, serialize_query
from repro.sparql.ast import Comparison, FunctionCall, OrderCondition, TermExpr, VarExpr
from repro.sparql.evaluator import SelectResult
from repro.sparql.partial import prune_rows
from repro.store.dictionary import TermDictionary
from tests.conftest import QA, build_paper_federation
from tests.test_serve import QA_RENAMED

EX = "http://ex.org/"


def iri(name):
    return IRI(EX + name)


@contextmanager
def recorded(owner, attr):
    """Every value ``owner.attr`` returns while the block runs."""
    original = owner.__dict__[attr]
    captured = []

    def recording(*args, **kwargs):
        value = original(*args, **kwargs)
        captured.append(value)
        return value

    setattr(owner, attr, recording)
    try:
        yield captured
    finally:
        setattr(owner, attr, original)


def reference_payload_bytes(rows) -> int:
    """The term walk ``_payload_bytes`` performed before responses were
    encoded — the definition of ``response_bytes``."""
    total = 0
    for row in rows:
        for term in row:
            if term is None:
                continue
            value = getattr(term, "value", None)
            if value is None:
                value = getattr(term, "label", "")
            total += len(value) + _TERM_OVERHEAD_BYTES
    return total


class TwinIngest:
    """Ingests each response twice — by ids and by decoded rows — into
    two fresh codecs and checks the two stay indistinguishable."""

    def __init__(self):
        self.by_ids = TermDictionary()
        self.by_rows = TermDictionary()
        self.responses = 0
        self.columns_with_unbound = 0

    def check(self, result: SelectResult) -> None:
        width = len(result.vars)
        ids, rows = RowStore(self.by_ids, width), RowStore(self.by_rows, width)
        ids.extend(result)
        rows.extend(result.rows)
        assert ids.columns == rows.columns
        assert ids.length == rows.length == len(result) == len(result.rows)
        assert self.by_ids.terms == self.by_rows.terms
        assert list(ids) == result.rows
        assert _payload_bytes(result) == reference_payload_bytes(result.rows)
        self.responses += 1
        self.columns_with_unbound += sum(None in column for column in ids.columns)


#: Endpoint-level shapes an engine run does not produce on its own.
def _direct_queries(p: str, q: str, constant: str) -> list[str]:
    return [
        # OPTIONAL: a column holding None
        f"SELECT ?s ?o ?l WHERE {{ ?s <{p}> ?o OPTIONAL {{ ?s <{q}> ?l }} }}",
        # UNDEF VALUES: None passed through from the request, plus a
        # constant only the request ever mentioned
        f"SELECT ?s ?o ?z WHERE {{ VALUES (?s ?z) {{ (<{constant}> UNDEF) (UNDEF <{EX}fresh>) }}"
        f" ?s <{p}> ?o }}",
        # empty
        f"SELECT ?s WHERE {{ ?s <{EX}nothing> ?o }}",
        # zero-width, one row per match
        f"SELECT * WHERE {{ <{constant}> <{p}> <{constant}> }}",
        # tail clauses (rows come from the DISTINCT / ORDER / slice tail)
        f"SELECT DISTINCT ?o WHERE {{ ?s <{p}> ?o }} ORDER BY ?o LIMIT 5 OFFSET 1",
        # canonicalised probes: COUNT (mints a fresh literal) and LIMIT 1 check
        f"SELECT (COUNT(*) AS ?c) WHERE {{ ?s <{p}> ?o }}",
        f"SELECT ?s WHERE {{ ?s <{p}> ?o FILTER EXISTS {{ ?s <{q}> ?l }} }} LIMIT 1",
    ]


def _exercise(federation: Federation, query_texts, p: str, q: str) -> TwinIngest:
    """Run the queries federated, then the direct shapes at every
    endpoint (plain, truncated); twin-ingest every response."""
    twin = TwinIngest()
    with recorded(Endpoint, "select") as responses:
        engine = LusailEngine(federation)
        for text in query_texts:
            assert engine.execute(text).ok
        for endpoint in federation:
            subject = next(endpoint.store.match(None, IRI(p), None)).subject
            constant = subject.value
            for text in _direct_queries(p, q, constant):
                query = parse_query(text)
                endpoint.select(query)
                endpoint.result_limit = 2
                assert len(endpoint.select(query)) <= 2
                endpoint.result_limit = None
    for result in responses:
        assert result.columns is not None
        twin.check(result)
    return twin


class TestTranslationAssignsTheIdsEncodingWould:
    def test_lubm_responses(self):
        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=3)
        queries = {**queries_lubm.queries(), **lubm.crossing_queries()}
        ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
        twin = _exercise(federation, queries.values(), ub + "worksFor", ub + "headOf")
        assert twin.responses > len(queries)
        assert twin.columns_with_unbound > 0

    @given(st.integers(0, 10_000), st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_random_federations(self, federation_seed, query_seed):
        federation = build_random_federation(federation_seed)
        endpoints = len(federation)
        texts = [
            serialize_query(build_random_query(query_seed, endpoints)),
            serialize_query(build_random_optional_query(query_seed, endpoints)),
        ]
        vocab = "http://vocab.example.org/"
        twin = _exercise(federation, texts, vocab + "link0", vocab + "data0")
        assert twin.columns_with_unbound > 0

    def test_relation_from_result_matches_term_rows(self, lubm2):
        endpoint = next(iter(lubm2))
        query = parse_query(queries_lubm.queries()["L1"])
        result = endpoint.select(query)
        assert result.columns is not None and len(result) > 0
        relation = Relation.from_result(result, partitions=2)
        assert relation.columns == Relation(result.vars, result.rows).columns
        assert relation.partitions == 2 and list(relation.rows) == result.rows

    def test_cross_column_first_occurrence_is_row_major(self):
        # id 1 shows up first in column 1 (row 0), id 0 first in column 0
        # of the same row; id 2 only later in column 0.
        source = TermDictionary()
        a, b, c = (source.encode(iri(name)) for name in "abc")
        columns = [[a, c, b], [b, a, a]]
        codec = TermDictionary()
        assert codec.translate_columns(source, columns) == [[0, 2, 1], [1, 0, 0]]
        assert codec.terms == [iri("a"), iri("b"), iri("c")]
        # A second source maps onto the same codec ids without minting any.
        other = TermDictionary()
        for name in "cxa":
            other.encode(iri(name))
        assert codec.translate_columns(other, [[0, None, 2]]) == [[2, None, 0]]
        assert len(codec) == 3


class TestPayloadBytes:
    def test_every_term_kind_and_unbound(self):
        endpoint = Endpoint(
            "e",
            [
                Triple(iri("a"), iri("p"), Literal("plain text")),
                Triple(iri("a"), iri("q"), Literal("hola", language="es")),
                Triple(BNode("node1"), iri("p"), typed_literal(5)),
                Triple(iri("b"), iri("p"), Literal("")),
            ],
        )
        result = endpoint.select(
            parse_query(
                f"SELECT ?s ?o ?l WHERE {{ ?s <{EX}p> ?o OPTIONAL {{ ?s <{EX}q> ?l }} }}"
            )
        )
        kinds = {type(term) for row in result.rows for term in row}
        assert kinds == {IRI, Literal, BNode, type(None)}
        expected = reference_payload_bytes(result.rows)
        assert _payload_bytes(result) == expected
        # Sized without decoding anything.
        fresh = endpoint.select(parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"))
        _payload_bytes(fresh)
        assert fresh._rows is None

    def test_qfed_big_literal_responses(self, qfed_federation):
        engine = LusailEngine(qfed_federation)
        with recorded(Endpoint, "select") as responses:
            for name in ("C2P2B", "C2P2BO"):
                outcome = engine.execute(qfed.queries()[name])
                assert outcome.ok
        assert responses
        sizes = [_payload_bytes(result) for result in responses]
        assert sizes == [reference_payload_bytes(result.rows) for result in responses]
        # The big literals are what is being charged.
        assert max(sizes) > 10_000
        shipped = sum(
            record.response_bytes
            for record in outcome.metrics.records
            if not record.cached and record.kind in ("select", "bound")
        )
        assert shipped > 0


class _CountedEncodes:
    """Counts ``encode`` calls on one dictionary (class-level patch)."""

    def __init__(self, monkeypatch, dictionary):
        self.calls = 0
        original = TermDictionary.encode

        def encode(this, term):
            if this is dictionary:
                self.calls += 1
            return original(this, term)

        monkeypatch.setattr(TermDictionary, "encode", encode)

    def take(self) -> int:
        calls, self.calls = self.calls, 0
        return calls


def _tables(codec, federation) -> dict[str, list]:
    return {
        endpoint.name: list(codec._tables.get(endpoint.store.dictionary, ()))
        for endpoint in federation
    }


def _assert_tables_valid(codec, federation) -> None:
    for endpoint in federation:
        source = endpoint.store.dictionary
        table = codec._tables.get(source, ())
        assert len(table) <= len(source)
        for local, mapped in enumerate(table):
            assert mapped == -1 or codec.decode(mapped) == source.decode(local)
        lengths = source.text_lengths()
        assert len(lengths) == len(source)
        assert list(lengths) == [
            len(term.label if isinstance(term, BNode) else term.value) for term in source
        ]


class TestDictionaryOnlyGrows:
    def test_mutation_between_requests_translates_only_new_terms(self, monkeypatch):
        federation = build_paper_federation()
        codec = mediator_codec()
        encodes = _CountedEncodes(monkeypatch, codec)
        engine = LusailEngine(federation)
        oracle = lambda: Counter(  # noqa: E731
            evaluate_select(federation.union_store(), parse_query(QA)).rows
        )
        assert Counter(engine.execute(QA).result.rows) == oracle()
        encodes.take()
        warm = engine.execute(QA)
        assert encodes.take() == 0
        before = _tables(codec, federation)

        ep1 = federation.get("EP1")
        ub = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"
        mit = "http://mit.example.org/"
        # A new student (new terms, appended to EP1's dictionary) who
        # adds an answer row, and one removed triple that drops one.
        ep1.add(Triple(IRI(mit + "Zoe"), IRI(ub + "advisor"), IRI(mit + "Ben")))
        ep1.add(Triple(IRI(mit + "Zoe"), IRI(ub + "takesCourse"), IRI(mit + "c1")))
        ep2 = federation.get("EP2")
        cmu = "http://cmu.example.org/"
        assert ep2.remove(Triple(IRI(cmu + "Kim"), IRI(ub + "takesCourse"), IRI(cmu + "c3")))

        changed = engine.execute(QA)
        assert changed.ok
        assert Counter(changed.result.rows) == oracle() != Counter(warm.result.rows)
        assert changed.result.rows == LusailEngine(federation).execute(QA).result.rows
        # The table grew with the dictionary and kept what it held ...
        after = _tables(codec, federation)
        assert len(after["EP1"]) > len(before["EP1"])
        for name, table in before.items():
            kept = after[name][: len(table)]
            assert all(old in (-1, new) for old, new in zip(table, kept))
        # ... and the only terms hashed into the codec were the ones
        # filling an empty table entry: nothing was translated twice.
        filled = lambda tables: sum(  # noqa: E731
            mapped != -1 for table in tables.values() for mapped in table
        )
        assert 0 < encodes.take() == filled(after) - filled(before)
        assert IRI(mit + "Zoe") in codec
        _assert_tables_valid(codec, federation)
        assert engine.execute(QA).result.rows == changed.result.rows
        assert encodes.take() == 0

    def test_lost_response_leaves_tables_valid(self):
        codec = mediator_codec()
        clean = LusailEngine(build_paper_federation()).execute(QA)
        assert clean.ok
        federation = build_paper_federation()
        engine = LusailEngine(federation)
        # The endpoint does the work, then the response is lost.
        engine.fault_plan = FaultPlan(
            seed=5, endpoints={"EP2": EndpointFaults(error_probability=0.5)}
        )
        with recorded(Endpoint, "select") as responses:
            failed = engine.execute(QA)
        assert not failed.ok and failed.metrics.failed_request_count() >= 1
        assert responses, "the fault must hit after at least one evaluation"
        _assert_tables_valid(codec, federation)
        engine.fault_plan = None
        retried = engine.execute(QA)
        assert retried.ok
        assert retried.result.rows == clean.result.rows
        _assert_tables_valid(codec, federation)

    def test_tables_die_with_the_federation(self):
        import gc

        codec = TermDictionary()
        source = TermDictionary()
        source.encode(iri("a"))
        codec.translate_columns(source, [[0]])
        assert len(codec._tables) == 1
        del source
        gc.collect()
        assert len(codec._tables) == 0


class TestTermProducers:
    def test_assigning_rows_drops_the_id_columns(self):
        endpoint = Endpoint(
            "e", [Triple(iri(f"s{i}"), iri("p"), Literal("v" * (i + 1))) for i in range(6)]
        )
        from repro.store.digests import stable_term_hash

        result = endpoint.select(parse_query(f"SELECT ?s ?o WHERE {{ ?s <{EX}p> ?o }}"))
        assert result.columns is not None and len(result) == 6
        digest = frozenset(stable_term_hash(iri(f"s{i}")) for i in (1, 4))
        kept, pruned = prune_rows(result, ((Variable("s"), digest),))
        result.rows = kept
        assert pruned == 4 and len(result) == 2 == len(result.rows)
        assert result.columns is None and result.dictionary is None
        assert _payload_bytes(result) == reference_payload_bytes(kept)
        relation = Relation.from_result(result)
        assert list(relation.rows) == kept

    def test_partial_strategy_ships_the_kept_rows(self):
        federation = lubm.build_federation(3, profile=lubm.TINY_PROFILE, seed=7)
        text = lubm.crossing_queries()["Q4"]
        engine = LusailEngine(federation, config=LusailConfig(strategy="partial"))
        with recorded(Endpoint, "partial_evaluate") as rounds:
            outcome = engine.execute(text)
        assert outcome.ok
        oracle = evaluate_select(federation.union_store(), parse_query(text)).rows
        assert Counter(outcome.result.rows) == Counter(oracle)
        assert rounds and sum(result.pruned_rows() for result in rounds) > 0
        shipped_rows = shipped_bytes = 0
        for result in rounds:
            parts = [fragment.result for fragment in result.fragments]
            if result.complete is not None:
                parts.append(result.complete)
            for part in parts:
                assert len(part) == len(part.rows)
                shipped_rows += len(part)
                shipped_bytes += reference_payload_bytes(part.rows)
            for fragment in result.fragments:
                if fragment.pruned_rows:
                    assert fragment.result.columns is None
        records = [r for r in outcome.metrics.records if r.kind == "partial"]
        assert sum(record.rows for record in records) == shipped_rows
        assert sum(record.response_bytes for record in records) == shipped_bytes


class TestServeSharesTheEncodedResponse:
    def test_attached_consumer_gets_a_header_only_view(self):
        # DISTINCT gives the second text its own result-cache key, so
        # neither the cache nor whole-query attach answers it; its
        # endpoint subqueries are QA's, renamed.
        distinct = QA_RENAMED.replace("SELECT ", "SELECT DISTINCT ", 1)
        server = QueryServer(build_paper_federation())
        arrivals = [
            QueryRequest(at_ms=0.0, tenant="a", name="QA", text=QA),
            QueryRequest(at_ms=0.0, tenant="b", name="QA'", text=distinct),
        ]
        with recorded(ServingClient, "select") as selects:
            records = server.run(arrivals)
        assert [record.path for record in records] == ["executed", "executed"]
        assert server.mqo_subquery_hits > 0
        results = [result for result, __end in selects]
        produced = {id(result.columns): result for result in results if result._rows is None}
        attached = [
            (result, other)
            for result in results
            for other in results
            if result is not other
            and result.columns is not None
            and result.columns is other.columns
            and result.vars != other.vars
        ]
        assert produced and len(attached) >= 2 * server.mqo_subquery_hits > 0
        for view, producer in attached:
            # Same columns, same dictionary, own header; nothing decoded.
            assert view.dictionary is producer.dictionary
            assert len(view) == len(producer)
            assert view._rows is None and producer._rows is None
        first, second = records
        assert Counter(first.result.rows) == Counter(second.result.rows)
        assert first.result.vars != second.result.vars


# --------------------------------------------------------------------------
# Segments: a response stays in its endpoint's id space until read as ids

_POOL = [iri(f"t{i}") for i in range(4)] + [
    Literal("a"),
    typed_literal(1),
    typed_literal(7),
    BNode("b0"),
]
_SCHEMA = [Variable(name) for name in "ABCD"]


@st.composite
def _endpoint_dictionary(draw) -> TermDictionary:
    """A store dictionary over part of the pool, in its own id order."""
    dictionary = TermDictionary()
    for term in draw(st.lists(st.sampled_from(_POOL), min_size=1, unique=True)):
        dictionary.encode(term)
    return dictionary


@st.composite
def _responses(draw, dictionaries, vars=None) -> tuple:
    """A schema (width 0 to 3) and 0 to 3 encoded responses over it,
    each from one of ``dictionaries``, unbound cells included."""
    if vars is None:
        vars = tuple(draw(st.lists(st.sampled_from(_SCHEMA), unique=True, max_size=3)))
    responses = []
    for __ in range(draw(st.integers(0, 3))):
        dictionary = draw(st.sampled_from(dictionaries))
        length = draw(st.integers(0, 4))
        cell = st.one_of(st.none(), st.integers(0, len(dictionary) - 1))
        columns = [draw(st.lists(cell, min_size=length, max_size=length)) for __ in vars]
        responses.append(SelectResult.encoded(vars, columns, length, dictionary))
    return vars, responses


def _ingested(vars, responses) -> tuple[Relation, Relation]:
    """The responses extended into a store, and the eager reference:
    their decoded term rows encoded through the codec."""
    lazy = Relation(vars)
    for response in responses:
        lazy.rows.extend(response)
    eager = Relation(vars, [row for response in responses for row in response.rows])
    return lazy, eager


def _assert_same_rows(lazy: Relation, eager: Relation) -> None:
    assert lazy.vars == eager.vars
    assert len(lazy) == len(eager)
    assert lazy.rows.term_rows() == eager.rows.term_rows()


def _step(data, dictionaries, lazy: Relation, eager: Relation) -> tuple[Relation, Relation]:
    """One random operator applied to both sides, or one read compared."""
    op = data.draw(
        st.sampled_from(
            (
                "extend", "union", "project", "distinct", "join", "left_join",
                "filter", "order_by", "limit", "slice", "count", "term_rows",
            )
        )
    )
    if op == "extend":
        # Onto segments, codec columns, join runs or a projection alike.
        for response in data.draw(_responses(dictionaries, lazy.vars))[1]:
            lazy.rows.extend(response)
            eager.rows.extend(response.rows)
    if op in ("union", "join", "left_join"):
        other_lazy, other_eager = _ingested(*data.draw(_responses(dictionaries)))
        return getattr(lazy, op)(other_lazy), getattr(eager, op)(other_eager)
    if op == "project":
        # Unknown variables included: they project to unbound columns.
        variables = data.draw(st.lists(st.sampled_from(_SCHEMA), unique=True, max_size=4))
        return lazy.project(variables), eager.project(variables)
    if op == "distinct":
        return lazy.distinct(), eager.distinct()
    if op == "filter" and lazy.vars:
        variable = VarExpr(data.draw(st.sampled_from(lazy.vars)))
        expression = data.draw(
            st.one_of(
                st.just(FunctionCall("BOUND", [variable])),
                st.sampled_from(_POOL).map(lambda term: Comparison("=", variable, TermExpr(term))),
            )
        )
        return lazy.filter(expression), eager.filter(expression)
    if op == "order_by" and lazy.vars:
        conditions = [
            OrderCondition(VarExpr(var), data.draw(st.booleans()))
            for var in data.draw(st.permutations(lazy.vars))
        ]
        return lazy.order_by(conditions), eager.order_by(conditions)
    if op == "limit":
        limit = data.draw(st.one_of(st.none(), st.integers(0, 6)))
        offset = data.draw(st.integers(0, 6))
        return lazy.limit(limit, offset), eager.limit(limit, offset)
    if op == "slice":
        window = slice(
            data.draw(st.one_of(st.none(), st.integers(-8, 8))),
            data.draw(st.one_of(st.none(), st.integers(-8, 8))),
            data.draw(st.sampled_from((None, 1, 2, -1))),
        )
        assert lazy.rows[window] == eager.rows[window]
        if len(eager):
            index = data.draw(st.integers(-len(eager), len(eager) - 1))
            assert lazy.rows[index] == eager.rows[index]
    if op == "count":
        variable = data.draw(st.one_of(st.none(), st.sampled_from(_SCHEMA)))
        distinct = data.draw(st.booleans())
        assert lazy.count(variable, distinct) == eager.count(variable, distinct)
    return lazy, eager


class TestSegmentsEqualEagerTranslation:
    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_random_operator_sequences(self, data):
        dictionaries = data.draw(st.lists(_endpoint_dictionary(), min_size=1, max_size=3))
        lazy, eager = _ingested(*data.draw(_responses(dictionaries)))
        _assert_same_rows(lazy, eager)
        for __ in range(data.draw(st.integers(0, 6))):
            lazy, eager = _step(data, dictionaries, lazy, eager)
            _assert_same_rows(lazy, eager)
        # Forced: the ids every kernel reads are the reference's.
        assert lazy.columns == eager.columns

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_a_response_shared_by_two_stores_is_never_written(self, data):
        """Serve's attach path: one response feeds two queries' stores,
        the second through a renamed ``view``; both go on to take more
        responses and joins, and the shared columns stay bit-identical."""
        dictionaries = data.draw(st.lists(_endpoint_dictionary(), min_size=1, max_size=3))
        vars = tuple(
            data.draw(st.lists(st.sampled_from(_SCHEMA), unique=True, min_size=1, max_size=3))
        )
        renamed = tuple(Variable(var.name.lower()) for var in vars)
        shared = data.draw(_responses(dictionaries, vars))[1] or [
            SelectResult.encoded(vars, [[0] for __ in vars], 1, dictionaries[0])
        ]
        shared = shared[0]
        columns = list(shared.columns)
        snapshot = [list(column) for column in columns]
        view = shared.view(renamed)
        more = data.draw(_responses(dictionaries, vars))[1]
        first, first_eager = _ingested(vars, [shared, *more])
        second, second_eager = _ingested(renamed, [view, *[r.view(renamed) for r in more]])
        for __ in range(data.draw(st.integers(1, 4))):
            first, first_eager = _step(data, dictionaries, first, first_eager)
            second, second_eager = _step(data, dictionaries, second, second_eager)
            _assert_same_rows(first, first_eager)
            _assert_same_rows(second, second_eager)
        assert first.columns == first_eager.columns
        assert second.columns == second_eager.columns
        assert all(now is before for now, before in zip(shared.columns, columns))
        assert [list(column) for column in shared.columns] == snapshot

    @given(st.lists(_endpoint_dictionary(), min_size=1, max_size=3), st.data())
    def test_translation_interns_in_arrival_order(self, dictionaries, data):
        """Deferred translation interns what eager translation would, in
        the same order: a fresh codec per side, compared term by term."""
        vars, responses = data.draw(_responses(dictionaries))
        deferred = RowStore(TermDictionary(), len(vars))
        eager = RowStore(TermDictionary(), len(vars))
        for response in responses:
            deferred.extend(response)
            eager.extend(response)
            assert len(eager.columns) == len(vars)  # translated on arrival
        assert deferred.columns == eager.columns
        assert list(deferred.codec) == list(eager.codec)


class TestSegmentsStayUntranslated:
    def test_union_project_and_the_answer_edge_translate_nothing(self, monkeypatch):
        left, right = TermDictionary(), TermDictionary()
        for term in _POOL:
            left.encode(term)
        for term in reversed(_POOL):
            right.encode(term)
        a, b, c = _SCHEMA[:3]
        first = Relation((a, b))
        first.rows.extend(SelectResult.encoded((a, b), [[0, 1, 2], [3, None, 5]], 3, left))
        first.rows.extend(SelectResult.encoded((a, b), [[0, 1], [2, 3]], 2, right))
        second = Relation((b, c))
        second.rows.extend(SelectResult.encoded((b, c), [[4], [6]], 1, right))
        calls = []
        translate = TermDictionary.translate_columns
        monkeypatch.setattr(
            TermDictionary,
            "translate_columns",
            lambda self, source, columns: calls.append(source) or translate(self, source, columns),
        )
        answer = first.union(second).project((c, a, _SCHEMA[3]))
        assert len(answer.rows.segments) == 3 and not calls
        rows = answer.rows.term_rows()
        assert rows[1:4] == answer.rows[1:4] and rows[-1] == answer.rows[-1]
        assert rows == [
            (None, _POOL[0], None),
            (None, _POOL[1], None),
            (None, _POOL[2], None),
            (None, _POOL[-1], None),
            (None, _POOL[-2], None),
            (_POOL[1], None, None),
        ]
        assert not calls
        # The first read as ids translates every segment, in arrival order.
        assert answer.columns[1] == [mediator_codec().lookup(term) for __, term, __ in rows]
        assert calls == [left, right, right] and not answer.rows.segments

    def test_a_response_after_join_runs_follows_them(self):
        """Even an empty join output is runs: a response appended to it
        is translated on arrival, never left behind the runs."""
        a, b = _SCHEMA[:2]
        joined = Relation((a,), [(_POOL[0],)]).join(Relation((a, b), [(_POOL[1], _POOL[2])]))
        assert joined.rows.runs is not None and not len(joined)
        dictionary = TermDictionary()
        dictionary.encode(_POOL[3])
        joined.rows.extend(SelectResult.encoded((a, b), [[0], [None]], 1, dictionary))
        assert joined.rows.term_rows() == [(_POOL[3], None)]
        assert not joined.rows.segments and joined.rows.runs is None

    def test_a_projection_translates_through_its_source_once(self, monkeypatch):
        """Reading a projection as ids translates the store it narrows —
        each response once, however many projections are read — and
        keeps the rows the source held when it was projected."""
        dictionary = TermDictionary()
        for term in _POOL:
            dictionary.encode(term)
        a, b, c = _SCHEMA[:3]
        first = SelectResult.encoded((a, b), [[0, 1, 2], [3, None, 5]], 3, dictionary)
        source = Relation((a, b))
        source.rows.extend(first)
        narrow, widened = source.project((b,)), source.project((b, c, a))
        grown = source.project((b,))
        source.rows.extend(SelectResult.encoded((a, b), [[6], [7]], 1, dictionary))
        # A projection given rows of its own no longer mirrors its source.
        grown.rows.extend(SelectResult.encoded((b,), [[4]], 1, dictionary))
        calls = []
        translate = TermDictionary.translate_columns
        monkeypatch.setattr(
            TermDictionary,
            "translate_columns",
            lambda self, source, columns: calls.append(len(columns[0]))
            or translate(self, source, columns),
        )
        assert widened.distinct().rows.term_rows() == [
            (b_term, None, a_term) for a_term, b_term in first.rows
        ]
        assert narrow.columns == Relation((b,), [(row[1],) for row in first.rows]).columns
        assert len(source.columns[0]) == 4 and len(narrow) == 3
        assert calls == [3, 1]
        assert grown.columns == Relation(
            (b,), [(row[1],) for row in first.rows] + [(_POOL[4],)]
        ).columns
