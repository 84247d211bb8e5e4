"""Tests for the compiled physical plan layer (``repro.sparql.plan``).

Covers filter pushdown into the probe pipeline, VALUES parameter slots
and skeleton splitting, compiled UNDEF blocks, ASK / LIMIT early termination
through composed operators (counted in store index probes), sub-SELECT
joins on keys left unbound inside, and the LRU plan / probe caches with
store-version invalidation.
"""

from collections import Counter

import pytest

from repro.endpoint import Endpoint
from repro.endpoint.cache import (
    LRUCache,
    MISSING,
    PlanCache,
    ProbeCache,
)
from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql.ast import (
    BGP,
    AskQuery,
    Comparison,
    ExistsExpr,
    Filter,
    GroupPattern,
    OptionalPattern,
    SelectQuery,
    TermExpr,
    UnionPattern,
    ValuesPattern,
    VarExpr,
)
from repro.sparql.evaluator import _Evaluator, evaluate_ask, evaluate_select
from repro.sparql.plan import (
    compile_query,
    split_parameters,
)
from repro.store import TripleStore

EX = "http://ex.org/"

ADVISOR = IRI(EX + "advisor")
TEACHES = IRI(EX + "teacherOf")
TAKES = IRI(EX + "takesCourse")

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def _iri(name: str) -> IRI:
    return IRI(EX + name)


def _university_triples(professors: int = 8, students_per: int = 2):
    """A small advisor/teacherOf/takesCourse graph with wide fan-out."""
    triples = []
    for p in range(professors):
        prof = _iri(f"prof{p}")
        course = _iri(f"course{p}")
        triples.append(Triple(prof, TEACHES, course))
        for s in range(students_per):
            student = _iri(f"student{p}_{s}")
            triples.append(Triple(student, ADVISOR, prof))
            triples.append(Triple(student, TAKES, course))
    return triples


@pytest.fixture
def store():
    store = TripleStore()
    store.add_all(_university_triples())
    return store


def _count_probes(store):
    """Wrap ``store.match_ids`` with an invocation counter.

    Returns the counter list; each index probe issued by a plan appends
    one entry.  Works through an instance attribute, so only this store
    is affected.
    """
    calls = []
    original = store.match_ids

    def counting(s, p, o):
        calls.append((s, p, o))
        return original(s, p, o)

    store.match_ids = counting
    return calls


def _forbid_interpreter(monkeypatch):
    """Make any pattern evaluation by the interpretive evaluator fail."""

    def eval_group(self, group, solutions):
        raise AssertionError("a compiled plan reached the interpretive evaluator")

    monkeypatch.setattr(_Evaluator, "eval_group", eval_group)


class TestFilterPushdown:
    def test_equality_filter_compiles_to_id_eq_before_last_probe(self, store):
        # FILTER(?y = prof0) is written after both patterns but must run
        # as an id-space comparison as soon as ?y is bound — i.e. between
        # the two probes, not at the pipeline tail.
        query = SelectQuery(
            where=GroupPattern(
                [
                    BGP(
                        [
                            TriplePattern(X, ADVISOR, Y),
                            TriplePattern(Y, TEACHES, Z),
                        ]
                    ),
                    Filter(Comparison("=", VarExpr(Y), TermExpr(_iri("prof0")))),
                ]
            ),
            select_vars=(X, Y, Z),
        )
        plan = compile_query(store, query)
        ops = plan.explain()
        assert "id_eq(=)" in ops
        assert ops.index("id_eq(=)") < max(
            i for i, op in enumerate(ops) if op.startswith("probe")
        )
        assert Counter(plan.execute_select().rows) == Counter(
            evaluate_select(store, query).rows
        )

    def test_inequality_filter_compiles_to_id_eq(self, store):
        query = SelectQuery(
            where=GroupPattern(
                [
                    BGP([TriplePattern(X, ADVISOR, Y)]),
                    Filter(Comparison("!=", VarExpr(Y), TermExpr(_iri("prof0")))),
                ]
            ),
            select_vars=(X, Y),
        )
        plan = compile_query(store, query)
        assert "id_eq(!=)" in plan.explain()
        assert Counter(plan.execute_select().rows) == Counter(
            evaluate_select(store, query).rows
        )

    def test_ordering_filter_stays_general(self, store):
        # ``<`` needs SPARQL value comparison, so it must NOT become an
        # id-space equality op; it still runs, via the general filter.
        query = SelectQuery(
            where=GroupPattern(
                [
                    BGP([TriplePattern(X, ADVISOR, Y)]),
                    Filter(Comparison("<", VarExpr(Y), TermExpr(_iri("prof5")))),
                ]
            ),
            select_vars=(X, Y),
        )
        plan = compile_query(store, query)
        ops = plan.explain()
        assert not any(op.startswith("id_eq") for op in ops)
        assert "filter" in ops
        assert Counter(plan.execute_select().rows) == Counter(
            evaluate_select(store, query).rows
        )


class TestParameterSlots:
    def _values_query(self, rows):
        return SelectQuery(
            where=GroupPattern(
                [
                    ValuesPattern((X,), rows),
                    BGP(
                        [
                            TriplePattern(X, ADVISOR, Y),
                            TriplePattern(Y, TEACHES, Z),
                        ]
                    ),
                ]
            ),
            select_vars=(X, Y, Z),
        )

    def test_split_strips_rows(self):
        rows = ((_iri("student0_0"),), (_iri("student1_1"),))
        query = self._values_query(rows)
        skeleton, params = split_parameters(query)
        assert params == (rows,)
        # The skeleton is row-free: a different block yields the same key.
        other, _ = split_parameters(self._values_query(((_iri("student2_0"),),)))
        assert skeleton == other
        assert hash(skeleton) == hash(other)

    def test_one_plan_serves_many_blocks(self, store):
        block1 = ((_iri("student0_0"),), (_iri("student1_0"),))
        block2 = ((_iri("student2_1"),), (_iri("student3_0"),))
        plan = compile_query(store, self._values_query(block1))
        for block in (block1, block2):
            bound = self._values_query(block)
            expected = evaluate_select(store, bound)
            got = plan.execute_select([block])
            assert got.vars == expected.vars
            assert Counter(got.rows) == Counter(expected.rows)
            # Re-binding a cached plan must be bit-identical to
            # compiling the bound query from scratch.
            fresh = compile_query(store, bound).execute_select()
            assert got.rows == fresh.rows

    def test_undef_parameter_runs_compiled(self, store, monkeypatch):
        # An UNDEF (None) in a bound row joins like an unbound column: the
        # plan compiles a variant with that column nullable, once.
        block = ((_iri("student0_0"),), (None,))
        query = self._values_query(block)
        expected = evaluate_select(store, query)
        _forbid_interpreter(monkeypatch)
        plan = compile_query(store, query)
        got = plan.execute_select([block])
        assert Counter(got.rows) == Counter(expected.rows)
        assert len(expected.rows) > 1
        plan.execute_select([((None,), (_iri("student1_0"),))])
        assert len(plan._nullable_cores) == 1
        # A bound block on the same plan still takes the strict core.
        bound = ((_iri("student0_0"),),)
        assert plan.execute_select([bound]).rows == (
            compile_query(store, self._values_query(bound)).execute_select().rows
        )

    def test_wrong_arity_rejected(self, store):
        from repro.sparql.evaluator import EvaluationError

        plan = compile_query(store, self._values_query(((_iri("student0_0"),),)))
        with pytest.raises(EvaluationError):
            plan.execute_select([])  # missing block
        with pytest.raises(EvaluationError):
            plan.execute_select([((_iri("a"), _iri("b")),)])  # arity 2 != 1


class TestEarlyTermination:
    CHAIN = GroupPattern(
        [
            BGP(
                [
                    TriplePattern(X, ADVISOR, Y),
                    TriplePattern(Y, TEACHES, Z),
                ]
            )
        ]
    )

    def test_ask_stops_at_first_solution(self, store):
        calls = _count_probes(store)
        assert compile_query(store, AskQuery(self.CHAIN)).execute_ask() is True
        ask_probes = len(calls)
        del calls[:]
        full = compile_query(
            store, SelectQuery(where=self.CHAIN, select_vars=(X, Y, Z))
        ).execute_select()
        full_probes = len(calls)
        assert len(full.rows) > 1
        # ASK touches the index once per pattern: one probe to open the
        # first pattern's stream, one for the first row's continuation.
        assert ask_probes == 2
        assert ask_probes < full_probes

    EDGE = GroupPattern([BGP([TriplePattern(X, ADVISOR, Y)])])
    TAUGHT = GroupPattern([BGP([TriplePattern(Y, TEACHES, Z)])])
    WITH_OPTIONAL = GroupPattern([*EDGE.elements, OptionalPattern(TAUGHT)])

    @pytest.mark.parametrize(
        "query, probes",
        [
            (AskQuery(WITH_OPTIONAL), 2),
            (SelectQuery(where=WITH_OPTIONAL, select_vars=(X, Y, Z), limit=1), 2),
            (AskQuery(GroupPattern([UnionPattern([EDGE, TAUGHT])])), 1),
            (
                SelectQuery(
                    where=GroupPattern([*EDGE.elements, Filter(ExistsExpr(TAUGHT))]),
                    select_vars=(X, Y),
                    limit=1,
                ),
                2,
            ),
        ],
        ids=["ask optional", "limit optional", "ask union", "limit exists"],
    )
    def test_early_stop_through_composed_operators(self, store, query, probes):
        # Every shape has many solutions; a lazy plan opens one index
        # stream per operator it needs to reach the first of them (the
        # chain's two are pinned above).
        calls = _count_probes(store)
        result = compile_query(store, query).execute()
        assert len(calls) == probes
        if isinstance(query, AskQuery):
            assert result is True
        else:
            unlimited = SelectQuery(where=query.where, select_vars=query.select_vars)
            assert len(result.rows) == 1
            assert result.rows[0] in evaluate_select(store, unlimited).rows

    def test_ask_false_still_terminates(self, store):
        query = AskQuery(
            GroupPattern([BGP([TriplePattern(X, TAKES, _iri("nowhere"))])])
        )
        assert compile_query(store, query).execute_ask() is False
        assert evaluate_ask(store, query) is False

    def test_limit_stops_the_pipeline(self, store):
        calls = _count_probes(store)
        limited = compile_query(
            store, SelectQuery(where=self.CHAIN, select_vars=(X, Y, Z), limit=1)
        ).execute_select()
        limited_probes = len(calls)
        del calls[:]
        full = compile_query(
            store, SelectQuery(where=self.CHAIN, select_vars=(X, Y, Z))
        ).execute_select()
        full_probes = len(calls)
        assert len(limited.rows) == 1
        assert limited.rows[0] in full.rows
        assert limited_probes < full_probes

    def test_limit_with_order_by_sees_all_rows(self, store):
        # ORDER BY needs the whole extent before slicing; LIMIT must not
        # cut the pipeline short.
        from repro.sparql.ast import OrderCondition

        query = SelectQuery(
            where=self.CHAIN,
            select_vars=(X, Y, Z),
            order_by=(OrderCondition(VarExpr(X)),),
            limit=3,
        )
        got = compile_query(store, query).execute_select()
        expected = evaluate_select(store, query)
        assert got.rows == expected.rows


class TestSubSelect:
    @pytest.mark.parametrize(
        "where, solutions",
        [
            # The inner OPTIONAL leaves ?x unbound in one of two rows.
            ("?x ex:p ?y { SELECT ?x ?z { ?z ex:q ?w OPTIONAL { ?x ex:r ?z } } }", 2),
            ("?x ex:p ?y { SELECT ?x { VALUES ?x { UNDEF } } }", 1),
        ],
    )
    def test_inner_row_with_unbound_key_joins_every_outer_row(self, where, solutions):
        from repro.sparql.parser import parse_query

        store = TripleStore()
        store.add_all(
            Triple(_iri(s), _iri(p), _iri(o))
            for s, p, o in ("apb", "cqd", "eqf", "are")
        )
        query = parse_query(f"PREFIX ex: <{EX}> SELECT * {{ {where} }}")
        expected = evaluate_select(store, query).rows
        assert len(expected) == solutions
        assert Counter(compile_query(store, query).execute_select().rows) == Counter(expected)


class TestPlanCache:
    def _plan(self, store, predicate):
        return compile_query(
            store,
            SelectQuery(
                where=GroupPattern([BGP([TriplePattern(X, predicate, Y)])]),
                select_vars=(X, Y),
            ),
        )

    def test_lru_eviction_order(self, store):
        cache = PlanCache(capacity=2)
        plans = {p: self._plan(store, p) for p in (ADVISOR, TEACHES, TAKES)}
        cache.put(ADVISOR, plans[ADVISOR])
        cache.put(TEACHES, plans[TEACHES])
        assert cache.get_plan(ADVISOR) is plans[ADVISOR]  # ADVISOR now MRU
        cache.put(TAKES, plans[TAKES])  # evicts TEACHES, the LRU entry
        assert cache.evictions == 1
        assert cache.get_plan(TEACHES) is MISSING
        assert cache.get_plan(ADVISOR) is plans[ADVISOR]
        assert cache.get_plan(TAKES) is plans[TAKES]
        assert len(cache) == 2

    def test_store_mutation_invalidates_cached_plan(self, store):
        cache = PlanCache()
        plan = self._plan(store, ADVISOR)
        cache.put(ADVISOR, plan)
        assert cache.get_plan(ADVISOR) is plan
        store.add(Triple(_iri("studentX"), ADVISOR, _iri("profX")))
        assert not plan.valid
        assert cache.get_plan(ADVISOR) is MISSING
        assert cache.invalidations == 1
        # The stale lookup counts as a miss, not a hit: only the first
        # get_plan avoided a compilation.
        assert (cache.hits, cache.misses) == (1, 1)
        # Recompilation sees the new triple.
        fresh = self._plan(store, ADVISOR)
        assert fresh.valid
        rows = fresh.execute_select().rows
        assert (_iri("studentX"), _iri("profX")) in rows


class TestLRUCacheBounds:
    def test_capacity_bound_and_eviction_counter(self):
        cache = LRUCache(capacity=3)
        for i in range(5):
            cache.put(i, i * 10)
        assert len(cache) == 3
        assert cache.evictions == 2
        assert cache.get(0) is MISSING and cache.get(1) is MISSING
        assert cache.get(4) == 40

    def test_capacity_zero_disables_storage(self):
        cache = LRUCache(capacity=0)
        cache.put("k", "v")
        assert len(cache) == 0
        assert cache.get("k") is MISSING

    def test_probe_cache_disabled_never_hits(self):
        cache = ProbeCache(enabled=False)
        cache.put("k", True)
        assert cache.get("k") is MISSING
        assert cache.hits == 0

    def test_probe_cache_caches_false(self):
        # ASK probes legitimately cache a negative result; the sentinel
        # must distinguish "cached False" from "not cached".
        cache = ProbeCache()
        cache.put("k", False)
        assert cache.get("k") is False


class TestEndpointPlanCache:
    def _block_query(self, students):
        return SelectQuery(
            where=GroupPattern(
                [
                    ValuesPattern((X,), tuple((s,) for s in students)),
                    BGP([TriplePattern(X, ADVISOR, Y)]),
                ]
            ),
            select_vars=(X, Y),
        )

    def test_bound_join_blocks_compile_once(self):
        endpoint = Endpoint("ep", _university_triples())
        blocks = [
            [_iri("student0_0"), _iri("student1_0")],
            [_iri("student2_0"), _iri("student3_1")],
            [_iri("student4_0")],
        ]
        for block in blocks:
            result = endpoint.select(self._block_query(block))
            assert Counter(result.rows) == Counter(
                evaluate_select(endpoint.store, self._block_query(block)).rows
            )
        hits, misses, evictions, compile_s, execute_s = endpoint.plan_stats()
        assert misses == 1  # one skeleton, compiled once
        assert hits == len(blocks) - 1
        assert evictions == 0
        assert compile_s >= 0.0 and execute_s > 0.0

    def test_undef_block_runs_compiled_at_the_endpoint(self, monkeypatch):
        endpoint = Endpoint("ep", _university_triples())
        query = self._block_query([_iri("student0_0"), None])
        ask = AskQuery(query.where)
        expected = evaluate_select(endpoint.store, query)
        assert evaluate_ask(endpoint.store, ask) is True
        _forbid_interpreter(monkeypatch)
        assert Counter(endpoint.select(query).rows) == Counter(expected.rows)
        assert endpoint.ask(ask) is True
        records = endpoint.audit_probes(query)
        assert [r["output_rows"] for r in records] == [len(expected.rows)]

    def test_capacity_zero_recompiles_every_request(self):
        endpoint = Endpoint("ep", _university_triples())
        endpoint.plan_cache = PlanCache(capacity=0)
        query = self._block_query([_iri("student0_0")])
        first = endpoint.select(query)
        second = endpoint.select(query)
        assert first.rows == second.rows
        hits, misses, _, _, _ = endpoint.plan_stats()
        assert (hits, misses) == (0, 2)

    def test_mutation_between_requests_recompiles(self):
        endpoint = Endpoint("ep", _university_triples())
        query = self._block_query([_iri("studentX")])
        assert endpoint.select(query).rows == []
        endpoint.store.add(Triple(_iri("studentX"), ADVISOR, _iri("profX")))
        assert endpoint.select(query).rows == [(_iri("studentX"), _iri("profX"))]
        assert endpoint.plan_cache.invalidations == 1


def test_single_pattern_rows_arrive_in_match_order(store):
    """A one-probe pipeline hands on the store's sorted iteration as is."""
    s, o = Variable("s"), Variable("o")
    query = SelectQuery(
        where=GroupPattern([BGP([TriplePattern(s, ADVISOR, o)])]),
        select_vars=(s, o),
    )
    # Predicate-bound probes run on POS: object then subject.
    assert store.match_order(p_bound=True) == (2, 0)
    result = compile_query(store, query).execute_select()
    lookup = store.dictionary.lookup
    ids = [(lookup(row[1]), lookup(row[0])) for row in result.rows]
    assert ids and ids == sorted(ids)


class TestProbeKernels:
    """L2 — the paper's Q1 triangle — against one ``SMALL_PROFILE`` LUBM
    endpoint: the three ``?x`` patterns run as one intersect step over
    the sorted runs, and nothing observable about the plan moves."""

    @staticmethod
    def _compiled(federation, name):
        from repro.datasets import queries_lubm
        from repro.sparql.parser import parse_query

        store = federation.get("university0").store
        query = parse_query(queries_lubm.queries()[name])
        return store, query, compile_query(store, query)

    @pytest.fixture
    def l2(self, lubm2):
        return self._compiled(lubm2, "L2")

    def test_the_x_patterns_compile_to_one_intersect_step(self, l2, monkeypatch):
        store, query, plan = l2
        on_x = [op for op in plan.explain() if op.startswith("intersect[?x ")]
        assert len(on_x) == 1
        assert on_x[0].count(" & ") == 2
        for name in ("undergraduateDegreeFrom", "GraduateStudent", "memberOf"):
            assert name in on_x[0]
        expected = evaluate_select(store, query)
        calls = []
        original = store.match_ids
        monkeypatch.setattr(
            store, "match_ids", lambda s, p, o: calls.append((s, p, o)) or original(s, p, o)
        )
        result = plan.execute_select()
        # Only generic probes reach match_ids: one per input row of the
        # leading `?y a ub:University` probe, none per checked row (the
        # same plan made 149 calls before the kernels).
        assert 1 <= len(calls) <= 3
        assert Counter(result.rows) == Counter(expected.rows)
        assert len(result.rows) == 19

    def test_audit_still_reports_one_record_per_pattern(self, l2):
        _store, _query, plan = l2
        records = plan.audit_probes()
        assert [
            (r["estimated"], r["actual"], r["input_rows"], r["output_rows"]) for r in records
        ] == [
            (1.0, 1.0, 1, 1),  # ?y a ub:University
            (3.0, 3.0, 1, 3),  # ?z ub:subOrganizationOf ?y
            (2.0, 1.0, 3, 3),  # ?z a ub:Department
            (42.0, 28.0, 3, 84),  # ?x ub:undergraduateDegreeFrom ?y
            (2.0, 57 / 84, 84, 57),  # ?x a ub:GraduateStudent
            (2.0, 19 / 57, 57, 19),  # ?x ub:memberOf ?z
        ]
