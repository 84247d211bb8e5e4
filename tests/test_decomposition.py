"""Unit tests for LADE: check queries, GJV detection, decomposition.

Fixtures recreate the paper's Figure 1/5 scenario so the tests exercise
exactly the cases the paper discusses: the interlink (?U), the safe local
join (?S), and the false positive (?P).
"""

import pytest

from repro.core.decomposition.check_queries import (
    checks_for_pair,
    formulate_check,
    type_constraint_for,
)
from repro.core.decomposition.decomposer import decompose
from repro.core.decomposition.gjv import GJVResult, detect_gjvs, join_entities
from repro.core.decomposition.subquery import Subquery
from repro.endpoint import EngineCaches, FederationClient
from repro.net.simulator import local_cluster_config
from repro.planning.source_selection import SourceSelection, select_sources
from repro.rdf import IRI, RDF_TYPE, UB, TriplePattern, Variable
from repro.sparql.serializer import serialize_query

from tests.conftest import build_paper_federation

S, P, U, C, A = (Variable(name) for name in "SPUCA")

TP_ADVISOR = TriplePattern(S, UB.advisor, P)
TP_TAKES = TriplePattern(S, UB.takesCourse, C)
TP_TEACHER = TriplePattern(P, UB.teacherOf, C)
TP_PHD = TriplePattern(P, UB.PhDDegreeFrom, U)
TP_ADDRESS = TriplePattern(U, UB.address, A)
QA_PATTERNS = [TP_ADVISOR, TP_TAKES, TP_TEACHER, TP_PHD, TP_ADDRESS]


@pytest.fixture
def client():
    return FederationClient(build_paper_federation(), local_cluster_config(), EngineCaches())


@pytest.fixture
def selection(client):
    result, __ = select_sources(client, QA_PATTERNS, 0.0)
    return result


class TestJoinEntities:
    def test_finds_shared_variables(self):
        entities = join_entities(QA_PATTERNS)
        assert set(entities) == {S, P, U, C}
        assert len(entities[S]) == 2
        assert len(entities[P]) == 3

    def test_single_occurrence_excluded(self):
        entities = join_entities([TP_ADDRESS])
        assert A not in entities and U not in entities


class TestCheckQueries:
    def test_type_constraint_found(self):
        type_pattern = TriplePattern(P, RDF_TYPE, UB.Professor)
        assert type_constraint_for(P, [type_pattern, TP_TEACHER]) == type_pattern
        assert type_constraint_for(P, [TP_TEACHER]) is None

    def test_object_subject_single_direction(self):
        checks = checks_for_pair(U, TP_PHD, TP_ADDRESS, QA_PATTERNS, ("EP1",))
        assert len(checks) == 1  # object/subject: one direction only

    def test_subject_subject_two_directions(self):
        checks = checks_for_pair(S, TP_ADVISOR, TP_TAKES, QA_PATTERNS, ("EP1",))
        assert len(checks) == 2

    def test_object_object_two_directions(self):
        takes = TriplePattern(S, UB.takesCourse, C)
        teaches = TriplePattern(P, UB.teacherOf, C)
        checks = checks_for_pair(C, takes, teaches, QA_PATTERNS, ("EP1",))
        assert len(checks) == 2

    def test_same_pattern_pair_yields_nothing(self):
        assert checks_for_pair(S, TP_ADVISOR, TP_ADVISOR, QA_PATTERNS, ("EP1",)) == []

    def test_check_query_has_limit_one(self):
        query = formulate_check(U, TP_PHD, TP_ADDRESS, None)
        assert query.limit == 1
        assert query.select_vars == (U,)

    def test_check_query_serializes_to_fig6_shape(self):
        query = formulate_check(U, TP_PHD, TP_ADDRESS, None)
        text = serialize_query(query)
        assert "FILTER NOT EXISTS" in text
        assert "SELECT ?U" in text
        assert "LIMIT 1" in text

    def test_constants_in_inner_pattern_generalized(self):
        constant_inner = TriplePattern(U, UB.address, IRI("http://x.org/addr"))
        query = formulate_check(U, TP_PHD, constant_inner, None)
        text = serialize_query(query)
        # The constant address must have been replaced by a variable.
        assert "http://x.org/addr" not in text


class TestDetectGJVs:
    def test_paper_example_gjvs(self, client, selection):
        gjvs, __ = detect_gjvs(client, QA_PATTERNS, selection, 0.0)
        assert set(gjvs.variables) == {P, U}

    def test_u_is_global_because_of_interlink(self, client, selection):
        gjvs, __ = detect_gjvs(client, QA_PATTERNS, selection, 0.0)
        assert frozenset((TP_PHD, TP_ADDRESS)) in gjvs.variables[U]

    def test_p_is_false_positive_from_ann(self, client, selection):
        gjvs, __ = detect_gjvs(client, QA_PATTERNS, selection, 0.0)
        assert frozenset((TP_ADVISOR, TP_TEACHER)) in gjvs.variables[P]

    def test_s_and_c_are_local(self, client, selection):
        gjvs, __ = detect_gjvs(client, QA_PATTERNS, selection, 0.0)
        assert S not in gjvs.variables
        assert C not in gjvs.variables

    def test_source_mismatch_shortcuts_checks(self, client):
        # address triple exists only at EP1 -> pair with a both-endpoint
        # pattern is global without any check query.
        only_ep1 = TriplePattern(U, UB.address, A)
        both = TriplePattern(P, UB.PhDDegreeFrom, U)
        selection = SourceSelection(
            sources={only_ep1: ("EP1",), both: ("EP1", "EP2")}
        )
        gjvs, __ = detect_gjvs(client, [only_ep1, both], selection, 0.0)
        assert U in gjvs.variables
        assert gjvs.check_queries_run == 0

    def test_variable_predicate_is_conservatively_global(self, client, selection):
        generic = TriplePattern(P, Variable("pred"), Variable("o"))
        patterns = [TP_ADVISOR, generic]
        sel = SourceSelection(
            sources={TP_ADVISOR: ("EP1", "EP2"), generic: ("EP1", "EP2")}
        )
        gjvs, __ = detect_gjvs(client, patterns, sel, 0.0)
        assert P in gjvs.variables

    def test_check_queries_cached(self):
        # LUBM Q1's type-constrained checks are beyond the summaries, so
        # they go to the endpoints — once.
        from repro.datasets import lubm
        from repro.planning.normalize import normalize
        from repro.sparql import parse_query

        federation = lubm.build_federation(2, profile=lubm.TINY_PROFILE, seed=42)
        client = FederationClient(federation, local_cluster_config(), EngineCaches())
        patterns = list(normalize(parse_query(lubm.queries()["Q1"])).branches[0].patterns)
        selection, __ = select_sources(client, patterns, 0.0)
        detect_gjvs(client, patterns, selection, 0.0)
        first = client.metrics.request_count("check")
        detect_gjvs(client, patterns, selection, 0.0)
        assert first == 4
        assert client.metrics.request_count("check") == first  # all cache hits


class TestDecompose:
    def make_gjvs(self) -> GJVResult:
        gjvs = GJVResult()
        gjvs.add(U, frozenset((TP_PHD, TP_ADDRESS)))
        gjvs.add(P, frozenset((TP_ADVISOR, TP_TEACHER)))
        return gjvs

    def make_selection(self) -> SourceSelection:
        both = ("EP1", "EP2")
        return SourceSelection(sources={p: both for p in QA_PATTERNS})

    def test_every_pattern_in_exactly_one_group(self):
        groups = decompose(QA_PATTERNS, self.make_gjvs(), self.make_selection())
        flattened = [p for group in groups for p in group]
        assert sorted(map(repr, flattened)) == sorted(map(repr, QA_PATTERNS))

    def test_conflicting_pairs_separated(self):
        groups = decompose(QA_PATTERNS, self.make_gjvs(), self.make_selection())
        for group in groups:
            assert not (TP_PHD in group and TP_ADDRESS in group)
            assert not (TP_ADVISOR in group and TP_TEACHER in group)

    def test_no_gjvs_single_group(self):
        groups = decompose(QA_PATTERNS, GJVResult(), self.make_selection())
        assert len(groups) == 1 and len(groups[0]) == 5

    def test_different_sources_separate_groups(self):
        selection = SourceSelection(
            sources={
                TP_ADVISOR: ("EP1",),
                TP_TAKES: ("EP1", "EP2"),
            }
        )
        gjvs = GJVResult()
        gjvs.add(S, frozenset((TP_ADVISOR, TP_TAKES)))
        groups = decompose([TP_ADVISOR, TP_TAKES], gjvs, selection)
        assert len(groups) == 2

    def test_same_sources_within_group(self):
        groups = decompose(QA_PATTERNS, self.make_gjvs(), self.make_selection())
        selection = self.make_selection()
        for group in groups:
            source_lists = {selection.relevant(p) for p in group}
            assert len(source_lists) == 1

    def test_shared_concrete_term_does_not_group(self):
        # Two patterns sharing only owl:sameAs must not be grouped.
        from repro.rdf import OWL_SAMEAS

        x, y, w, z = (Variable(n) for n in "xywz")
        p1 = TriplePattern(x, OWL_SAMEAS, y)
        p2 = TriplePattern(w, OWL_SAMEAS, z)
        selection = SourceSelection(sources={p1: ("EP1", "EP2"), p2: ("EP1", "EP2")})
        groups = decompose([p1, p2], GJVResult(), selection)
        # Disconnected patterns must stay in separate subqueries even
        # with no GJVs and identical sources: a per-endpoint cartesian
        # would lose the cross-endpoint pairs.
        assert len(groups) == 2

    def test_empty_input(self):
        assert decompose([], GJVResult(), SourceSelection()) == []

    def test_deterministic_output(self):
        first = decompose(QA_PATTERNS, self.make_gjvs(), self.make_selection())
        second = decompose(QA_PATTERNS, self.make_gjvs(), self.make_selection())
        assert first == second


class TestSubquery:
    def test_projection_intersects_needed(self):
        subquery = Subquery(id=0, patterns=(TP_ADVISOR, TP_TAKES), sources=("EP1",))
        assert subquery.projection({S, U}) == (S,)

    def test_to_select_round_trip(self):
        from repro.sparql import parse_query

        subquery = Subquery(id=0, patterns=(TP_ADVISOR,), sources=("EP1",))
        query = subquery.to_select((S, P))
        text = serialize_query(query)
        assert parse_query(text) == query

    def test_variables(self):
        subquery = Subquery(id=0, patterns=(TP_PHD, TP_TEACHER), sources=("EP1",))
        assert subquery.variables() == {P, U, C}


class TestCheckQueryCacheStability:
    def test_check_queries_are_deterministic_across_calls(self):
        """Regression: generalized constants must use deterministic
        variable names, or the check cache never hits across executions."""
        constant_inner = TriplePattern(U, UB.address, IRI("http://x.org/addr"))
        first = formulate_check(U, TP_PHD, constant_inner, None)
        second = formulate_check(U, TP_PHD, constant_inner, None)
        assert first == second
        assert hash(first) == hash(second)

    def test_warm_engine_reruns_skip_checks_with_constants(self):
        from repro.core.engine import LusailEngine

        federation = build_paper_federation()
        engine = LusailEngine(federation)
        text = (
            "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n"
            "SELECT ?P ?U WHERE { ?S ub:advisor ?P . ?P ub:PhDDegreeFrom ?U . "
            '?U ub:address "XXX" . }'
        )
        engine.execute(text)
        warm = engine.execute(text)
        assert warm.metrics.request_count("check") == 0
