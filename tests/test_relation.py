"""Unit and property tests for the mediator relation algebra."""

from hypothesis import given, strategies as st

from repro.rdf import IRI, Variable, typed_literal
from repro.relational import Relation
from repro.sparql.ast import Comparison, TermExpr, VarExpr

A, B, C, D = Variable("a"), Variable("b"), Variable("c"), Variable("d")


def iri(i):
    return IRI(f"http://ex.org/{i}")


class TestJoin:
    def test_natural_join_on_shared_var(self):
        left = Relation([A, B], [(iri(1), iri(2)), (iri(3), iri(4))])
        right = Relation([B, C], [(iri(2), iri(9)), (iri(4), iri(8)), (iri(5), iri(7))])
        joined = left.join(right)
        assert joined.vars == (A, B, C)
        assert set(joined.rows) == {(iri(1), iri(2), iri(9)), (iri(3), iri(4), iri(8))}

    def test_join_multiplicity(self):
        left = Relation([A], [(iri(1),), (iri(1),)])
        right = Relation([A, B], [(iri(1), iri(2))])
        assert len(left.join(right)) == 2  # bag semantics

    def test_cross_product_when_disjoint(self):
        left = Relation([A], [(iri(1),), (iri(2),)])
        right = Relation([B], [(iri(3),)])
        joined = left.join(right)
        assert len(joined) == 2
        assert joined.vars == (A, B)

    def test_join_with_unbound_is_compatible(self):
        left = Relation([A, B], [(iri(1), None)])
        right = Relation([B, C], [(iri(2), iri(9))])
        joined = left.join(right)
        # Unbound B on the left is compatible with any right B.
        assert joined.rows == [(iri(1), iri(2), iri(9))]

    def test_join_on_two_vars(self):
        left = Relation([A, B], [(iri(1), iri(2)), (iri(1), iri(3))])
        right = Relation([A, B, C], [(iri(1), iri(2), iri(5))])
        assert left.join(right).rows == [(iri(1), iri(2), iri(5))]

    def test_join_empty(self):
        left = Relation([A], [])
        right = Relation([A], [(iri(1),)])
        assert left.join(right).rows == []

    def test_join_commutative_as_sets(self):
        left = Relation([A, B], [(iri(1), iri(2)), (iri(3), iri(4))])
        right = Relation([B, C], [(iri(2), iri(9))])
        lr = {tuple(sorted(zip([v.name for v in left.join(right).vars], map(repr, row)))) for row in left.join(right).rows}
        rl = {tuple(sorted(zip([v.name for v in right.join(left).vars], map(repr, row)))) for row in right.join(left).rows}
        assert lr == rl


class TestLeftJoin:
    def test_keeps_unmatched_left(self):
        left = Relation([A], [(iri(1),), (iri(2),)])
        right = Relation([A, B], [(iri(1), iri(9))])
        joined = left.left_join(right)
        assert set(joined.rows) == {(iri(1), iri(9)), (iri(2), None)}

    def test_no_shared_vars_empty_right_pads(self):
        left = Relation([A], [(iri(1),)])
        right = Relation([B], [])
        joined = left.left_join(right)
        assert joined.rows == [(iri(1), None)]

    def test_no_shared_vars_nonempty_right_products(self):
        left = Relation([A], [(iri(1),)])
        right = Relation([B], [(iri(2),), (iri(3),)])
        assert len(left.left_join(right)) == 2


class TestAlgebra:
    def test_union_aligns_schemas(self):
        left = Relation([A, B], [(iri(1), iri(2))])
        right = Relation([B, C], [(iri(3), iri(4))])
        union = left.union(right)
        assert union.vars == (A, B, C)
        assert (iri(1), iri(2), None) in union.rows
        assert (None, iri(3), iri(4)) in union.rows

    def test_project(self):
        relation = Relation([A, B], [(iri(1), iri(2))])
        projected = relation.project([B, C])
        assert projected.vars == (B, C)
        assert projected.rows == [(iri(2), None)]

    def test_distinct(self):
        relation = Relation([A], [(iri(1),), (iri(1),), (iri(2),)])
        assert len(relation.distinct()) == 2

    def test_filter(self):
        relation = Relation([A], [(typed_literal(1),), (typed_literal(5),)])
        kept = relation.filter(Comparison(">", VarExpr(A), TermExpr(typed_literal(2))))
        assert len(kept) == 1
        assert kept.rows == [(typed_literal(5),)]

    def test_limit_offset(self):
        relation = Relation([A], [(iri(i),) for i in range(5)])
        assert len(relation.limit(2)) == 2
        assert relation.limit(None, offset=3).rows == [(iri(3),), (iri(4),)]

    def test_column_values(self):
        relation = Relation([A, B], [(iri(1), None), (iri(1), iri(2))])
        assert relation.column_values(A) == {iri(1)}
        assert relation.column_values(B) == {iri(2)}

    def test_unit(self):
        unit = Relation.unit()
        other = Relation([A], [(iri(1),)])
        assert unit.join(other).rows == [(iri(1),)]

    def test_from_result_and_back(self):
        from repro.sparql.evaluator import SelectResult

        result = SelectResult([A], [(iri(1),)])
        relation = Relation.from_result(result, partitions=3)
        assert relation.partitions == 3
        assert relation.to_result().rows == result.rows


_values = st.integers(min_value=0, max_value=5).map(iri)
_ab_rows = st.lists(st.tuples(_values, _values), max_size=12)
_bc_rows = st.lists(st.tuples(_values, _values), max_size=12)


@given(_ab_rows, _bc_rows)
def test_property_join_matches_nested_loop(ab, bc):
    left = Relation([A, B], ab)
    right = Relation([B, C], bc)
    joined = sorted(left.join(right).rows, key=repr)
    expected = sorted(
        ((a, b, c) for a, b in ab for b2, c in bc if b == b2),
        key=repr,
    )
    assert joined == expected


@given(_ab_rows, _bc_rows)
def test_property_left_join_supset_of_join(ab, bc):
    left = Relation([A, B], ab)
    right = Relation([B, C], bc)
    inner = set(left.join(right).rows)
    outer = set(left.left_join(right).rows)
    assert inner <= outer
    # Every left row survives in some form.
    left_keys = {row for row in ab}
    surviving = {(row[0], row[1]) for row in outer}
    assert left_keys == surviving


@given(_ab_rows)
def test_property_distinct_idempotent(ab):
    relation = Relation([A, B], ab)
    once = relation.distinct()
    twice = once.distinct()
    assert once.rows == twice.rows
    assert len(set(once.rows)) == len(once.rows)
