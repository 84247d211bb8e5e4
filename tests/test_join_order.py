"""Unit tests for the DP join-order optimizer and its greedy fallback."""

import pytest
from hypothesis import given, strategies as st

from repro.core.execution.join_order import (
    JoinPlanNode,
    _greedy_plan,
    execute_plan,
    plan_joins,
)
from repro.rdf import IRI, Variable
from repro.relational import Relation

A, B, C, D = (Variable(n) for n in "abcd")


def iri(i):
    return IRI(f"http://ex.org/{i}")


def chain_relations(sizes):
    """R0(a,b), R1(b,c), R2(c,d), ... with given row counts."""
    variables = [Variable(f"v{i}") for i in range(len(sizes) + 1)]
    relations = []
    for index, size in enumerate(sizes):
        rows = [(iri(k), iri(k)) for k in range(size)]
        relations.append(Relation([variables[index], variables[index + 1]], rows))
    return relations


def greedy_plan(relations):
    """The greedy fallback alone, over the leaves ``plan_joins`` builds."""
    leaves = [
        JoinPlanNode(
            relations=frozenset((index,)),
            rows=float(len(relation)),
            threads=relation.partitions,
            cost=0.0,
            base_index=index,
        )
        for index, relation in enumerate(relations)
    ]
    return _greedy_plan(leaves, [set(relation.vars) for relation in relations])


class TestPlanJoins:
    def test_single_relation_is_leaf(self):
        relation = Relation([A], [(iri(1),)])
        plan = plan_joins([relation])
        assert plan.is_leaf() and plan.order() == [0]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            plan_joins([])

    def test_covers_all_relations(self):
        relations = chain_relations([5, 50, 3])
        plan = plan_joins(relations)
        assert sorted(plan.order()) == [0, 1, 2]

    def test_dp_cost_never_worse_than_greedy(self):
        for sizes in ([1000, 2, 3], [7, 900, 2, 40], [5, 5, 5]):
            relations = chain_relations(sizes)
            dp = plan_joins(relations)
            greedy = greedy_plan(relations)
            assert dp.cost <= greedy.cost + 1e-9

    def test_avoids_cross_products_when_connected(self):
        relations = chain_relations([4, 4, 4])

        def check(node):
            if node.is_leaf():
                return
            left_vars = set()
            for index in node.left.relations:
                left_vars |= set(relations[index].vars)
            right_vars = set()
            for index in node.right.relations:
                right_vars |= set(relations[index].vars)
            assert left_vars & right_vars, "cross product in connected graph"
            check(node.left)
            check(node.right)

        check(plan_joins(relations))

    def test_disconnected_graph_still_plans(self):
        left = Relation([A, B], [(iri(1), iri(2))])
        right = Relation([C, D], [(iri(3), iri(4))])
        plan = plan_joins([left, right])
        assert sorted(plan.order()) == [0, 1]

    def test_greedy_mode(self):
        relations = chain_relations([10, 2, 30])
        plan = greedy_plan(relations)
        assert sorted(plan.order()) == [0, 1, 2]

    @pytest.mark.parametrize("count", [2, 3, 4, 5])
    def test_relations_sharing_no_variable_plan_as_greedy(self, count):
        # The scheduler combines connected components, which share no
        # variable, with plan_joins: on such input the DP must give the
        # greedy plan (n = 2: the same single join; n >= 3: no full
        # plan without a cross product below the top, so the fallback).
        relations = [
            Relation(
                [Variable(f"c{index}")],
                [(iri(k),) for k in range(size)],
                partitions=1 + index % 2,
            )
            for index, size in enumerate([7, 3, 12, 1, 5][:count])
        ]
        dp, greedy = plan_joins(relations), greedy_plan(relations)
        assert dp.order() == greedy.order()
        assert (dp.rows, dp.cost) == (greedy.rows, greedy.cost)


class TestExecutePlan:
    def test_result_matches_pairwise_join(self):
        relations = chain_relations([4, 6, 3])
        plan = plan_joins(relations)
        joined, cost = execute_plan(plan, relations)
        expected = relations[0].join(relations[1]).join(relations[2])
        assert set(joined.rows) == set(expected.rows)
        assert cost > 0

    def test_cost_uses_partitions(self):
        many = Relation([A, B], [(iri(k), iri(k)) for k in range(100)], partitions=10)
        one = Relation([B, C], [(iri(k), iri(k)) for k in range(100)], partitions=1)
        plan = plan_joins([many, one])
        __, cost = execute_plan(plan, [many, one])
        plan2 = plan_joins([Relation([A, B], many.rows, 1), one])
        __, cost2 = execute_plan(plan2, [Relation([A, B], many.rows, 1), one])
        assert cost < cost2

    @given(st.lists(st.integers(min_value=0, max_value=12), min_size=2, max_size=5))
    def test_property_plan_result_independent_of_order(self, sizes):
        relations = chain_relations(sizes)
        dp_joined, __ = execute_plan(plan_joins(relations), relations)
        greedy_joined, __ = execute_plan(greedy_plan(relations), relations)
        left_deep = relations[0]
        for relation in relations[1:]:
            left_deep = left_deep.join(relation)
        key = lambda rel: sorted(
            tuple(sorted(zip((v.name for v in rel.vars), map(repr, row)))) for row in rel.rows
        )
        assert key(dp_joined) == key(greedy_joined) == key(left_deep)
