"""The range-read EXISTS kernel against the general sub-plan and the oracle.

A top-level ``FILTER [NOT] EXISTS`` over one triple pattern ``(?a q ?x)``
or ``(?x q ?a)`` — bare or in a plain sub-SELECT, ``q`` constant, ``?a``
certainly bound outside, ``?x`` invisible there — compiles to
``exists_range[...]`` / ``not_exists_range[...]``: one index range read
per distinct key.  Every other EXISTS keeps the lazy sub-plan,
``exists[...]`` / ``not_exists[...]``.  On stores that carry tail rows and
tombstones, each generated query must return the same rows in the same
order through the kernel, through the sub-plan (the kernel switched off)
and through the interpretive evaluator, the correctness oracle; a
predicate the data lacks at compile time must match nothing, and match
once a write adds it.
"""

from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql.ast import (
    BGP,
    ExistsExpr,
    Filter,
    GroupPattern,
    OptionalPattern,
    SelectQuery,
    SubSelect,
    ValuesPattern,
)
from repro.sparql.evaluator import evaluate_select
from repro.sparql.plan import _Compiler, compile_query

from tests.test_property_sparql import _IRIS, _PREDICATES, _written_stores

#: A predicate no generated store holds until the test writes it.
_UNKNOWN = IRI("http://p.org/unwritten")
_A, _B, _X = Variable("a"), Variable("b"), Variable("x")


def _outer(shape, p, constant, keys):
    """Elements that bind ``?a`` (certainly) for the EXISTS to test."""
    if shape == "key at object":
        return [BGP([TriplePattern(_B, p, _A)])]
    if shape == "key at subject":
        return [BGP([TriplePattern(_A, p, _B)])]
    if shape == "constant subject":
        return [BGP([TriplePattern(constant, p, _A)])]
    return [ValuesPattern((_A,), tuple((key,) for key in keys))]


def _inner(q, key_at, wrap, projection):
    pattern = TriplePattern(_A, q, _X) if key_at == "subject" else TriplePattern(_X, q, _A)
    group = GroupPattern([BGP([pattern])])
    if not wrap:
        return group
    return GroupPattern([SubSelect(SelectQuery(where=group, select_vars=projection))])


def _query(outer, inner, negated, limit):
    where = GroupPattern([*outer, Filter(ExistsExpr(inner, negated))])
    return SelectQuery(where=where, select_vars=None, limit=limit)


def _run(store, query, kernel: bool):
    if kernel:
        plan = compile_query(store, query)
    else:
        with patch.object(_Compiler, "_exists_range", lambda *args: None):
            plan = compile_query(store, query)
    return plan, plan.execute_select().rows


def _tags(plan) -> list[str]:
    return [label.split("[")[0] for label in plan.explain() if "exists" in label]


def _assert_equivalent(store, query, negated):
    kernel_plan, kernel_rows = _run(store, query, kernel=True)
    general_plan, general_rows = _run(store, query, kernel=False)
    tag = "not_exists" if negated else "exists"
    assert _tags(kernel_plan) == [f"{tag}_range"], kernel_plan.explain()
    assert _tags(general_plan) == [tag], general_plan.explain()
    assert kernel_rows == general_rows
    expected = evaluate_select(store, query).rows
    if query.limit is None:
        assert kernel_rows == expected
    else:
        # LIMIT without ORDER BY may keep any rows of the unlimited answer.
        unlimited = evaluate_select(
            store, SelectQuery(where=query.where, select_vars=None)
        ).rows
        assert len(kernel_rows) == len(expected)
        assert all(row in unlimited for row in kernel_rows)


@given(
    _written_stores(),
    st.sampled_from(["key at object", "key at subject", "constant subject", "values"]),
    st.sampled_from(_PREDICATES),
    st.sampled_from([*_PREDICATES, _UNKNOWN]),
    st.sampled_from(["subject", "object"]),
    st.sampled_from([None, (_A,), (_A, _X)]),
    st.booleans(),
    st.sampled_from(_IRIS),
    st.lists(st.sampled_from(_IRIS), min_size=1, max_size=4),
    st.sampled_from([None, 1, 2]),
)
@settings(max_examples=200, deadline=None)
def test_range_kernel_matches_sub_plan_and_oracle(
    store, shape, p, q, key_at, projection, negated, constant, keys, limit
):
    # projection None: the bare group; otherwise a sub-SELECT projecting it.
    inner = _inner(q, key_at, projection is not None, projection)
    query = _query(_outer(shape, p, constant, keys), inner, negated, limit)
    _assert_equivalent(store, query, negated)
    if q == _UNKNOWN:
        # The predicate matched nothing when compiled; a write adds it
        # for the first key the outer rows bind, and a fresh plan sees it.
        outer_rows = evaluate_select(
            store, SelectQuery(where=GroupPattern(_outer(shape, p, constant, keys)))
        )
        if outer_rows.rows:
            key = dict(zip(outer_rows.vars, outer_rows.rows[0]))[_A]
            other = _IRIS[0]
            store.add(Triple(key, q, other) if key_at == "subject" else Triple(other, q, key))
            _assert_equivalent(store, query, negated)


@given(
    _written_stores(),
    st.sampled_from(
        [
            "repeated variable",
            "variable predicate",
            "OPTIONAL-bound key",
            "sub-SELECT DISTINCT",
            "sub-SELECT LIMIT",
            "sub-SELECT *",
            "two patterns",
            "constant opposite the key",
            "visible opposite variable",
        ]
    ),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_PREDICATES),
    st.booleans(),
)
@settings(max_examples=120, deadline=None)
def test_other_shapes_keep_the_sub_plan(store, shape, p, q, negated):
    outer = [BGP([TriplePattern(_B, p, _A)])]
    pattern = TriplePattern(_A, q, _X)
    inner = GroupPattern([BGP([pattern])])
    if shape == "repeated variable":
        inner = GroupPattern([BGP([TriplePattern(_A, q, _A)])])
    elif shape == "variable predicate":
        inner = GroupPattern([BGP([TriplePattern(_A, Variable("p"), _X)])])
    elif shape == "OPTIONAL-bound key":
        outer = [
            BGP([TriplePattern(_B, p, Variable("c"))]),
            OptionalPattern(GroupPattern([BGP([TriplePattern(_B, q, _A)])])),
        ]
    elif shape.startswith("sub-SELECT"):
        sub = SelectQuery(
            where=inner,
            select_vars=None if shape.endswith("*") else (_A,),
            distinct=shape.endswith("DISTINCT"),
            limit=1 if shape.endswith("LIMIT") else None,
        )
        inner = GroupPattern([SubSelect(sub)])
    elif shape == "two patterns":
        inner = GroupPattern([BGP([pattern, TriplePattern(_X, p, Variable("y"))])])
    elif shape == "constant opposite the key":
        inner = GroupPattern([BGP([TriplePattern(_A, q, _IRIS[0])])])
    else:
        inner = GroupPattern([BGP([TriplePattern(_A, q, _B)])])
    query = _query(outer, inner, negated, None)
    plan = compile_query(store, query)
    assert _tags(plan) == ["not_exists" if negated else "exists"], plan.explain()
    assert plan.execute_select().rows == evaluate_select(store, query).rows
