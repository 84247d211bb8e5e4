"""Property tests for the SPARQL evaluator against a brute-force oracle.

The oracle evaluates a BGP by enumerating every combination of matching
triples (cartesian product with consistency checks) — hopelessly slow
but obviously correct.  The engine's index-driven evaluation must agree,
including duplicate multiplicities.
"""

from collections import Counter
from itertools import product
from unittest.mock import patch

from hypothesis import given, settings, strategies as st

from repro.rdf import IRI, Triple, TriplePattern, Variable
from repro.sparql.ast import BGP, GroupPattern, SelectQuery
from repro.sparql.evaluator import _Evaluator, evaluate_select
from repro.store import TripleStore

_IRIS = [IRI(f"http://p.org/n{i}") for i in range(6)]
_PREDICATES = [IRI(f"http://p.org/p{i}") for i in range(3)]
_VARIABLES = [Variable(n) for n in ("a", "b", "c")]

_triples = st.builds(
    Triple,
    st.sampled_from(_IRIS),
    st.sampled_from(_PREDICATES),
    st.sampled_from(_IRIS),
)

_positions = st.one_of(st.sampled_from(_IRIS), st.sampled_from(_VARIABLES))
_pred_positions = st.one_of(st.sampled_from(_PREDICATES), st.sampled_from(_VARIABLES))
_patterns = st.builds(TriplePattern, _positions, _pred_positions, _positions)


def _oracle_bgp(store: TripleStore, patterns: list[TriplePattern]):
    """All solutions by brute-force enumeration."""
    triples = list(store)
    solutions = []
    for combo in product(triples, repeat=len(patterns)):
        bindings: dict[Variable, object] = {}
        consistent = True
        for pattern, triple in zip(patterns, combo):
            for position, value in zip(pattern.positions(), triple):
                if isinstance(position, Variable):
                    seen = bindings.get(position)
                    if seen is None:
                        bindings[position] = value
                    elif seen != value:
                        consistent = False
                        break
                elif position != value:
                    consistent = False
                    break
            if not consistent:
                break
        if consistent:
            solutions.append(dict(bindings))
    return solutions


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_bgp_matches_brute_force(triples, patterns):
    store = TripleStore()
    store.add_all(triples)
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    query = SelectQuery(
        where=GroupPattern([BGP(patterns)]), select_vars=tuple(variables) or None
    )
    engine_rows = evaluate_select(store, query).rows
    oracle_rows = [
        tuple(solution.get(v) for v in variables)
        for solution in _oracle_bgp(store, patterns)
    ]
    assert Counter(engine_rows) == Counter(oracle_rows)


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=2),
)
@settings(max_examples=40, deadline=None)
def test_distinct_is_set_of_bag(triples, patterns):
    store = TripleStore()
    store.add_all(triples)
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    plain = SelectQuery(where=GroupPattern([BGP(patterns)]), select_vars=tuple(variables) or None)
    distinct = SelectQuery(
        where=GroupPattern([BGP(patterns)]),
        select_vars=tuple(variables) or None,
        distinct=True,
    )
    plain_rows = evaluate_select(store, plain).rows
    distinct_rows = evaluate_select(store, distinct).rows
    assert set(distinct_rows) == set(plain_rows)
    assert len(distinct_rows) == len(set(plain_rows))


@given(st.lists(_triples, max_size=15), _patterns)
@settings(max_examples=40, deadline=None)
def test_ask_iff_select_nonempty(triples, pattern):
    from repro.sparql.ast import AskQuery
    from repro.sparql.evaluator import evaluate_ask

    store = TripleStore()
    store.add_all(triples)
    select = SelectQuery(where=GroupPattern([BGP([pattern])]), select_vars=None)
    ask = AskQuery(GroupPattern([BGP([pattern])]))
    assert evaluate_ask(store, ask) == bool(evaluate_select(store, select).rows)


@given(st.lists(_triples, max_size=12), st.lists(_patterns, min_size=2, max_size=3))
@settings(max_examples=40, deadline=None)
def test_pattern_order_irrelevant(triples, patterns):
    store = TripleStore()
    store.add_all(triples)
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    forward = SelectQuery(
        where=GroupPattern([BGP(patterns)]), select_vars=tuple(variables) or None
    )
    backward = SelectQuery(
        where=GroupPattern([BGP(list(reversed(patterns)))]),
        select_vars=tuple(variables) or None,
    )
    assert Counter(evaluate_select(store, forward).rows) == Counter(
        evaluate_select(store, backward).rows
    )


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_encoded_matches_reference_path(triples, patterns):
    """The id-space engine agrees with the preserved term-space path.

    ``tests.reference_sparql`` keeps the pre-dictionary-encoding
    implementation (term-keyed indexes, per-match ``Triple`` objects);
    the production evaluator runs on integer ids end to end.  Both must
    produce the same solution multiset on arbitrary data.
    """
    from tests.reference_sparql import ReferenceStore, reference_bgp

    store = TripleStore()
    store.add_all(triples)
    reference = ReferenceStore()
    reference.add_all(triples)
    variables = sorted(
        {v for p in patterns for v in p.variables()}, key=lambda v: v.name
    )
    query = SelectQuery(
        where=GroupPattern([BGP(patterns)]), select_vars=tuple(variables) or None
    )
    engine_rows = evaluate_select(store, query).rows
    reference_rows = [
        tuple(solution.get(v) for v in variables)
        for solution in reference_bgp(reference, patterns)
    ]
    assert Counter(engine_rows) == Counter(reference_rows)


# --------------------------------------------------------------------------
# Compiled plans vs the interpretive evaluator.
#
# ``repro.sparql.plan`` compiles queries into reusable physical plans;
# the interpretive evaluator is kept as the correctness oracle.  Both
# must agree — same solution multiset, same schema — on arbitrary
# nestings of BGP, FILTER (comparison, BOUND, [NOT] EXISTS), OPTIONAL,
# UNION, VALUES with UNDEF and sub-SELECT, under SELECT, LIMIT and ASK;
# and a cached plan re-bound with a fresh VALUES block must be
# bit-identical to compiling the bound query from scratch.

from hypothesis import example

from repro.sparql.ast import (
    AskQuery,
    Comparison,
    ExistsExpr,
    Filter,
    FunctionCall,
    OptionalPattern,
    SubSelect,
    TermExpr,
    UnionPattern,
    ValuesPattern,
    VarExpr,
)
from repro.sparql.evaluator import evaluate_ask
from repro.sparql.plan import compile_query, split_parameters

_comparisons = st.builds(
    lambda op, var, term: Filter(Comparison(op, VarExpr(var), TermExpr(term))),
    st.sampled_from(["=", "!="]),
    st.sampled_from(_VARIABLES),
    st.sampled_from(_IRIS),
)
_maybe_filter = st.one_of(st.none(), _comparisons)
# Single-variable VALUES over ?a; None is SPARQL's UNDEF.
_values_rows = st.lists(
    st.tuples(st.one_of(st.none(), st.sampled_from(_IRIS))),
    min_size=1,
    max_size=3,
)
_values = _values_rows.map(lambda rows: ValuesPattern((_VARIABLES[0],), tuple(rows)))


def _build_query(patterns, values, filter_):
    elements = [values, BGP(patterns)]
    if filter_ is not None:
        elements.append(filter_)
    return SelectQuery(where=GroupPattern(elements), select_vars=None)


_bound_filters = st.sampled_from(_VARIABLES).map(
    lambda var: Filter(FunctionCall("BOUND", (VarExpr(var),)))
)
# A sub-SELECT's projection: * or one or two of the variables.
_projections = st.one_of(
    st.none(),
    st.lists(st.sampled_from(_VARIABLES), min_size=1, max_size=2, unique=True).map(tuple),
)


def _groups(depth: int):
    """Group patterns nesting OPTIONAL, UNION, sub-SELECT and EXISTS
    ``depth`` levels deep."""
    bgps = st.lists(_patterns, min_size=1, max_size=2).map(BGP)
    if depth == 0:
        elements = st.one_of(bgps, _values)
    else:
        inner = _groups(depth - 1)
        elements = st.one_of(
            bgps,
            _values,
            _comparisons,
            _bound_filters,
            st.builds(
                lambda group, negated: Filter(ExistsExpr(group, negated)), inner, st.booleans()
            ),
            inner.map(OptionalPattern),
            st.lists(inner, min_size=2, max_size=2).map(UnionPattern),
            st.builds(
                lambda group, select: SubSelect(SelectQuery(where=group, select_vars=select)),
                inner,
                _projections,
            ),
        )
    return st.lists(elements, min_size=1, max_size=3).map(GroupPattern)


def _query(where, form, limit):
    if form == "ask":
        return AskQuery(where)
    return SelectQuery(where=where, select_vars=None, limit=limit if form == "limit" else None)


_queries = st.builds(
    _query, _groups(2), st.sampled_from(["select", "limit", "ask"]), st.integers(0, 3)
)

# a p b, c q d, e q f, a r e: the sub-SELECT's OPTIONAL leaves ?a unbound
# in one inner row, which still joins every outer row.
_SUBSELECT_STORE = [
    Triple(_IRIS[s], _PREDICATES[p], _IRIS[o])
    for s, p, o in ((0, 0, 1), (2, 1, 3), (4, 1, 5), (0, 2, 4))
]
_A, _B, _C = _VARIABLES


@given(st.lists(_triples, max_size=15), _queries)
@example(
    _SUBSELECT_STORE,
    SelectQuery(
        where=GroupPattern(
            [
                BGP([TriplePattern(_A, _PREDICATES[0], _B)]),
                SubSelect(
                    SelectQuery(
                        where=GroupPattern(
                            [
                                BGP([TriplePattern(_C, _PREDICATES[1], _B)]),
                                OptionalPattern(
                                    GroupPattern([BGP([TriplePattern(_A, _PREDICATES[2], _C)])])
                                ),
                            ]
                        ),
                        select_vars=(_A, _C),
                    )
                ),
            ]
        ),
        select_vars=None,
    ),
)
@example(
    _SUBSELECT_STORE,
    SelectQuery(
        where=GroupPattern(
            [
                BGP([TriplePattern(_A, _PREDICATES[0], _B)]),
                SubSelect(
                    SelectQuery(
                        where=GroupPattern([ValuesPattern((_A,), ((None,),))]), select_vars=(_A,)
                    )
                ),
            ]
        ),
        select_vars=None,
    ),
)
@settings(max_examples=150, deadline=None)
def test_compiled_matches_interpretive(triples, query):
    store = TripleStore()
    store.add_all(triples)
    if isinstance(query, AskQuery):
        assert compile_query(store, query).execute_ask() == evaluate_ask(store, query)
        return
    expected = evaluate_select(store, query)
    full = Counter(evaluate_select(store, SelectQuery(where=query.where, select_vars=None)).rows)
    # Top-level VALUES run once as the compiled-in default block and
    # once as parameters bound into the skeleton's plan.
    skeleton, params = split_parameters(query)
    for got in (
        compile_query(store, query).execute_select(),
        compile_query(store, skeleton).execute_select(params),
    ):
        assert got.vars == expected.vars
        if query.limit is None:
            assert Counter(got.rows) == full
        else:
            # LIMIT without ORDER BY may keep any rows: the lazy plan
            # must return the right number, all of them solutions.
            assert len(got.rows) == len(expected.rows)
            assert not Counter(got.rows) - full


@given(
    st.lists(_triples, max_size=15),
    st.lists(_patterns, min_size=1, max_size=2),
    _values_rows,
    _values_rows,
    _maybe_filter,
)
@settings(max_examples=60, deadline=None)
def test_cached_plan_rebinds_like_fresh_compile(triples, patterns, rows1, rows2, filter_):
    """One compiled plan serves successive bound-join blocks.

    Executing a cached plan with a new VALUES block must be
    bit-identical (schema, rows, and row order) to compiling the bound
    query from scratch, and multiset-equal to the interpretive oracle.
    Blocks with UNDEF rows run compiled too: no plan may reach the
    interpreter's pattern evaluation.
    """
    store = TripleStore()
    store.add_all(triples)
    values_var = (Variable("a"),)
    blocks = [
        (_build_query(patterns, ValuesPattern(values_var, tuple(rows)), filter_), rows)
        for rows in (rows1, rows2)
    ]
    oracle = [Counter(evaluate_select(store, query).rows) for query, _ in blocks]
    compiled_only = patch.object(
        _Evaluator, "eval_group", side_effect=AssertionError("interpreter reached")
    )
    with compiled_only:
        plan = compile_query(store, blocks[0][0])
        for (query, rows), expected in zip(blocks, oracle):
            rebound = plan.execute_select([tuple(rows)])
            fresh = compile_query(store, query).execute_select()
            assert rebound.vars == fresh.vars
            assert rebound.rows == fresh.rows
            assert Counter(rebound.rows) == expected


@given(st.lists(_triples, max_size=15), st.lists(_patterns, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_compiled_ask_matches_interpretive(triples, patterns):
    store = TripleStore()
    store.add_all(triples)
    ask = AskQuery(GroupPattern([BGP(patterns)]))
    assert compile_query(store, ask).execute_ask() == evaluate_ask(store, ask)


# --------------------------------------------------------------------------
# Probe kernels vs the generic probe path.
#
# A fully bound probe compiles to a semi-join, and a probe binding one
# variable plus the semi-joins on it to one intersect step; both read the
# sorted runs directly.  On cyclic and star BGPs, over stores that carry
# tail rows and tombstones, the kernels must return the interpreter
# oracle's multiset and — row for row, in order — what the same probes
# return when each runs alone through the generic ``_ProbeOp`` path.
# Shapes the kernels do not cover must keep compiling to generic probes.

from repro.sparql.plan import _SEED, _drain, _IntersectOp, _ProbeOp, _SemiJoinOp


@st.composite
def _written_stores(draw):
    """A store whose indexes hold a run, tail rows and tombstones."""
    loaded = draw(st.lists(_triples, min_size=1, max_size=20))
    late = draw(st.lists(_triples, max_size=8))
    removed = draw(st.lists(st.sampled_from(loaded + late), max_size=6))
    back = draw(st.lists(st.sampled_from(removed), max_size=3)) if removed else []
    store = TripleStore()
    store.add_all(loaded)
    for triple in late:
        store.add(triple)
    for triple in removed:
        store.remove(triple)
    for triple in back:
        store.add(triple)
    return store


def _kernel_shape(name, p, q, r, n, m):
    return {
        "triangle": [
            TriplePattern(_A, p, _B),
            TriplePattern(_B, q, _C),
            TriplePattern(_A, r, _C),
        ],
        "type + bound object": [
            TriplePattern(_A, p, n),
            TriplePattern(_A, q, _B),
            TriplePattern(_B, r, m),
        ],
        "two checks on one variable": [
            TriplePattern(_A, p, _B),
            TriplePattern(_B, q, n),
            TriplePattern(m, r, _B),
        ],
        # Behind a VALUES block over ?a these are two lone semi-joins.
        "checks only": [TriplePattern(_A, p, n), TriplePattern(m, q, _A)],
    }[name]


_KERNEL_SHAPES = ["triangle", "type + bound object", "two checks on one variable", "checks only"]


def _run_generic(plan):
    """The WHERE pipeline with every probe — the members of each
    intersect step one by one — run through the generic
    ``_ProbeOp.run_batches``; also how many kernel steps the compiled
    plan holds."""
    core, ctx = plan._bind(None)
    rows = list(_SEED)
    kernels = 0
    for op in core.plan.ops:
        kernels += isinstance(op, (_IntersectOp, _SemiJoinOp))
        for step in op.members if isinstance(op, _IntersectOp) else (op,):
            if isinstance(step, _ProbeOp):
                rows = _drain(_ProbeOp.run_batches(step, ctx, [rows]))
            else:
                rows = _drain(step.run_batches(ctx, [rows]))
    return rows, kernels


def _run_compiled(plan):
    core, ctx = plan._bind(None)
    return _drain(core.plan.run_batches(ctx, [_SEED]))


@given(
    _written_stores(),
    st.sampled_from(_KERNEL_SHAPES),
    st.tuples(*[st.sampled_from(_PREDICATES)] * 3),
    st.tuples(*[st.sampled_from(_IRIS)] * 2),
    st.one_of(st.none(), st.lists(st.sampled_from(_IRIS), min_size=1, max_size=3)),
)
@settings(max_examples=120, deadline=None)
def test_kernels_match_generic_probes_row_for_row(store, shape, predicates, constants, block):
    elements = [BGP(_kernel_shape(shape, *predicates, *constants))]
    if block is not None:
        # A bound-join block: VALUES leads, so ?a arrives bound.
        elements.insert(0, ValuesPattern((_A,), tuple((term,) for term in block)))
    query = SelectQuery(where=GroupPattern(elements), select_vars=None)
    plan = compile_query(store, query)
    generic_rows, kernels = _run_generic(plan)
    assert kernels >= 1
    assert _run_compiled(plan) == generic_rows
    assert Counter(plan.execute_select().rows) == Counter(evaluate_select(store, query).rows)


def _no_kernels(plan) -> bool:
    return not any("semijoin" in op or "intersect" in op for op in plan.explain())


@given(_written_stores(), st.tuples(*[st.sampled_from(_PREDICATES)] * 3), st.sampled_from(_IRIS))
@settings(max_examples=60, deadline=None)
def test_uncovered_shapes_stay_generic(store, predicates, constant):
    p, q, r = predicates
    predicate = Variable("p")
    wheres = {
        # A bound predicate *variable* still probes generically.
        "variable predicate": [
            BGP([TriplePattern(_A, predicate, _B), TriplePattern(_B, predicate, constant)])
        ],
        "repeated variable": [BGP([TriplePattern(_A, p, _B), TriplePattern(_A, q, _A)])],
        "check on an OPTIONAL-bound slot": [
            BGP([TriplePattern(_A, p, _B)]),
            OptionalPattern(GroupPattern([BGP([TriplePattern(_B, q, _C)])])),
            BGP([TriplePattern(_C, r, constant)]),
        ],
        # An OPTIONAL sub-plan runs one row per call, a lazy plan small chunks.
        "inside an OPTIONAL": [
            BGP([TriplePattern(_A, p, _B)]),
            OptionalPattern(
                GroupPattern([BGP([TriplePattern(_B, q, _C), TriplePattern(_C, r, constant)])])
            ),
        ],
    }
    for label, elements in wheres.items():
        query = SelectQuery(where=GroupPattern(elements), select_vars=None)
        plan = compile_query(store, query)
        assert _no_kernels(plan), label
        assert Counter(plan.execute_select().rows) == Counter(
            evaluate_select(store, query).rows
        ), label
    # The kernel shapes themselves, once the plan is lazy.
    triangle = GroupPattern([BGP(_kernel_shape("triangle", p, q, r, constant, constant))])
    limited = SelectQuery(where=triangle, select_vars=None, limit=2)
    plan = compile_query(store, limited)
    assert _no_kernels(plan)
    assert set(plan.explain()) == {"probe(lazy)"}
    rows = plan.execute_select().rows
    unlimited = Counter(evaluate_select(store, SelectQuery(where=triangle, select_vars=None)).rows)
    assert len(rows) == min(2, sum(unlimited.values())) and not Counter(rows) - unlimited
    ask = compile_query(store, AskQuery(triangle))
    assert _no_kernels(ask)
    assert ask.execute_ask() == evaluate_ask(store, AskQuery(triangle)) == bool(unlimited)
