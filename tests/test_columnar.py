"""Columnar kernels vs the row-based reference implementation.

The columnar runtime (:mod:`repro.relational.kernels`, dispatched to by
:class:`~repro.relational.relation.Relation`) must be bag-equal with the
preserved row-at-a-time runtime
(:class:`~tests.reference_relational.RowRelation`) on randomized inputs:
unbound join keys, cross products, OPTIONAL left joins and duplicate
rows.  An inner join on fully bound keys leaves its output as *runs*
(:class:`~repro.relational.kernels.JoinRuns`): every order in which the
runs' two readers — rows out, flatten to columns — can be reached is
checked against the same oracle.  Plus unit tests for the streaming
memory guard (joins abort mid-kernel) and the kernel counters.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import MemoryLimitError
from repro.net.metrics import QueryMetrics
from repro.rdf import IRI, Variable
from repro.relational import KernelCounters, Relation, kernel_runtime, kernels
from repro.sparql.ast import Comparison, VarExpr
from tests.reference_relational import RowRelation

A, B, C, D = Variable("a"), Variable("b"), Variable("c"), Variable("d")
VAR_POOL = (A, B, C, D)


def iri(i):
    return IRI(f"http://ex.org/{i}")


#: Small value pool so random relations actually collide on join keys.
values = st.one_of(st.none(), st.integers(min_value=0, max_value=4).map(iri))


@st.composite
def relations(draw, vars=None):
    if vars is None:
        width = draw(st.integers(min_value=1, max_value=3))
        start = draw(st.integers(min_value=0, max_value=len(VAR_POOL) - width))
        vars = VAR_POOL[start:start + width]
    rows = draw(
        st.lists(
            st.tuples(*[values for __ in vars]), min_size=0, max_size=8
        )
    )
    return Relation(vars, rows)


@st.composite
def relation_pairs(draw):
    """Two relations with anything from zero to full schema overlap."""
    left = draw(relations())
    right = draw(relations())
    return left, right


def bag(relation):
    return Counter(tuple(row) for row in relation.rows)


_SETTINGS = settings(max_examples=120, deadline=None)


@given(relation_pairs())
@_SETTINGS
def test_join_matches_row_oracle(pair):
    left, right = pair
    got = left.join(right)
    expected = RowRelation.from_relation(left).join(RowRelation.from_relation(right))
    assert got.vars == expected.vars
    assert bag(got) == bag(expected)


@given(relation_pairs())
@_SETTINGS
def test_left_join_matches_row_oracle(pair):
    left, right = pair
    got = left.left_join(right)
    expected = RowRelation.from_relation(left).left_join(
        RowRelation.from_relation(right)
    )
    assert got.vars == expected.vars
    assert bag(got) == bag(expected)


@given(relation_pairs(), st.sampled_from(VAR_POOL), st.sampled_from(VAR_POOL))
@_SETTINGS
def test_conditional_left_join_decides_each_pair_on_the_joined_row(pair, x, y):
    """A left join under a condition, against its definition spelled with
    the other operators: per left row, the inner join with the right side
    filtered by the condition — and the row itself, padded once, when
    nothing survives (no partner, all partners rejected, or the condition
    an error because a variable is unbound or absent)."""
    left, right = pair
    condition = Comparison("!=", VarExpr(x), VarExpr(y))
    got = left.left_join(right, condition)
    out_vars = left.left_join(right).vars
    assert got.vars == out_vars
    expected = Counter()
    pad = (None,) * (len(out_vars) - len(left.vars))
    for row in left.rows:
        partners = Relation(left.vars, [row]).join(right).filter(condition)
        expected.update(bag(partners.project(out_vars)) or [tuple(row) + pad])
    assert bag(got) == expected


@given(relation_pairs())
@_SETTINGS
def test_union_matches_row_oracle(pair):
    left, right = pair
    got = left.union(right)
    expected = RowRelation.from_relation(left).union(RowRelation.from_relation(right))
    assert got.vars == expected.vars
    assert bag(got) == bag(expected)


@given(relations(), st.integers(min_value=0, max_value=3))
@_SETTINGS
def test_project_matches_row_oracle(relation, seed):
    projection = tuple(VAR_POOL[: 1 + seed % len(VAR_POOL)])
    got = relation.project(projection)
    expected = RowRelation.from_relation(relation).project(projection)
    assert got.vars == expected.vars
    assert bag(got) == bag(expected)


@given(relations())
@_SETTINGS
def test_distinct_matches_row_oracle(relation):
    got = relation.distinct()
    expected = RowRelation.from_relation(relation).distinct()
    assert got.vars == expected.vars
    assert bag(got) == bag(expected)
    # distinct also preserves first-occurrence order.
    assert list(got.rows) == list(expected.rows)


# --------------------------------------------------------------------------
# Runs: the fast join's unflattened output and its two readers

#: Bound key values from a pool small enough to collide (duplicates on
#: both sides) and wide enough to miss.
keys = st.integers(min_value=0, max_value=3).map(iri)


@st.composite
def runs_pairs(draw):
    """Two relations sharing one or two fully bound key columns, each
    with zero or one payload column that may hold ``None``."""
    shared = draw(st.sampled_from([(A,), (A, B)]))

    def side(payload):
        vars = shared + payload
        cells = [keys] * len(shared) + [values] * len(payload)
        rows = draw(st.lists(st.tuples(*cells), min_size=0, max_size=8))
        return Relation(vars, rows)

    left = side(draw(st.sampled_from([(), (C,)])))
    right = side(draw(st.sampled_from([(), (D,)])))
    return left, right


def joined_runs(left, right):
    joined = left.join(right)
    assert isinstance(joined.rows.runs, kernels.JoinRuns)
    return joined


def oracle_join(left, right):
    return RowRelation.from_relation(left).join(RowRelation.from_relation(right))


def subsets(vars):
    """Projections of ``vars``: reordered, narrowed, down to zero width."""
    return st.lists(st.sampled_from(vars), unique=True, max_size=len(vars)).map(tuple)


@given(runs_pairs())
@_SETTINGS
def test_runs_rows_are_the_flattened_rows_in_order(pair):
    left, right = pair
    from_runs = joined_runs(left, right)
    flattened = joined_runs(left, right)
    flattened.columns  # first touch builds the columns and drops the runs
    assert flattened.rows.runs is None
    rows = list(from_runs.rows)
    assert repr(from_runs.rows) == repr(flattened.rows)
    assert from_runs.rows.runs is not None  # neither rows nor repr flatten
    assert rows == list(flattened.rows)
    assert Counter(rows) == bag(oracle_join(left, right))
    assert len(from_runs) == len(flattened) == len(rows)
    # Rows twice: equal lists, not one shared list; then columns.
    again = list(from_runs.rows)
    assert again == rows
    assert from_runs.columns == flattened.columns
    assert from_runs.rows.runs is None and list(from_runs.rows) == rows


@given(runs_pairs(), st.data())
@_SETTINGS
def test_projected_runs_match_row_oracle_by_both_readers(pair, data):
    left, right = pair
    out_vars = joined_runs(left, right).vars
    projection = data.draw(subsets(out_vars))
    expected = oracle_join(left, right).project(projection)

    by_rows = joined_runs(left, right).project(projection)
    assert by_rows.rows.runs is not None  # project stays lazy
    assert by_rows.vars == expected.vars == projection
    assert bag(by_rows) == bag(expected)
    assert len(by_rows) == len(expected)

    by_columns = joined_runs(left, right).project(projection)
    columns = by_columns.columns
    assert len(columns) == len(projection)
    assert all(len(column) == len(expected) for column in columns)
    assert list(by_columns.rows) == list(by_rows.rows)
    if not projection:
        assert list(by_rows.rows) == [()] * len(expected)


@given(runs_pairs(), relations())
@_SETTINGS
def test_join_of_a_runs_state_relation_matches_row_oracle(pair, third):
    left, right = pair
    got = joined_runs(left, right).join(third)
    expected = oracle_join(left, right).join(RowRelation.from_relation(third))
    assert got.vars == expected.vars
    assert bag(got) == bag(expected)


@given(runs_pairs(), st.sampled_from(["append", "extend"]))
@_SETTINGS
def test_a_mutator_flattens_a_runs_state_store_first(pair, mutator):
    left, right = pair
    joined = joined_runs(left, right)
    before = list(joined_runs(left, right).rows)
    extra = tuple(iri(9) for __ in joined.vars)
    if mutator == "append":
        joined.rows.append(extra)
    else:
        joined.rows.extend([extra])
    assert joined.rows.runs is None
    assert len(joined) == len(before) + 1
    assert list(joined.rows) == before + [extra]


@given(runs_pairs(), st.sampled_from(["rows", "columns"]), st.data())
@_SETTINGS
def test_extending_an_input_after_the_join_leaves_the_output_alone(pair, reader, data):
    left, right = pair
    expected = list(joined_runs(left, right).rows)
    joined = joined_runs(left, right)
    projection = data.draw(subsets(joined.vars))
    narrowed = joined.project(projection)
    for relation in (left, right):
        # A row that would match: key 0 is in the pool on both sides.
        relation.rows.append(tuple(iri(0) for __ in relation.vars))
    if reader == "columns":
        joined.columns
        narrowed.columns
    assert list(joined.rows) == expected
    picked = [joined.vars.index(var) for var in projection]
    assert list(narrowed.rows) == [tuple(row[i] for i in picked) for row in expected]
    assert len(joined) == len(expected)


def test_build_only_projection_ignores_probe_rows_added_later():
    """The one reader bounded by nothing but the probe's key column:
    wide runs, no probe miss, every remaining source on the build side."""
    left = Relation([A, C], [(iri(0), iri(1)), (iri(0), iri(2))])
    right = Relation([A], [(iri(0),)] * 3)
    narrowed = joined_runs(left, right).project((C,))
    right.rows.append((iri(0),))
    assert list(narrowed.rows) == [(iri(1),), (iri(2),)] * 3
    encode = narrowed.rows.codec.encode
    assert narrowed.columns == [[encode(iri(1)), encode(iri(2))] * 3]


class TestStreamingGuard:
    """max_mediator_rows is enforced inside the kernels, mid-join."""

    def _fanout_pair(self):
        # 30 x 30 matches on a single key value: 900 output rows.
        left = Relation([A, B], [(iri(0), iri(i % 5)) for i in range(30)])
        right = Relation([A, C], [(iri(0), iri(i % 7)) for i in range(30)])
        return left, right

    def test_fast_join_aborts_mid_probe(self):
        left, right = self._fanout_pair()
        with kernel_runtime(max_rows=100):
            with pytest.raises(MemoryLimitError) as excinfo:
                left.join(right)
        assert "mid-join" in str(excinfo.value)

    def test_general_join_aborts_mid_probe(self):
        left, right = self._fanout_pair()
        left.rows.append((None, iri(1)))  # force the general path
        with kernel_runtime(max_rows=100):
            with pytest.raises(MemoryLimitError):
                left.join(right)

    def test_cross_join_aborts(self):
        left = Relation([A], [(iri(i % 3),) for i in range(40)])
        right = Relation([B], [(iri(i % 3),) for i in range(40)])
        with kernel_runtime(max_rows=100):
            with pytest.raises(MemoryLimitError):
                left.join(right)

    def test_left_join_aborts(self):
        left, right = self._fanout_pair()
        with kernel_runtime(max_rows=100):
            with pytest.raises(MemoryLimitError):
                left.left_join(right)

    def test_overflow_marks_metrics_oom(self):
        left, right = self._fanout_pair()
        metrics = QueryMetrics()
        with kernel_runtime(max_rows=100, metrics=metrics):
            with pytest.raises(MemoryLimitError):
                left.join(right)
        assert metrics.status == "oom"

    def test_under_limit_join_succeeds(self):
        left, right = self._fanout_pair()
        with kernel_runtime(max_rows=1000):
            assert len(left.join(right)) == 900

    def _uneven_pair(self):
        # Probe runs of 2, 3, 3, 1, 2, 3 rows (two probe rows miss): the
        # running total passes 2, 5, 8, 9, 11, 14.
        left = Relation(
            [A, B], [(iri(k), iri(10 + i)) for i, k in enumerate((0, 0, 1, 2, 2, 2))], 2
        )
        right = Relation(
            [A, C], [(iri(k), iri(20 + i)) for i, k in enumerate((0, 3, 2, 2, 1, 0, 4, 2))], 4
        )
        return left, right

    @pytest.mark.parametrize("limit, rows", [(1, 2), (6, 8), (8, 9), (13, 14)])
    def test_fast_join_reports_the_running_total_that_crossed_the_limit(
        self, limit, rows, monkeypatch
    ):
        """The guard reads the runs' total before anything per output row
        exists, and still reports the row count at which a row-at-a-time
        probe would have stopped (``rows`` as measured at the parent)."""
        allocated = []
        monkeypatch.setattr(
            kernels, "JoinRuns", lambda *args: allocated.append("runs")
        )
        monkeypatch.setattr(
            kernels, "_gather", lambda *args: allocated.append("gather")
        )
        left, right = self._uneven_pair()
        metrics = QueryMetrics()
        with kernel_runtime(max_rows=limit, metrics=metrics):
            with pytest.raises(MemoryLimitError) as excinfo:
                left.join(right)
        assert excinfo.value.rows == rows
        assert str(excinfo.value) == (
            f"mediator intermediate results exceeded {limit} rows (aborted mid-join)"
        )
        assert metrics.status == "oom"
        assert allocated == []

    @pytest.mark.parametrize("limit", [14, 15, None])
    def test_fast_join_at_or_under_the_limit_is_untouched(self, limit):
        left, right = self._uneven_pair()
        metrics = QueryMetrics()
        with kernel_runtime(max_rows=limit, metrics=metrics):
            joined = left.join(right)
        assert len(joined) == len(list(joined.rows)) == 14
        assert metrics.status == "ok"


class TestKernelCounters:
    def test_fast_dispatch_counted(self):
        counters = KernelCounters()
        left = Relation([A, B], [(iri(1), iri(2))])
        right = Relation([A, C], [(iri(1), iri(3)), (iri(2), iri(4))])
        with kernel_runtime(counters=counters):
            joined = left.join(right)
        assert counters.fast_dispatches == 1
        assert counters.general_dispatches == 0
        assert counters.build_rows == 1  # smaller side builds
        assert counters.probe_rows == 2
        assert counters.rows_emitted == len(joined) == 1

    def test_general_dispatch_counted_when_key_unbound(self):
        counters = KernelCounters()
        left = Relation([A, B], [(None, iri(2))])
        right = Relation([A, C], [(iri(1), iri(3))])
        with kernel_runtime(counters=counters):
            left.join(right)
        assert counters.fast_dispatches == 0
        assert counters.general_dispatches == 1

    def test_unbound_nonkey_column_stays_on_fast_path(self):
        counters = KernelCounters()
        left = Relation([A, B], [(iri(1), None)])
        right = Relation([A, C], [(iri(1), None)])
        with kernel_runtime(counters=counters):
            left.join(right)
        assert counters.fast_dispatches == 1
        assert counters.general_dispatches == 0

    def test_runs_count_and_cost_what_the_gathering_join_did(self):
        """Counters and JoinCost as measured at the parent commit on the
        same inputs: staying in runs moves no kernel number."""
        left = Relation(
            [A, B], [(iri(k), iri(10 + i)) for i, k in enumerate((0, 0, 1, 2, 2, 2))], 2
        )
        right = Relation(
            [A, C], [(iri(k), iri(20 + i)) for i, k in enumerate((0, 3, 2, 2, 1, 0, 4, 2))], 4
        )
        counters = KernelCounters()
        with kernel_runtime(counters=counters):
            assert left.join(right).rows.runs is not None
            assert kernels.last_join_cost() == 5.0  # 6 / 2 + 8 / 4
            right.join(left).project((C,)).columns
            assert kernels.last_join_cost() == 5.0
        assert counters == KernelCounters(
            build_rows=12, probe_rows=16, rows_emitted=28, fast_dispatches=2
        )

    def test_items_names(self):
        names = {name for name, __ in KernelCounters().items()}
        assert names == {
            "mediator_kernel_build_rows_total",
            "mediator_kernel_probe_rows_total",
            "mediator_kernel_rows_emitted_total",
            "mediator_kernel_fast_dispatches_total",
            "mediator_kernel_general_dispatches_total",
        }
