"""Columnar kernels vs the row-based reference implementation.

The columnar runtime (:mod:`repro.relational.kernels`, dispatched to by
:class:`~repro.relational.relation.Relation`) must be bag-equal with the
preserved row-at-a-time runtime
(:class:`~tests.reference_relational.RowRelation`) on randomized inputs:
unbound join keys, cross products, OPTIONAL left joins and duplicate
rows.  Plus unit tests for the streaming memory guard (joins abort
mid-kernel), the kernel counters, and the adaptive bound-join block
size.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.execution.scheduler import adaptive_block_size
from repro.exceptions import MemoryLimitError
from repro.net.metrics import QueryMetrics
from repro.rdf import IRI, Variable
from repro.relational import KernelCounters, Relation, kernel_runtime
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

    def test_items_names(self):
        names = {name for name, __ in KernelCounters().items()}
        assert names == {
            "mediator_kernel_build_rows_total",
            "mediator_kernel_probe_rows_total",
            "mediator_kernel_rows_emitted_total",
            "mediator_kernel_fast_dispatches_total",
            "mediator_kernel_general_dispatches_total",
        }


class TestAdaptiveBlockSize:
    def test_selective_subquery_keeps_full_block(self):
        # <= 1 row per binding: nothing to gain from smaller blocks.
        assert adaptive_block_size(500, 50, 100.0, 200) == 500

    def test_unselective_subquery_shrinks_block(self):
        # 10 rows per binding: 500 / 10 = 50.
        assert adaptive_block_size(500, 50, 1000.0, 100) == 50

    def test_clamped_to_min_block(self):
        assert adaptive_block_size(500, 50, 100_000.0, 10) == 50

    def test_clamped_to_block_size(self):
        assert adaptive_block_size(500, 50, 0.0, 100) == 500

    def test_no_bindings_keeps_full_block(self):
        assert adaptive_block_size(500, 50, 1000.0, 0) == 500

    def test_min_block_never_above_block_size(self):
        assert adaptive_block_size(10, 50, 1000.0, 10) == 10
