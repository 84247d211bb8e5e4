"""Merge-join kernel dispatch, correctness and ordering metadata.

The merge kernel only fires when :func:`repro.relational.kernels.
merge_key_order` proves both inputs sorted by the full shared-variable
key; everything else stays on the hash kernels.  These tests pin the
dispatch rules, prove the merge output bag-equal with both the hash
kernel and the row-based :class:`RowRelation` oracle (including the
numpy-free stdlib fallback), and cover the streaming row-budget guard.
"""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import MemoryLimitError
from repro.rdf import IRI, Variable
from repro.relational import Relation, kernel_runtime
from repro.relational import kernels
from repro.relational.kernels import merge_key_order
from tests.reference_relational import RowRelation

X, Y, Z = Variable("x"), Variable("y"), Variable("z")


def iri(i):
    return IRI(f"http://ex.org/{i}")


def rel(vars, rows):
    return Relation(vars, [tuple(iri(v) for v in row) for row in rows])


def bag(relation):
    return Counter(tuple(row) for row in relation.rows)


class TestDispatch:
    def test_sorted_inputs_dispatch_to_merge(self):
        left = rel((X, Y), [(1, 10), (2, 20)]).sorted_by((X,))
        right = rel((X, Z), [(1, 30), (2, 40)]).sorted_by((X,))
        with kernel_runtime() as runtime:
            joined = left.join(right)
        assert runtime.last_join.kind == "merge"
        assert runtime.counters.merge_dispatches == 1
        assert bag(joined) == Counter(
            {(iri(1), iri(10), iri(30)): 1, (iri(2), iri(20), iri(40)): 1}
        )

    def test_unsorted_inputs_stay_on_hash(self):
        left = rel((X, Y), [(2, 20), (1, 10)])
        right = rel((X, Z), [(1, 30), (2, 40)]).sorted_by((X,))
        with kernel_runtime() as runtime:
            left.join(right)
        assert runtime.last_join.kind == "fast"
        assert runtime.counters.merge_dispatches == 0

    def test_merge_output_carries_sort_order(self):
        left = rel((X, Y), [(1, 10), (2, 20)]).sorted_by((X,))
        right = rel((X, Z), [(1, 30), (2, 40)]).sorted_by((X,))
        joined = left.join(right)
        assert joined.sort_order == (X,)
        # ... which seeds the next merge join in the chain.
        third = rel((X,), [(1,), (2,)]).sorted_by((X,))
        with kernel_runtime() as runtime:
            joined.join(third)
        assert runtime.last_join.kind == "merge"

    def test_key_order_rules(self):
        sorted_x = rel((X, Y), [(1, 1)]).sorted_by((X,))
        sorted_y = rel((X, Y), [(1, 1)]).sorted_by((Y,))
        sorted_xy = rel((X, Y), [(1, 1)]).sorted_by((X, Y))
        sorted_yx = rel((X, Y), [(1, 1)]).sorted_by((Y, X))
        unsorted = rel((X, Y), [(1, 1)])
        assert merge_key_order(sorted_x, sorted_x, (X,)) == (X,)
        # No shared variables: nothing to merge on.
        assert merge_key_order(sorted_x, sorted_x, ()) is None
        # One side unsorted.
        assert merge_key_order(sorted_x, unsorted, (X,)) is None
        # Orders disagree on the leading key.
        assert merge_key_order(sorted_x, sorted_y, (X,)) is None
        # Order must cover ALL shared variables...
        assert merge_key_order(sorted_x, sorted_x, (X, Y)) is None
        # ... in the same permutation on both sides.
        assert merge_key_order(sorted_xy, sorted_yx, (X, Y)) is None
        assert merge_key_order(sorted_xy, sorted_xy, (X, Y)) == (X, Y)

    def test_unbound_keys_fall_back_to_general(self):
        left = Relation((X, Y), [(None, iri(1))]).sorted_by((X,))
        right = rel((X, Z), [(1, 2)]).sorted_by((X,))
        with kernel_runtime() as runtime:
            left.join(right)
        assert runtime.last_join.kind == "general"


class TestMergeCorrectness:
    def test_duplicate_keys_cross_within_group(self):
        left = rel((X, Y), [(1, 10), (1, 11), (2, 20)]).sorted_by((X,))
        right = rel((X, Z), [(1, 30), (1, 31)]).sorted_by((X,))
        with kernel_runtime() as runtime:
            joined = left.join(right)
        assert runtime.last_join.kind == "merge"
        assert len(joined) == 4
        expected = rel((X, Y), [(1, 10), (1, 11), (2, 20)]).join(rel((X, Z), [(1, 30), (1, 31)]))
        assert bag(joined) == bag(expected)

    def test_multi_key_merge(self):
        rows_l = [(1, 1, 10), (1, 2, 11), (2, 1, 12)]
        rows_r = [(1, 1, 30), (1, 2, 31), (3, 3, 32)]
        left = rel((X, Y, Z), rows_l).sorted_by((X, Y))
        w = Variable("w")
        right = Relation(
            (X, Y, w), [tuple(iri(v) for v in row) for row in rows_r]
        ).sorted_by((X, Y))
        with kernel_runtime() as runtime:
            joined = left.join(right)
        assert runtime.last_join.kind == "merge"
        oracle = RowRelation.from_relation(left).join(RowRelation.from_relation(right))
        assert bag(joined) == Counter(tuple(row) for row in oracle.rows)

    def test_stdlib_fallback_matches_numpy_path(self, monkeypatch):
        left = rel((X, Y), [(i % 5, i) for i in range(40)]).sorted_by((X,))
        right = rel((X, Z), [(i % 7, 100 + i) for i in range(40)]).sorted_by((X,))
        with kernel_runtime() as runtime:
            vectorized = left.join(right)
            assert runtime.last_join.kind == "merge"
        monkeypatch.setattr(kernels, "_np", None)
        with kernel_runtime() as runtime:
            fallback = left.join(right)
            assert runtime.last_join.kind == "merge"
        assert list(vectorized.rows) == list(fallback.rows)

    def test_row_budget_enforced_before_materialization(self):
        left = rel((X, Y), [(1, i) for i in range(40)]).sorted_by((X,))
        right = rel((X, Z), [(1, 100 + i) for i in range(40)]).sorted_by((X,))
        with kernel_runtime(max_rows=100):
            with pytest.raises(MemoryLimitError):
                left.join(right)


_small = st.integers(min_value=0, max_value=4)


@st.composite
def sorted_pairs(draw):
    rows_l = draw(st.lists(st.tuples(_small, _small), max_size=10))
    rows_r = draw(st.lists(st.tuples(_small, _small), max_size=10))
    left = rel((X, Y), rows_l).sorted_by((X,))
    right = rel((X, Z), rows_r).sorted_by((X,))
    return left, right


@given(sorted_pairs())
@settings(max_examples=100, deadline=None)
def test_property_merge_matches_hash_and_row_oracle(pair):
    left, right = pair
    with kernel_runtime() as runtime:
        merged = left.join(right)
        assert runtime.last_join.kind == "merge"
    # Same physical rows with the ordering metadata stripped: hash path.
    bare_left = Relation(left.vars, list(left.rows))
    bare_right = Relation(right.vars, list(right.rows))
    with kernel_runtime() as runtime:
        hashed = bare_left.join(bare_right)
        assert runtime.last_join.kind in ("fast", "cross")
    assert bag(merged) == bag(hashed)
    oracle = RowRelation.from_relation(left).join(RowRelation.from_relation(right))
    assert bag(merged) == Counter(tuple(row) for row in oracle.rows)
    # Merge output is sorted by the join key.
    key_column = merged.columns[merged.vars.index(X)]
    assert key_column == sorted(key_column)
