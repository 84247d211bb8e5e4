"""Sorted-run columnar index: three parallel ``array('q')`` id columns.

This is the array-backed substrate behind :class:`~repro.store.TripleStore`.
One :class:`SortedRunIndex` holds one permutation (SPO, POS or OSP) as three
parallel signed-64-bit columns sorted lexicographically by ``(a, b, c)`` —
the RDF-3X layout, minus compression.  The run answers every bound-prefix
probe with binary searches (``bisect`` runs at C speed over ``array``), the
result of any probe comes back *sorted*, and storage is ~24 bytes/triple of
columns.

Mutations do not rewrite the run: inserts land in an unsorted ``tail`` set
and deletes of run-resident rows land in a ``tombstones`` set.  Probes merge
the (sorted) run range with the matching tail rows and filter tombstones, so
results stay sorted and exact.  The first probe after a mutation sorts both
sets once; until the next mutation a prefix's tail rows and tombstones are a
``bisect`` range of those sorted views, and a prefix that has neither is
answered from the run alone, exactly as on a compact index.  When either
side-structure outgrows an amortization bound proportional to the run
length, the whole index is flushed into one fresh run (an O(n) merge paid
once per O(n/8) mutations).
Bulk loads bypass the tail entirely: :meth:`bulk_insert` merges a pre-sorted
row block straight into the run, which is how ``TripleStore.add_all`` builds
each permutation with one sort and no per-row dict churn.
"""

from __future__ import annotations

import heapq
from array import array
from bisect import bisect_left, bisect_right
from itertools import islice
from typing import Iterable, Iterator, Sequence

IdRow = tuple  # (a, b, c) in this index's permutation order

#: Tail/tombstone growth bound: flush once a side structure exceeds
#: ``max(_MIN_TAIL, run_length // _TAIL_FRACTION)``.  The floor keeps tiny
#: stores from flushing constantly; the fraction keeps the amortized cost of
#: incremental mutation at O(_TAIL_FRACTION) array writes per row.
_MIN_TAIL = 1024
_TAIL_FRACTION = 8


class SortedRunIndex:
    """One permutation index: a sorted run plus tail/tombstone deltas."""

    __slots__ = ("_a", "_b", "_c", "tail", "tombstones", "_sorted_deltas")

    def __init__(self) -> None:
        self._a = array("q")
        self._b = array("q")
        self._c = array("q")
        #: Rows inserted since the last flush (disjoint from the run).
        self.tail: set[IdRow] = set()
        #: Run-resident rows deleted since the last flush.
        self.tombstones: set[IdRow] = set()
        #: ``(sorted tail, sorted tombstones)``, built by the first probe
        #: after a mutation and dropped by the next mutation.
        self._sorted_deltas: tuple[list[IdRow], list[IdRow]] | None = None

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return len(self._a) - len(self.tombstones) + len(self.tail)

    @property
    def run_length(self) -> int:
        """Rows physically in the sorted run (tombstoned rows included)."""
        return len(self._a)

    @property
    def is_compact(self) -> bool:
        """True when every row lives in the run (fast paths apply)."""
        return not self.tail and not self.tombstones

    def columns(self) -> tuple[memoryview, memoryview, memoryview]:
        """Read-only memoryviews over the run columns (kernel surface)."""
        return (
            memoryview(self._a).toreadonly(),
            memoryview(self._b).toreadonly(),
            memoryview(self._c).toreadonly(),
        )

    def nbytes(self) -> int:
        """Bytes held by the run columns (the dominant storage term)."""
        return self._a.itemsize * (len(self._a) + len(self._b) + len(self._c))

    # ------------------------------------------------------------- mutation

    def add(self, row: IdRow) -> None:
        """Insert ``row``; the caller guarantees it is not already present."""
        self._sorted_deltas = None
        if row in self.tombstones:
            # Re-adding a previously removed run-resident row: resurrect it.
            self.tombstones.remove(row)
            return
        self.tail.add(row)
        if len(self.tail) > self._delta_limit():
            self.flush()

    def remove(self, row: IdRow) -> None:
        """Delete ``row``; the caller guarantees it is present."""
        self._sorted_deltas = None
        if row in self.tail:
            self.tail.remove(row)
            return
        self.tombstones.add(row)
        if len(self.tombstones) > self._delta_limit():
            self.flush()

    def contains(self, row: IdRow) -> bool:
        if row in self.tail:
            return True
        if row in self.tombstones:
            return False
        lo, hi = self._bounds(row)
        return lo < hi

    def _delta_limit(self) -> int:
        return max(_MIN_TAIL, len(self._a) // _TAIL_FRACTION)

    def flush(self) -> None:
        """Merge tail and tombstones into one fresh sorted run."""
        if self.is_compact:
            return
        self._rebuild(list(self.iter_prefix()))

    def bulk_insert(self, rows: Sequence[IdRow]) -> None:
        """Merge a sorted, deduplicated block of new rows into the run.

        ``rows`` must be sorted in this permutation's order and disjoint
        from the rows already present.  An empty index takes the columns
        straight from the block (the bulk-load fast path: one sort done by
        the caller, three array builds here, zero per-row overhead).
        """
        if not rows:
            self.flush()
            return
        if len(self._a) == 0 and not self.tail:
            self._rebuild(rows)
            return
        self._rebuild(list(heapq.merge(self.iter_prefix(), rows)))

    def _rebuild(self, rows: Sequence[IdRow]) -> None:
        self._a = array("q", [row[0] for row in rows])
        self._b = array("q", [row[1] for row in rows])
        self._c = array("q", [row[2] for row in rows])
        self.tail.clear()
        self.tombstones.clear()
        self._sorted_deltas = None

    def clear(self) -> None:
        self._rebuild(())

    # --------------------------------------------------------------- probes

    def _bounds(self, prefix: Sequence[int]) -> tuple[int, int]:
        """Run row range ``[lo, hi)`` matching a 0-3 id prefix.

        Level-by-level narrowing: within the rows where column ``a`` equals
        the first key, column ``b`` is itself sorted, so each level is one
        ``bisect_left`` + ``bisect_right`` pair over the narrowed range.
        """
        lo, hi = 0, len(self._a)
        for column, key in zip((self._a, self._b, self._c), prefix):
            if lo == hi:
                break
            lo = bisect_left(column, key, lo, hi)
            hi = bisect_right(column, key, lo, hi)
        return lo, hi

    def _delta_rows(self, prefix: Sequence[int]) -> tuple[list[IdRow], list[IdRow]]:
        """The tail rows and the tombstones under ``prefix``, each sorted."""
        deltas = self._sorted_deltas
        if deltas is None:
            deltas = self._sorted_deltas = (sorted(self.tail), sorted(self.tombstones))
        if not prefix:
            return deltas
        # Ids are ints, so the rows under (.., k) end where (.., k + 1) starts.
        start = tuple(prefix)
        stop = start[:-1] + (start[-1] + 1,)
        tail_rows, dead_rows = deltas
        if tail_rows:
            tail_rows = tail_rows[bisect_left(tail_rows, start) : bisect_left(tail_rows, stop)]
        if dead_rows:
            dead_rows = dead_rows[bisect_left(dead_rows, start) : bisect_left(dead_rows, stop)]
        return tail_rows, dead_rows

    def _iter_range(self, lo: int, hi: int, tail_rows, dead_rows) -> Iterator[IdRow]:
        """Run rows ``[lo, hi)`` minus ``dead_rows`` merged with ``tail_rows``."""
        rows = zip(self._a[lo:hi], self._b[lo:hi], self._c[lo:hi])
        if dead_rows:
            tombstones = self.tombstones
            rows = (row for row in rows if row not in tombstones)
        if tail_rows:
            return heapq.merge(rows, tail_rows)
        return rows

    def iter_prefix(self, prefix: Sequence[int] = ()) -> Iterator[IdRow]:
        """Iterate rows matching an id prefix, sorted in permutation order."""
        lo, hi = self._bounds(prefix)
        if self.is_compact:
            return self._iter_range(lo, hi, (), ())
        return self._iter_range(lo, hi, *self._delta_rows(prefix))

    def third_range(self, first: int, second: int) -> tuple[Sequence[int], int, int]:
        """``(values, lo, hi)``: the third-column values under a two-id
        prefix are ``values[lo:hi]``, ascending and exact.

        The probe kernels' primitive: ``values`` is the run column itself
        whenever the prefix has neither tail rows nor tombstones (no copy),
        so a membership test is one ``bisect_left(values, v, lo, hi)`` and
        a walk is one slice; a prefix with deltas gets its merged list.
        """
        lo, hi = self._bounds((first, second))
        if not self.is_compact:
            tail_rows, dead_rows = self._delta_rows((first, second))
            if tail_rows or dead_rows:
                merged = [row[2] for row in self._iter_range(lo, hi, tail_rows, dead_rows)]
                return merged, 0, len(merged)
        return self._c, lo, hi

    def thirds(self, first: int, second: int) -> Sequence[int]:
        """Sorted third-column values for a fully bound two-id prefix."""
        values, lo, hi = self.third_range(first, second)
        return values[lo:hi]

    def count_prefix(self, prefix: Sequence[int] = ()) -> int:
        lo, hi = self._bounds(prefix)
        if self.is_compact:
            return hi - lo
        tail_rows, dead_rows = self._delta_rows(prefix)
        return hi - lo - len(dead_rows) + len(tail_rows)

    def has_prefix(self, prefix: Sequence[int] = ()) -> bool:
        return next(iter(self.iter_prefix(prefix)), None) is not None

    # ----------------------------------------------------- distinct values

    def distinct_firsts(self) -> int:
        """Number of distinct values in the first column."""
        if self.is_compact:
            return _count_distinct(self._a)
        return _count_distinct(row[0] for row in self.iter_prefix(()))

    def iter_distinct_seconds(self, first: int) -> Iterator[int]:
        """Distinct second-column values under ``first``, ascending."""
        lo, hi = self._bounds((first,))
        if self.is_compact:
            return _iter_distinct(islice(self._b, lo, hi))
        return _iter_distinct(row[1] for row in self.iter_prefix((first,)))

    def distinct_seconds(self, first: int) -> int:
        return sum(1 for __ in self.iter_distinct_seconds(first))


def _iter_distinct(values: Iterable[int]) -> Iterator[int]:
    """Distinct values of a sorted iterable (adjacent dedupe)."""
    previous = None
    for value in values:
        if value != previous:
            previous = value
            yield value


def _count_distinct(values: Iterable[int]) -> int:
    return sum(1 for __ in _iter_distinct(values))
