"""Mediator-side relations over SPARQL solution sets, columnar and
dictionary-encoded.

Each subquery result the mediator receives becomes a :class:`Relation`:
a variable schema plus solution rows, annotated with how many worker
threads (partitions) hold it — the quantity the paper's join cost model
divides by.  Joins use in-memory hash joins on the shared variables,
with SPARQL compatibility semantics (an unbound variable is compatible
with anything), exactly what the paper's join evaluation stage does.

Storage is **column-major and id-backed**: a relation holds one list of
dense ints per variable (``None`` marking unbound positions), encoded
through one process-wide :class:`~repro.store.dictionary.TermDictionary`
(the *mediator codec*, shared across all relations so results from
different endpoints stay comparable).  The relational operators dispatch
to the columnar kernels in :mod:`repro.relational.kernels`: a fast path
when every join-key column is fully bound, a general compatibility-merge
path only when a key column actually contains ``None``, and a streaming
``max_mediator_rows`` guard enforced *inside* the kernels.  An inner
join on the fast path leaves its output as *runs*
(:class:`~repro.relational.kernels.JoinRuns`): the row count is known,
the columns are built when a kernel first reads them, and a final answer
is written from the runs without them.

Expressions run here too — the paper applies the filters no subquery
covers "during the join evaluation phase" (Sec IV-C) — and in id space
like everything else: :meth:`Relation.filter` and
:meth:`Relation.order_by` compile a FILTER expression / an ORDER BY
clause once (:mod:`repro.sparql.expressions`) against the codec and map
the closure down the id rows; only the cells an operator inspects are
decoded, and no solution mapping is built per row.

The :class:`RowStore` wrapper keeps the external contract unchanged:
iterating, indexing or comparing ``relation.rows`` yields plain term
tuples, and ``extend``/``append`` accept them — encode on the way in,
decode on the way out.  An endpoint response is not such a term
producer: ``extend`` takes the :class:`SelectResult` itself and keeps
it as a *segment* in the endpoint's id space.  Ids enter the codec only
where an operator compares them: the first read of ``columns``
translates the segments through the codec's per-endpoint table
(:meth:`~repro.store.dictionary.TermDictionary.translate_columns`),
while projection and the union of two such relations keep them as
they are, and an answer nothing else read is decoded by each
endpoint's own dictionary.  So no term is touched between the
endpoint's store and the final answer's decode, except where an
expression operator reads a value.  The pre-columnar row runtime
survives as the property-test oracle ``tests/reference_relational.py``.
"""

from __future__ import annotations

from itertools import compress
from typing import Iterable, Iterator, Sequence

from repro.rdf.terms import Term, Variable
from repro.relational import kernels
from repro.sparql.ast import Expression, OrderCondition
from repro.sparql.expressions import compile_filter, compile_order_key
from repro.sparql.result import SelectResult
from repro.store.dictionary import TermDictionary, collector_paused

Row = tuple  # tuple[Term | None, ...] externally; tuple[int | None, ...] encoded

#: The mediator-wide shared codec.  One dictionary for every relation in
#: the process: ids assigned for a term at one endpoint's results equal
#: the ids for the same term arriving from any other endpoint, which is
#: what makes cross-endpoint hash joins pure int comparisons.
_MEDIATOR_CODEC = TermDictionary()


def mediator_codec() -> TermDictionary:
    """The shared term codec backing every :class:`Relation`."""
    return _MEDIATOR_CODEC


class RowStore:
    """List-like row facade over column-major encoded storage.

    External access decodes: iteration, indexing, slicing and equality
    all speak term tuples, so engine code and tests that treat
    ``relation.rows`` as a list of term rows keep working.  Internally
    the store is one id column per schema position (``columns``) plus an
    explicit ``length`` (columns cannot carry the row count of a
    zero-width relation such as the join identity).

    Rows reach those codec columns by one of two deferred routes:

    * **segments** — endpoint responses appended by :meth:`extend`, each
      kept as ``(dictionary, columns, length)``: the response's own id
      columns and the store dictionary that minted them, neither
      copied.  The first read of ``columns`` translates them, in arrival
      order, through the codec (``translate_columns``) into fresh codec
      columns, the form every operator reads.  Until then
      :meth:`term_rows` and slices decode each segment with its own
      dictionary and nothing is translated.  Segment columns are shared
      with the response (and, through :meth:`SelectResult.view`, with
      other queries' stores): they are never mutated or adopted as this
      store's columns.  A store holds segments only while it holds no
      codec rows; a response that arrives after codec rows is
      translated on arrival.  A projection keeps the segments narrowed
      and its ``origin``, the store it narrows: read as ids, it
      translates through that store and copies the kept columns, so a
      response is translated once however many projections read it.
    * **runs** — the output of an inner hash join
      (:class:`~repro.relational.kernels.JoinRuns`): ``length`` is
      known, ``columns`` are built — and the runs dropped — when
      something first reads them, and :meth:`term_rows` writes the term
      rows from the runs without building them at all.
    """

    __slots__ = ("codec", "_columns", "segments", "origin", "runs", "length")

    def __init__(self, codec: TermDictionary | None = None, width: int = 0):
        self.codec = codec if codec is not None else _MEDIATOR_CODEC
        self._columns: list[list] = [[] for __ in range(width)]
        #: Untranslated responses, ``(dictionary, columns, length)``
        #: each, none of them empty; ``[]`` once translated.
        self.segments: list[tuple] = []
        #: For a projection of another store's segments: that store and
        #: the position each column takes there (``None``: unbound).
        self.origin: tuple[RowStore, list] | None = None
        self.runs: kernels.JoinRuns | None = None
        self.length = 0

    @property
    def columns(self) -> list[list]:
        if self.runs is not None:
            self._columns = self.runs.flatten()
            self.runs = None
        elif self.segments:
            self._columns = self._translated()
            self.segments = []
            self.origin = None
        return self._columns

    @columns.setter
    def columns(self, columns: list[list]) -> None:
        self._columns = columns
        self.segments = []
        self.origin = None
        self.runs = None

    def _translated(self) -> list[list]:
        """The segments as fresh codec columns, translated in arrival
        order (so ids are interned as eager translation would)."""
        if self.origin is not None:
            # Copied: the source may grow, and may be read as ids too.
            source, positions = self.origin
            columns, length = source.columns, self.length
            return [
                [None] * length if position is None else columns[position][:length]
                for position in positions
            ]
        translate = self.codec.translate_columns
        segments = self.segments
        if len(segments) == 1:
            dictionary, columns, __ = segments[0]
            return translate(dictionary, columns)
        merged: list[list] = [[] for __ in self._columns]
        for dictionary, columns, __ in segments:
            for column, part in zip(merged, translate(dictionary, columns)):
                column.extend(part)
        return merged

    def untranslated(self) -> list[tuple] | None:
        """This store's rows as segments (``[]`` when it has no rows),
        or ``None`` when it holds codec columns or runs, even empty."""
        if self.segments or (not self.length and self.runs is None):
            return self.segments
        return None

    # ------------------------------------------------------------- encode

    def append(self, row: Sequence[Term | None]) -> None:
        encode = self.codec.encode
        for column, term in zip(self.columns, row):
            column.append(None if term is None else encode(term))
        self.length += 1

    def extend(self, rows: "Iterable[Sequence[Term | None]] | SelectResult") -> None:
        """Append term rows, another store's rows, or a whole response.

        An encoded :class:`SelectResult` becomes a segment, translated
        only when something reads ``columns``; one that carries term
        rows only (a digest-pruned fragment) goes through the term path
        like any row iterable.
        """
        if isinstance(rows, RowStore) and rows.codec is self.codec:
            self._extend_ids(rows.columns, rows.length)
            return
        if isinstance(rows, SelectResult):
            if rows.columns is not None:
                self._add_segment(rows.dictionary, rows.columns, len(rows))
                return
            rows = rows.rows
        encode = self.codec.encode
        columns = self.columns
        if not columns:
            self.length += sum(1 for __ in rows)
            return
        count = 0
        for row in rows:
            for column, term in zip(columns, row):
                column.append(None if term is None else encode(term))
            count += 1
        self.length += count

    def _add_segment(self, dictionary: TermDictionary, columns: Sequence, length: int) -> None:
        """Append a response untranslated — or translated at once where
        the store already holds codec rows or runs, which it must follow."""
        if self.untranslated() is None:
            self._extend_ids(self.codec.translate_columns(dictionary, columns), length)
        elif length:
            self.segments.append((dictionary, columns, length))
            self.length += length
            self.origin = None

    def _extend_ids(self, columns: Sequence[Sequence], length: int) -> None:
        """Append ``length`` rows given as columns of this codec's ids."""
        for column, other_column in zip(self.columns, columns):
            column.extend(other_column)
        self.length += length

    # ------------------------------------------------------------- decode

    def iter_ids(self) -> Iterator[Row]:
        """Encoded row tuples (ids / None), zipped from the columns."""
        if not self.columns:
            return (() for __ in range(self.length))
        return zip(*self.columns)

    def __len__(self) -> int:
        return self.length

    def term_rows(self) -> list[Row]:
        """Every row as a term tuple, in a fresh list the caller owns."""
        if self.runs is not None:
            return self.codec.decode_runs(self.runs)
        if self.segments:
            return _segment_rows(self.segments)
        if not self._columns:
            return [()] * self.length
        return self.codec.decode_columns(self._columns)

    def __iter__(self) -> Iterator[Row]:
        return iter(self.term_rows())

    def __getitem__(self, index):
        if self.segments:
            if not isinstance(index, slice):
                position = range(self.length)[index]
                return self[position : position + 1][0]
            start, stop, step = index.indices(self.length)
            if step != 1:
                return self.term_rows()[index]
            window = []
            base = 0
            for dictionary, columns, length in self.segments:
                low, high = max(start - base, 0), min(stop - base, length)
                if low < high:
                    window.append(
                        (dictionary, [column[low:high] for column in columns], high - low)
                    )
                base += length
            return _segment_rows(window)
        if isinstance(index, slice):
            if not self.columns:
                return [() for __ in range(*index.indices(self.length))]
            return self.codec.decode_columns([column[index] for column in self.columns])
        if not self.columns:
            if not -self.length <= index < self.length:
                raise IndexError(index)
            return ()
        return self.codec.decode_row(tuple(column[index] for column in self.columns))

    def __contains__(self, row: Row) -> bool:
        return any(decoded == tuple(row) for decoded in self)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RowStore):
            if other.codec is self.codec:
                return self.length == other.length and self.columns == other.columns
            return list(self) == list(other)
        if isinstance(other, (list, tuple)):
            return list(self) == [tuple(row) for row in other]
        return NotImplemented

    def __repr__(self) -> str:
        width = len(self._columns if self.runs is None else self.runs.sources)
        return f"RowStore(rows={self.length}, columns={width})"


def _segment_rows(segments: Sequence[tuple]) -> list[Row]:
    """Term rows of ``(dictionary, columns, length)`` segments, each
    decoded by its own dictionary, under one collector pause."""
    rows: list[Row] = []
    with collector_paused():
        for dictionary, columns, length in segments:
            part = dictionary.decode_columns(columns) if columns else [()] * length
            if rows:
                rows.extend(part)
            else:
                rows = part
    return rows


def _positions(vars: Sequence[Variable], out_vars: Sequence[Variable]) -> list[int | None]:
    """Where each of ``out_vars`` sits in ``vars`` (``None``: absent)."""
    index = {var: i for i, var in enumerate(vars)}
    return [index.get(var) for var in out_vars]


def _aligned(segments: Sequence[tuple], positions: list[int | None]) -> list[tuple]:
    """``segments`` narrowed and reordered to ``positions`` — their
    columns shared, an absent position all ``None``."""
    return [
        (
            dictionary,
            [[None] * length if at is None else columns[at] for at in positions],
            length,
        )
        for dictionary, columns, length in segments
    ]


class Relation:
    """An immutable-schema, mutable-rows solution relation."""

    __slots__ = ("vars", "rows", "partitions")

    def __init__(
        self,
        vars: Sequence[Variable],
        rows: "Iterable[Row] | SelectResult" = (),
        partitions: int = 1,
    ):
        self.vars = tuple(vars)
        if isinstance(rows, RowStore):
            store = RowStore(rows.codec, len(self.vars))
            store.extend(rows)
            self.rows = store
        else:
            self.rows = RowStore(width=len(self.vars))
            self.rows.extend(rows)
        self.partitions = max(1, partitions)

    @classmethod
    def _from_columns(
        cls,
        vars: Sequence[Variable],
        columns: list[list],
        length: int,
        partitions: int = 1,
    ) -> "Relation":
        """Internal fast path: adopt already-encoded columns."""
        relation = cls(vars, (), partitions)
        relation.rows.columns = columns
        relation.rows.length = length
        return relation

    @classmethod
    def _from_runs(
        cls, vars: Sequence[Variable], runs: kernels.JoinRuns, partitions: int = 1
    ) -> "Relation":
        """Internal fast path: adopt an inner join's unflattened output."""
        relation = cls(vars, (), partitions)
        relation.rows.runs = runs
        relation.rows.length = runs.length
        return relation

    @classmethod
    def _from_segments(
        cls, vars: Sequence[Variable], segments: list[tuple], length: int, partitions: int = 1
    ) -> "Relation":
        """Internal fast path: adopt untranslated response segments."""
        relation = cls(vars, (), partitions)
        relation.rows.segments = segments
        relation.rows.length = length
        return relation

    #: Columnar view consumed by the kernels.
    @property
    def columns(self) -> list[list]:
        return self.rows.columns

    # ------------------------------------------------------------- basics

    def __len__(self) -> int:
        return self.rows.length

    def __iter__(self) -> Iterator[Row]:
        return iter(self.rows)

    def __repr__(self) -> str:
        return f"Relation(vars={[v.name for v in self.vars]}, rows={len(self.rows)}, partitions={self.partitions})"

    @classmethod
    def from_result(cls, result: SelectResult, partitions: int = 1) -> "Relation":
        return cls(result.vars, result, partitions=partitions)

    @classmethod
    def unit(cls) -> "Relation":
        """The join identity: one empty row over no variables."""
        return cls._from_columns((), [], 1)

    def to_result(self) -> SelectResult:
        return SelectResult(self.vars, list(self.rows))

    def shared_vars(self, other: "Relation") -> tuple[Variable, ...]:
        other_set = set(other.vars)
        return tuple(var for var in self.vars if var in other_set)

    def column_values(self, variable: Variable) -> set[Term]:
        """Distinct bound values of one variable (deduplicated on ids)."""
        distinct_ids = set(self.columns[self.vars.index(variable)])
        distinct_ids.discard(None)
        decode = self.rows.codec.decode
        return {decode(value) for value in distinct_ids}

    def count(self, variable: Variable | None = None, distinct: bool = False) -> int:
        """SPARQL ``COUNT``: the rows (``variable`` None), or the bound —
        with ``distinct``, the different — values of one variable."""
        if variable is None:
            return len(self)
        if variable not in self.vars:
            return 0
        column = self.columns[self.vars.index(variable)]
        if distinct:
            return len(set(column) - {None})
        return len(column) - column.count(None)

    # -------------------------------------------------------------- joins

    def _out_vars(self, other: "Relation") -> tuple[Variable, ...]:
        return self.vars + tuple(v for v in other.vars if v not in set(self.vars))

    def join(self, other: "Relation") -> "Relation":
        """Natural (inner) hash join on the shared variables.

        With no shared variables this is a cross product — the federated
        engines only request that for genuinely disconnected subqueries.
        Dispatches to the columnar kernels: the fully-bound fast path
        unless a key column contains ``None``.
        """
        out_vars = self._out_vars(other)
        output, length = kernels.join(self, other, self.shared_vars(other), out_vars)
        partitions = max(self.partitions, other.partitions)
        if isinstance(output, kernels.JoinRuns):
            return Relation._from_runs(out_vars, output, partitions)
        return Relation._from_columns(out_vars, output, length, partitions)

    def left_join(self, other: "Relation", condition: Expression | None = None) -> "Relation":
        """SPARQL OPTIONAL semantics: keep left rows with no match.

        ``condition`` is the OPTIONAL group's FILTER where it reads a
        variable the group does not bind: compiled once over the joined
        row, it decides each compatible pair; a left row whose partners
        all fail (or error) stays, unextended.
        """
        out_vars = self._out_vars(other)
        passes = None
        if condition is not None:
            slots = {var: slot for slot, var in enumerate(out_vars)}
            passes = compile_filter(condition, slots, self.rows.codec).passes
        columns, length = kernels.left_join(
            self, other, self.shared_vars(other), out_vars, passes
        )
        return Relation._from_columns(out_vars, columns, length, partitions=self.partitions)

    # ------------------------------------------------------------ algebra

    def union(self, other: "Relation") -> "Relation":
        """Multiset union, aligning schemas (missing vars become unbound)."""
        out_vars = self._out_vars(other)
        partitions = max(self.partitions, other.partitions)
        left, right = self.rows.untranslated(), other.rows.untranslated()
        if left is not None and right is not None and (left or right):
            # Nothing translated on either side: segment lists concatenate.
            length = kernels.union_rows(len(self), len(other))
            segments = _aligned(left, _positions(self.vars, out_vars)) + _aligned(
                right, _positions(other.vars, out_vars)
            )
            return Relation._from_segments(out_vars, segments, length, partitions)
        columns, length = kernels.union(self, other, out_vars)
        return Relation._from_columns(out_vars, columns, length, partitions)

    def project(self, variables: Sequence[Variable]) -> "Relation":
        if self.rows.segments:
            # Segments narrow and stay untranslated, like runs below.
            positions = _positions(self.vars, variables)
            projected = Relation._from_segments(
                tuple(variables), _aligned(self.rows.segments, positions), len(self),
                self.partitions,
            )
            projected.rows.origin = (self.rows, positions)
            return projected
        runs = self.rows.runs
        if runs is not None:
            # Runs narrow their sources and stay lazy — unless a variable
            # is unknown: its all-``None`` column needs flattened storage.
            try:
                positions = list(map(self.vars.index, variables))
            except ValueError:
                pass
            else:
                return Relation._from_runs(
                    tuple(variables), runs.project(positions), self.partitions
                )
        columns, length = kernels.project(self, variables)
        return Relation._from_columns(
            tuple(variables), columns, length, partitions=self.partitions
        )

    def distinct(self) -> "Relation":
        columns, length = kernels.distinct(self)
        return Relation._from_columns(self.vars, columns, length, partitions=self.partitions)

    def filter(self, expression: Expression) -> "Relation":
        """Keep the rows on which FILTER ``expression`` holds.

        The expression is compiled once against the id rows
        (:func:`repro.sparql.expressions.compile_filter` over the
        codec): a term is decoded only where an operator inspects it.
        A row where the expression is an error — an unbound operand, a
        type mismatch — is dropped; ``EXISTS`` needs graph data and
        raises :class:`~repro.exceptions.EvaluationError` here.
        """
        passes = compile_filter(expression, self._slots(), self.rows.codec).passes
        keep = list(map(passes, self.rows.iter_ids()))
        columns = [list(compress(column, keep)) for column in self.columns]
        return Relation._from_columns(
            self.vars, columns, sum(keep), partitions=self.partitions
        )

    def order_by(self, conditions: Sequence[OrderCondition]) -> "Relation":
        """The rows stably sorted by an ORDER BY clause
        (:func:`repro.sparql.expressions.compile_order_key`): conditions
        may be expressions and may read any column, so this runs before
        the final projection."""
        key = compile_order_key(conditions, self._slots(), self.rows.codec)
        keys = list(map(key, self.rows.iter_ids()))
        order = sorted(range(len(keys)), key=keys.__getitem__)
        columns = [[column[i] for i in order] for column in self.columns]
        return Relation._from_columns(
            self.vars, columns, len(order), partitions=self.partitions
        )

    def _slots(self) -> dict[Variable, int]:
        """The row layout a compiled expression reads: column positions."""
        return {var: slot for slot, var in enumerate(self.vars)}

    def limit(self, limit: int | None, offset: int = 0) -> "Relation":
        stop = None if limit is None else offset + limit
        columns = [column[offset:stop] for column in self.columns]
        length = len(range(*slice(offset, stop).indices(len(self))))
        return Relation._from_columns(self.vars, columns, length, partitions=self.partitions)
