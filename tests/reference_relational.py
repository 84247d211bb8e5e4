"""Row-at-a-time reference implementation of the mediator algebra.

This preserves the pre-columnar relation runtime (dictionary-encoded
rows, one Python tuple per row, per-pair compatibility merges) exactly
as it shipped, as the property-test oracle for the columnar kernels in
:mod:`repro.relational.kernels`: they must be bag-equal with these
operators on randomized inputs (unbound values, cross products, OPTIONAL
left joins, duplicates).  It lives under ``tests/`` so no engine can
import it.

It shares the mediator codec with :class:`~repro.relational.relation.Relation`,
so converting between the two is loss-free.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.rdf.terms import Term, Variable
from repro.relational.relation import mediator_codec

Row = tuple  # tuple[Term | None, ...] externally; tuple[int | None, ...] encoded


class RowRelation:
    """The row-based relation: encoded rows, row-at-a-time operators."""

    __slots__ = ("vars", "ids", "partitions")

    def __init__(self, vars: Sequence[Variable], rows: Iterable[Row] = (), partitions: int = 1):
        self.vars = tuple(vars)
        encode_row = mediator_codec().encode_row
        self.ids: list[Row] = [encode_row(row) for row in rows]
        self.partitions = max(1, partitions)

    @classmethod
    def _from_ids(
        cls, vars: Sequence[Variable], id_rows: list[Row], partitions: int = 1
    ) -> "RowRelation":
        relation = cls(vars, (), partitions)
        relation.ids = id_rows
        return relation

    @classmethod
    def from_relation(cls, relation) -> "RowRelation":
        """Adopt a columnar :class:`Relation`'s encoded rows."""
        return cls._from_ids(
            relation.vars, list(relation.rows.iter_ids()), relation.partitions
        )

    # ------------------------------------------------------------- basics

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self) -> Iterator[Row]:
        decode_row = mediator_codec().decode_row
        for row in self.ids:
            yield decode_row(row)

    @property
    def rows(self) -> list[Row]:
        """Decoded term rows (external contract parity with Relation)."""
        return list(self)

    def __repr__(self) -> str:
        return f"RowRelation(vars={[v.name for v in self.vars]}, rows={len(self.ids)})"

    def shared_vars(self, other: "RowRelation") -> tuple[Variable, ...]:
        other_set = set(other.vars)
        return tuple(var for var in self.vars if var in other_set)

    # -------------------------------------------------------------- joins

    def join(self, other: "RowRelation") -> "RowRelation":
        """Natural hash join, one merged tuple per compatible row pair."""
        shared = self.shared_vars(other)
        out_vars = self.vars + tuple(v for v in other.vars if v not in set(self.vars))
        if not shared:
            rows = [
                _merge_rows(self.vars, left, other.vars, right, out_vars)
                for left in self.ids
                for right in other.ids
            ]
            return RowRelation._from_ids(
                out_vars, rows, partitions=max(self.partitions, other.partitions)
            )

        build, probe = (self, other) if len(self) <= len(other) else (other, self)
        table, wildcard_rows = _build_hash_table(build, shared)
        rows: list[Row] = []
        probe_key_indexes = [probe.vars.index(var) for var in shared]
        for probe_row in probe.ids:
            key = tuple(probe_row[i] for i in probe_key_indexes)
            if None in key:
                candidates: Iterable[Row] = build.ids
            else:
                candidates = list(table.get(key, ())) + wildcard_rows
            for build_row in candidates:
                merged = _merge_compatible(
                    build.vars, build_row, probe.vars, probe_row, out_vars
                )
                if merged is not None:
                    rows.append(merged)
        return RowRelation._from_ids(
            out_vars, rows, partitions=max(self.partitions, other.partitions)
        )

    def left_join(self, other: "RowRelation") -> "RowRelation":
        """SPARQL OPTIONAL semantics: keep left rows with no match."""
        shared = self.shared_vars(other)
        out_vars = self.vars + tuple(v for v in other.vars if v not in set(self.vars))
        rows: list[Row] = []
        if not shared:
            if not other.ids:
                pad = (None,) * (len(out_vars) - len(self.vars))
                rows = [row + pad for row in self.ids]
            else:
                rows = [
                    _merge_rows(self.vars, left, other.vars, right, out_vars)
                    for left in self.ids
                    for right in other.ids
                ]
            return RowRelation._from_ids(out_vars, rows, partitions=self.partitions)

        table, wildcard_rows = _build_hash_table(other, shared)
        left_key_indexes = [self.vars.index(var) for var in shared]
        pad = (None,) * (len(out_vars) - len(self.vars))
        for left_row in self.ids:
            key = tuple(left_row[i] for i in left_key_indexes)
            if None in key:
                candidates: Iterable[Row] = other.ids
            else:
                candidates = list(table.get(key, ())) + wildcard_rows
            matched = False
            for right_row in candidates:
                merged = _merge_compatible(
                    self.vars, left_row, other.vars, right_row, out_vars
                )
                if merged is not None:
                    rows.append(merged)
                    matched = True
            if not matched:
                rows.append(left_row + pad)
        return RowRelation._from_ids(out_vars, rows, partitions=self.partitions)

    # ------------------------------------------------------------ algebra

    def union(self, other: "RowRelation") -> "RowRelation":
        out_vars = self.vars + tuple(v for v in other.vars if v not in set(self.vars))
        rows = [_align_row(self.vars, row, out_vars) for row in self.ids]
        rows.extend(_align_row(other.vars, row, out_vars) for row in other.ids)
        return RowRelation._from_ids(
            out_vars, rows, partitions=max(self.partitions, other.partitions)
        )

    def project(self, variables: Sequence[Variable]) -> "RowRelation":
        indexes = [self.vars.index(var) if var in self.vars else None for var in variables]
        rows = [
            tuple(row[i] if i is not None else None for i in indexes) for row in self.ids
        ]
        return RowRelation._from_ids(tuple(variables), rows, partitions=self.partitions)

    def distinct(self) -> "RowRelation":
        seen: set[Row] = set()
        rows: list[Row] = []
        for row in self.ids:
            if row not in seen:
                seen.add(row)
                rows.append(row)
        return RowRelation._from_ids(self.vars, rows, partitions=self.partitions)


# --------------------------------------------------------------- internals
# Encoded-row helpers: values are ids or None, equality is int comparison.


def _build_hash_table(relation: RowRelation, shared: tuple[Variable, ...]):
    key_indexes = [relation.vars.index(var) for var in shared]
    table: dict[tuple, list[Row]] = {}
    wildcard_rows: list[Row] = []
    for row in relation.ids:
        key = tuple(row[i] for i in key_indexes)
        if None in key:
            wildcard_rows.append(row)
        else:
            table.setdefault(key, []).append(row)
    return table, wildcard_rows


def _merge_compatible(
    left_vars: tuple[Variable, ...],
    left_row: Row,
    right_vars: tuple[Variable, ...],
    right_row: Row,
    out_vars: tuple[Variable, ...],
) -> Row | None:
    merged: dict[Variable, int | None] = dict(zip(left_vars, left_row))
    for var, value in zip(right_vars, right_row):
        existing = merged.get(var)
        if existing is None:
            merged[var] = value
        elif value is not None and existing != value:
            return None
    return tuple(merged.get(var) for var in out_vars)


def _merge_rows(
    left_vars: tuple[Variable, ...],
    left_row: Row,
    right_vars: tuple[Variable, ...],
    right_row: Row,
    out_vars: tuple[Variable, ...],
) -> Row:
    merged: dict[Variable, int | None] = dict(zip(left_vars, left_row))
    for var, value in zip(right_vars, right_row):
        if merged.get(var) is None:
            merged[var] = value
    return tuple(merged.get(var) for var in out_vars)


def _align_row(vars: tuple[Variable, ...], row: Row, out_vars: tuple[Variable, ...]) -> Row:
    mapping = dict(zip(vars, row))
    return tuple(mapping.get(var) for var in out_vars)
