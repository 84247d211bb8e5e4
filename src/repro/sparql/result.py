"""The SELECT result every layer exchanges: a header plus solution rows.

A leaf module — it imports nothing above :mod:`repro.rdf` — so the
endpoint plans that produce results, the mediator relations that ingest
them and the serving layer that caches them can all name the type
without importing each other.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.rdf.terms import Term, Variable

Solution = dict[Variable, Term]


class SelectResult:
    """Materialized SELECT result: a variable schema plus solution rows.

    Rows are tuples of terms aligned with ``vars``; ``None`` marks an
    unbound variable (e.g. from OPTIONAL).  A result comes in one of two
    forms:

    * **term rows** — built from a row list (the mediator's final
      answers, digest-pruned fragments, the tests' interpreter);
    * **encoded** (:meth:`encoded`) — what a compiled plan returns: one
      id column per variable in the *producing store's* id space, plus
      that store's dictionary.  ``rows`` then decodes lazily, once, for
      the callers that want terms; consumers that only need equality
      (the mediator's relations) or sizes (the client's payload
      estimate) read ``columns`` / ``dictionary`` and never decode.

    Assigning ``rows`` turns an encoded result into a term-row one: the
    id columns are dropped, so length and payload follow the new rows.
    """

    __slots__ = ("vars", "columns", "dictionary", "_length", "_rows")

    def __init__(
        self,
        vars: Sequence[Variable],
        rows: Sequence[tuple[Term | None, ...]],
    ):
        self.vars = tuple(vars)
        #: Column-major ids of an encoded result (``None`` = unbound),
        #: else ``None``.  Read-only: views share them.
        self.columns: Sequence[Sequence[int | None]] | None = None
        #: The dictionary that minted ``columns``' ids.
        self.dictionary = None
        self._length = 0
        self._rows: list | None = list(rows)

    @classmethod
    def encoded(
        cls,
        vars: Sequence[Variable],
        columns: Sequence[Sequence[int | None]],
        length: int,
        dictionary,
    ) -> "SelectResult":
        """A result over ``dictionary``'s id columns (one per variable;
        ``length`` carries the row count of a zero-width result)."""
        result = cls(vars, ())
        result.columns = columns
        result.dictionary = dictionary
        result._length = length
        result._rows = None
        return result

    @classmethod
    def owning(cls, vars: Sequence[Variable], rows: list) -> "SelectResult":
        """A term-row result that adopts ``rows`` instead of copying it:
        for a list the caller has just built and hands over."""
        result = cls(vars, ())
        result._rows = rows
        return result

    def view(self, vars: Sequence[Variable]) -> "SelectResult":
        """The same rows under another (positionally aligned) header.

        Shares columns, dictionary and any decoded rows with ``self`` —
        nothing is copied, so both sides must treat them as read-only.
        """
        view = SelectResult(vars, ())
        view.columns = self.columns
        view.dictionary = self.dictionary
        view._length = self._length
        view._rows = self._rows
        return view

    @property
    def rows(self) -> list[tuple[Term | None, ...]]:
        rows = self._rows
        if rows is None:
            if self.columns:
                rows = self.dictionary.decode_columns(self.columns)
            else:
                rows = [()] * self._length
            self._rows = rows
        return rows

    @rows.setter
    def rows(self, rows: list) -> None:
        self._rows = rows
        self.columns = None
        self.dictionary = None

    def __len__(self) -> int:
        return self._length if self._rows is None else len(self._rows)

    def __iter__(self) -> Iterator[tuple[Term | None, ...]]:
        return iter(self.rows)

    def __eq__(self, other):
        return (
            isinstance(other, SelectResult)
            and self.vars == other.vars
            and sorted(self.rows, key=_row_key) == sorted(other.rows, key=_row_key)
        )

    def __repr__(self):
        return f"SelectResult(vars={[v.name for v in self.vars]}, rows={len(self)})"

    def bindings(self) -> Iterator[Solution]:
        """Iterate rows as variable->term dicts (unbound vars omitted)."""
        for row in self.rows:
            yield {var: value for var, value in zip(self.vars, row) if value is not None}


def _row_key(row: tuple[Term | None, ...]) -> tuple:
    return tuple((0,) if value is None else value.sort_key() for value in row)
