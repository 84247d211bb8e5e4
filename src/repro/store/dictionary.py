"""Term dictionary: dense integer ids for RDF terms.

Distributed RDF engines (RDF-3X, the partitioned-graph systems of Peng et
al., Lothbrok's fragment statistics) do not join on IRI strings — they
dictionary-encode every term once at load time and run the whole data
plane in integer space.  :class:`TermDictionary` is that mapping: each
distinct term gets a dense ``int`` id in first-encounter order, with a
decode table for the reverse direction.

Two instances play distinct roles in this codebase:

* every :class:`~repro.store.TripleStore` owns one — its permutation
  indexes, the compiled plans' solution rows, the id columns of every
  SELECT response, and all per-predicate statistics are keyed on that
  store's ids;
* the mediator's relational layer shares one process-wide codec
  (:func:`repro.relational.relation.mediator_codec`) so hash joins,
  DISTINCT, and VALUES extraction over results from *different* endpoints
  still compare plain ints.

Responses cross between the two as id columns, so a dictionary also
keeps what that hand-off needs, both grown lazily and never shrunk
(ids are append-only, so neither goes stale when a store mutates):

* in the **store** role, a per-id *text length*
  (:meth:`TermDictionary.text_lengths`), from which the client sizes a
  response without touching a term;
* in the **codec** role, one local-id -> own-id *translation table* per
  source dictionary (:meth:`TermDictionary.translate_columns`), so each
  distinct term of an endpoint is hashed into the codec once per
  process instead of once per shipped cell.

Encoding is interning: ``encode`` assigns a fresh id to an unseen term, so
query-only constants (VALUES rows, FILTER constants) can be pulled into id
space too.  ``lookup`` never interns — a miss means "this term cannot
occur in the data", which the evaluator exploits to prune dead patterns
without touching an index.
"""

from __future__ import annotations

import gc
from array import array
from contextlib import contextmanager
from functools import partial
from typing import Iterable, Iterator, Sequence
from weakref import WeakKeyDictionary

from repro.rdf.terms import BNode, Term

#: An encoded solution row: ids aligned with a variable schema, ``None``
#: marking an unbound position (e.g. from OPTIONAL).
IdRow = tuple


@contextmanager
def collector_paused() -> Iterator[None]:
    """Keep the cycle collector from running inside the ``with`` block.

    For a block whose every allocation outlives it and can be part of no
    cycle — a collection there re-walks the new objects and frees
    nothing.  Three rules (``docs/architecture.md``, "Collector"): the
    state found on entry is put back on exit, whether the block returns
    or raises, so pauses nest and a host that runs with the collector
    off keeps it off; the block holds no suspension point (no client
    request, no ``QueryServer.gate``, no callback); and the collector is
    only ever disabled and enabled, never run, frozen or re-tuned.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


def text_length(term: Term) -> int:
    """Characters of ``term``'s value text (a blank node's label)."""
    return len(term.label if isinstance(term, BNode) else term.value)


class TermDictionary:
    """A bijective term <-> dense-int mapping (ids start at 0)."""

    __slots__ = ("_ids", "_terms", "_text_lengths", "_tables", "__weakref__")

    def __init__(self):
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []
        self._text_lengths = array("I")
        #: source dictionary -> its translation table (see
        #: :meth:`translate_columns`); weakly keyed, so the tables of a
        #: discarded federation die with its stores.
        self._tables: WeakKeyDictionary = WeakKeyDictionary()

    def __len__(self) -> int:
        return len(self._terms)

    def __contains__(self, term: Term) -> bool:
        return term in self._ids

    def __repr__(self) -> str:
        return f"TermDictionary(terms={len(self._terms)})"

    def __iter__(self) -> Iterator[Term]:
        return iter(self._terms)

    # ------------------------------------------------------------- encode

    def encode(self, term: Term) -> int:
        """The id of ``term``, interning it if unseen."""
        ids = self._ids
        found = ids.get(term)
        if found is not None:
            return found
        fresh = len(self._terms)
        ids[term] = fresh
        self._terms.append(term)
        return fresh

    def lookup(self, term: Term) -> int | None:
        """The id of ``term`` if already interned, else ``None``."""
        return self._ids.get(term)

    def encode_row(self, row: Iterable[Term | None]) -> IdRow:
        """Encode one solution row; ``None`` (unbound) passes through."""
        encode = self.encode
        return tuple(None if term is None else encode(term) for term in row)

    # ------------------------------------------------------------- decode

    def decode(self, term_id: int) -> Term:
        """The term for an id minted by this dictionary."""
        return self._terms[term_id]

    def decode_row(self, row: IdRow) -> tuple[Term | None, ...]:
        """Decode one solution row; ``None`` (unbound) passes through."""
        terms = self._terms
        return tuple(None if term_id is None else terms[term_id] for term_id in row)

    def decode_columns(self, columns: Sequence[Sequence[int | None]]) -> list[tuple]:
        """Term rows of column-major ids (at least one column).

        Bulk form of :meth:`decode_row`, a column at a time: a fully
        bound column is one C-level ``map`` over the decode table, and
        only a column that holds ``None`` pays the per-value test.

        Runs under :func:`collector_paused`: term tuples stay tracked
        (a ``Term`` is a GC object), so an answer of *n* rows would
        otherwise be re-walked by every collection its own growth
        triggers, although each tuple outlives the call and none can
        close a cycle.  The one young-generation pass over the new rows
        still happens, at the first tracked allocation after the pause.
        """
        terms = self._terms
        with collector_paused():
            return list(zip(*(_decoded(terms, column) for column in columns)))

    def decode_runs(self, runs) -> list[tuple]:
        """Term rows of an inner join's output, written from its runs
        (:meth:`repro.relational.kernels.JoinRuns.rows`): where the
        output is longer than the inputs it is the join's *input*
        columns that are decoded, once each, and the output's id columns
        are never built.  The second bulk row builder, under the same
        :func:`collector_paused` and for the same reason as
        :meth:`decode_columns`.
        """
        terms = self._terms
        with collector_paused():
            return runs.rows(partial(_decoded, terms))

    @property
    def terms(self) -> list[Term]:
        """The decode table (do not mutate)."""
        return self._terms

    # ------------------------------------------------- sizes / translation

    def text_lengths(self) -> array:
        """``text_length`` of every interned term, indexed by id.

        Filled lazily: a call measures just the terms interned since the
        previous one.
        """
        lengths = self._text_lengths
        terms = self._terms
        if len(lengths) < len(terms):
            lengths.extend(map(text_length, terms[len(lengths):]))
        return lengths

    def translate_columns(
        self, source: "TermDictionary", columns: Sequence[Sequence[int | None]]
    ) -> list[list]:
        """``columns`` of ``source`` ids as fresh columns of own ids.

        ``None`` (unbound) passes through.  Ids this dictionary has not
        yet seen from ``source`` are interned in **row-major
        first-occurrence order** — the order :meth:`encode_row` over the
        decoded rows would intern them — so translating a response and
        encoding its term rows assign identical ids.  Every other id is
        one lookup in the table kept for ``source``.
        """
        table = self._tables.get(source)
        if table is None:
            table = self._tables[source] = []
        if len(table) < len(source):
            table.extend([_UNSEEN] * (len(source) - len(table)))
        lookup = table.__getitem__
        out = []
        unseen = []
        for position, column in enumerate(columns):
            mapped = _translated(lookup, column)
            if _UNSEEN in mapped:
                unseen.append(position)
            out.append(mapped)
        if unseen:
            firsts = [
                first
                for position in unseen
                for first in _first_unseen(position, columns[position], out[position])
            ]
            # Merged across columns by (row, column): row-major order.
            firsts.sort()
            encode = self.encode
            terms = source._terms
            for __, __, local in firsts:
                if table[local] == _UNSEEN:
                    table[local] = encode(terms[local])
            for position in unseen:
                out[position] = _translated(lookup, columns[position])
        return out


def _decoded(terms: list, column: Sequence[int | None]):
    """The terms of one id column: a C-level ``map`` over the decode
    table, unless the column holds ``None`` and pays the per-value test."""
    if None in column:
        return [None if term_id is None else terms[term_id] for term_id in column]
    return map(terms.__getitem__, column)


#: Table entry of a source id not translated yet.  Tables are lists, not
#: arrays: a list hands every cell the codec's own int object, an array
#: would allocate a fresh one per translated cell.
_UNSEEN = -1


def _translated(lookup, column) -> list:
    if None in column:
        return [None if local is None else lookup(local) for local in column]
    return list(map(lookup, column))


def _first_unseen(position: int, column, mapped: list) -> list[tuple]:
    """``(row, position, id)`` of each distinct id of ``column`` that
    ``mapped`` shows as unseen, at its first row."""
    firsts = []
    seen = set()
    row = -1
    try:
        while True:
            row = mapped.index(_UNSEEN, row + 1)
            local = column[row]
            if local not in seen:
                seen.add(local)
                firsts.append((row, position, local))
    except ValueError:
        return firsts
