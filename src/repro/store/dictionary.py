"""Term dictionary: dense integer ids for RDF terms.

Distributed RDF engines (RDF-3X, the partitioned-graph systems of Peng et
al., Lothbrok's fragment statistics) do not join on IRI strings — they
dictionary-encode every term once at load time and run the whole data
plane in integer space.  :class:`TermDictionary` is that mapping: each
distinct term gets a dense ``int`` id in first-encounter order, with a
decode table for the reverse direction.

Two instances play distinct roles in this codebase:

* every :class:`~repro.store.TripleStore` owns one — its permutation
  indexes, the SPARQL evaluator's solution bindings, and all per-predicate
  statistics are keyed on that store's ids;
* the mediator's relational layer shares one process-wide codec
  (:func:`repro.relational.relation.mediator_codec`) so hash joins,
  DISTINCT, and VALUES extraction over results from *different* endpoints
  still compare plain ints.

Encoding is interning: ``encode`` assigns a fresh id to an unseen term, so
query-only constants (VALUES rows, FILTER constants) can be pulled into id
space too.  ``lookup`` never interns — a miss means "this term cannot
occur in the data", which the evaluator exploits to prune dead patterns
without touching an index.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.rdf.terms import Term

#: An encoded solution row: ids aligned with a variable schema, ``None``
#: marking an unbound position (e.g. from OPTIONAL).
IdRow = tuple


class TermDictionary:
    """A bijective term <-> dense-int mapping (ids start at 0)."""

    __slots__ = ("_ids", "_terms")

    def __init__(self):
        self._ids: dict[Term, int] = {}
        self._terms: list[Term] = []

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
        """
        terms = self._terms
        decode = terms.__getitem__
        return list(
            zip(
                *(
                    [None if term_id is None else terms[term_id] for term_id in column]
                    if None in column
                    else map(decode, column)
                    for column in columns
                )
            )
        )

    @property
    def terms(self) -> list[Term]:
        """The decode table (do not mutate)."""
        return self._terms
