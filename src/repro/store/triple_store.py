"""An indexed in-memory triple store, dictionary-encoded.

This is the storage substrate behind every simulated SPARQL endpoint.
Like the RDF-3X-style engines it mirrors, the store first maps every term
to a dense integer id through its :class:`~repro.store.dictionary.TermDictionary`
and then maintains three permutation indexes (SPO, POS, OSP) *keyed on
those ids*, which lets any triple pattern with at least one bound position
be answered by integer lookups rather than scans or string re-hashing.

Each permutation is a :class:`~repro.store.sorted_runs.SortedRunIndex` —
three parallel ``array('q')`` columns sorted lexicographically, probed
with binary searches.  Every ``match_ids`` result comes back sorted in
the probing permutation's order (see :meth:`TripleStore.match_order`),
which is what the compiled plans' intersect steps walk and bisect,
and bulk loads build each permutation with one list sort instead of
per-row index maintenance.

The public API still speaks :class:`~repro.rdf.terms.Term`; the id-space
surface (``match_ids`` / ``count_ids`` / ``ask_ids`` / ``scan_ids`` and
the ``dictionary`` attribute) is what the SPARQL evaluator runs on.
Terms are decoded back only when a caller asks for
:class:`~repro.rdf.triple.Triple` objects.

Per-predicate statistics (triple counts, distinct subjects) are maintained
incrementally.  The paper notes that "cardinality statistics per
predicate are usually collected by RDF engines for their runtime query
optimization" — SAPE's COUNT probe queries and SPLENDID's VoID index both
read these numbers.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, Iterable, Iterator, Sequence

from repro.rdf.terms import IRI, PatternTerm, Term, Variable
from repro.rdf.triple import Triple, TriplePattern
from repro.store.dictionary import TermDictionary
from repro.store.sorted_runs import SortedRunIndex

#: An encoded triple: (subject id, predicate id, object id).
IdTriple = tuple

#: For each (s bound, p bound, o bound) mask: the triple positions a
#: ``match_ids`` iteration is sorted by, in priority order.  E.g.
#: predicate-bound probes run on POS, so rows come back sorted by object
#: then subject: ``(2, 0)``.
MATCH_ORDERS: dict[tuple[bool, bool, bool], tuple[int, ...]] = {
    (True, True, True): (),
    (True, True, False): (2,),
    (False, True, True): (0,),
    (True, False, True): (1,),
    (True, False, False): (1, 2),
    (False, True, False): (2, 0),
    (False, False, True): (0, 1),
    (False, False, False): (0, 1, 2),
}


class TripleStore:
    """A set of triples with id-keyed SPO / POS / OSP permutation indexes.

    The store deduplicates triples (RDF graphs are sets).  All match
    methods treat a :class:`Variable` or ``None`` in a position as a
    wildcard.
    """

    def __init__(self, name: str = "store", dictionary: TermDictionary | None = None):
        self.name = name
        #: The per-endpoint term dictionary.  Ids are stable for the
        #: lifetime of the store (``clear`` empties the indexes but keeps
        #: the dictionary, so cached encodings stay valid).
        self.dictionary = dictionary if dictionary is not None else TermDictionary()
        self._spo = SortedRunIndex()
        self._pos = SortedRunIndex()
        self._osp = SortedRunIndex()
        self._size = 0
        #: Data version, bumped on every mutation (add/remove/clear).
        #: Compiled plans (:mod:`repro.sparql.plan`) are pinned to the
        #: version they were built against: their pattern order and
        #: statistics-driven choices are only valid while the data —
        #: and hence the statistics — are unchanged.
        self.version = 0
        self._predicate_counts: Counter[int] = Counter()
        # Incremental distinct-subject statistics: predicate id ->
        # {subject id: number of triples with that (subject, predicate)}.
        # distinct_subjects(p) is then an O(1) len() instead of the full
        # SPO scan it used to be.
        self._predicate_subjects: dict[int, dict[int, int]] = {}
        # Derived statistics that cost a scan (store-wide distinct
        # subjects/objects, distinct objects per predicate), memoized per
        # data version.
        self._stats_cache: dict = {}

    def _bump(self) -> None:
        self.version += 1
        self._stats_cache.clear()

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        lookup = self.dictionary.lookup
        s = lookup(triple.subject)
        if s is None:
            return False
        p = lookup(triple.predicate)
        if p is None:
            return False
        o = lookup(triple.object)
        if o is None:
            return False
        return self._spo.contains((s, p, o))

    def __iter__(self) -> Iterator[Triple]:
        decode = self.dictionary.decode
        for s, p, o in self._spo.iter_prefix(()):
            yield Triple(decode(s), decode(p), decode(o))

    def __repr__(self) -> str:
        return f"TripleStore({self.name!r}, triples={self._size})"

    # ------------------------------------------------------------------ add

    def add(self, triple: Triple) -> bool:
        """Insert a triple; returns True if it was not already present."""
        encode = self.dictionary.encode
        s = encode(triple.subject)
        p = encode(triple.predicate)
        o = encode(triple.object)
        if self._spo.contains((s, p, o)):
            return False
        self._spo.add((s, p, o))
        self._pos.add((p, o, s))
        self._osp.add((o, s, p))
        self._size += 1
        self._bump()
        self._predicate_counts[p] += 1
        subjects = self._predicate_subjects.setdefault(p, {})
        subjects[s] = subjects.get(s, 0) + 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns how many were new.

        This is the bulk-load fast path: encode everything, sort/dedupe
        once, and merge each permutation in one pass — no per-row index
        maintenance.
        """
        encode = self.dictionary.encode
        rows = sorted(
            {
                (encode(triple.subject), encode(triple.predicate), encode(triple.object))
                for triple in triples
            }
        )
        contains = self._spo.contains
        fresh = [row for row in rows if not contains(row)]
        if not fresh:
            return 0
        self._spo.bulk_insert(fresh)
        self._pos.bulk_insert(sorted((p, o, s) for s, p, o in fresh))
        self._osp.bulk_insert(sorted((o, s, p) for s, p, o in fresh))
        counts = self._predicate_counts
        subjects_by_predicate = self._predicate_subjects
        for s, p, __ in fresh:
            counts[p] += 1
            subjects = subjects_by_predicate.setdefault(p, {})
            subjects[s] = subjects.get(s, 0) + 1
        self._size += len(fresh)
        self._bump()
        return len(fresh)

    def remove(self, triple: Triple) -> bool:
        """Delete a triple; returns True if it was present."""
        if triple not in self:
            return False
        lookup = self.dictionary.lookup
        s = lookup(triple.subject)
        p = lookup(triple.predicate)
        o = lookup(triple.object)
        self._spo.remove((s, p, o))
        self._pos.remove((p, o, s))
        self._osp.remove((o, s, p))
        self._size -= 1
        self._bump()
        self._predicate_counts[p] -= 1
        if self._predicate_counts[p] == 0:
            del self._predicate_counts[p]
        subjects = self._predicate_subjects[p]
        subjects[s] -= 1
        if subjects[s] == 0:
            del subjects[s]
            if not subjects:
                del self._predicate_subjects[p]
        return True

    # ---------------------------------------------------------------- match

    def match(
        self,
        subject: PatternTerm | None = None,
        predicate: PatternTerm | None = None,
        object: PatternTerm | None = None,
    ) -> Iterator[Triple]:
        """Iterate triples matching the given positions.

        ``None`` or a :class:`Variable` acts as a wildcard.  Repeated
        variables (e.g. same variable as subject and object) are enforced.
        """
        ids = self._encode_positions(subject, predicate, object)
        if ids is None:
            return iter(())
        s, p, o = ids
        iterator = self.match_ids(s, p, o)
        repeated = _repeated_variable_check(subject, predicate, object)
        if repeated is not None:
            iterator = filter(repeated, iterator)
        return self._decode_triples(iterator)

    def _encode_positions(
        self,
        subject: PatternTerm | None,
        predicate: PatternTerm | None,
        object: PatternTerm | None,
    ) -> tuple[int | None, int | None, int | None] | None:
        """Bound positions -> ids; ``None`` result means "cannot match"."""
        lookup = self.dictionary.lookup
        ids = []
        for position in (subject, predicate, object):
            if position is None or isinstance(position, Variable):
                ids.append(None)
            else:
                term_id = lookup(position)
                if term_id is None:
                    return None
                ids.append(term_id)
        return ids[0], ids[1], ids[2]

    def _decode_triples(self, id_triples: Iterable[IdTriple]) -> Iterator[Triple]:
        decode = self.dictionary.decode
        for s, p, o in id_triples:
            yield Triple(decode(s), decode(p), decode(o))

    def match_ids(
        self, s: int | None = None, p: int | None = None, o: int | None = None
    ) -> Iterator[IdTriple]:
        """Iterate encoded ``(s, p, o)`` id triples; ``None`` is a wildcard.

        This is the hot matching path the SPARQL evaluator drives: no
        :class:`Triple` objects are built and every comparison is an int.
        The iteration is *sorted* in the probing permutation's order —
        see :meth:`match_order`.
        """
        if s is not None:
            if p is not None:
                if o is not None:
                    if self._spo.contains((s, p, o)):
                        return iter(((s, p, o),))
                    return iter(())
                return ((s, p, obj) for obj in self._spo.thirds(s, p))
            if o is not None:
                return ((s, pred, o) for pred in self._osp.thirds(o, s))
            return self._spo.iter_prefix((s,))
        if p is not None:
            if o is not None:
                return ((subj, p, o) for subj in self._pos.thirds(p, o))
            return ((row[2], p, row[1]) for row in self._pos.iter_prefix((p,)))
        if o is not None:
            return ((row[1], row[2], o) for row in self._osp.iter_prefix((o,)))
        return self._spo.iter_prefix(())

    def match_order(
        self, s_bound: bool = False, p_bound: bool = False, o_bound: bool = False
    ) -> tuple[int, ...]:
        """Triple positions a ``match_ids`` iteration is sorted by.

        For a pattern with the given bound positions, returns the unbound
        triple positions (0=subject, 1=predicate, 2=object) in sort
        priority order — e.g. predicate-bound probes run on POS, so rows
        arrive sorted by object then subject: ``(2, 0)``.  The compiled
        plans' intersect steps rely on this order.
        """
        return MATCH_ORDERS[(s_bound, p_bound, o_bound)]

    def subject_range(self, p: int, o: int) -> tuple[Sequence[int], int, int]:
        """``(values, lo, hi)``: ``values[lo:hi]`` are the subjects of
        ``(?, p, o)``, ascending — the POS run column itself when the
        prefix has no pending writes, so membership is one ``bisect``
        (:meth:`SortedRunIndex.third_range`)."""
        return self._pos.third_range(p, o)

    def object_range(self, p: int, s: int) -> tuple[Sequence[int], int, int]:
        """Like :meth:`subject_range`, for the objects of ``(s, p, ?)`` on SPO."""
        return self._spo.third_range(s, p)

    def scan_ids(self, order: str = "spo") -> Iterator[IdTriple]:
        """Full scan of ``(s, p, o)`` id triples sorted by a permutation.

        ``order`` is one of ``"spo"``, ``"pos"``, ``"osp"``; rows stream
        straight off the corresponding run.
        """
        if order == "spo":
            return self._spo.iter_prefix(())
        if order == "pos":
            return ((row[2], row[0], row[1]) for row in self._pos.iter_prefix(()))
        if order == "osp":
            return ((row[1], row[2], row[0]) for row in self._osp.iter_prefix(()))
        raise ValueError(f"unknown scan order {order!r}")

    def match_pattern(self, pattern: TriplePattern) -> Iterator[Triple]:
        """Iterate triples matching a :class:`TriplePattern`."""
        return self.match(pattern.subject, pattern.predicate, pattern.object)

    def count(
        self,
        subject: PatternTerm | None = None,
        predicate: PatternTerm | None = None,
        object: PatternTerm | None = None,
    ) -> int:
        """Number of matching triples.

        Predicate-only counts come straight from the maintained statistics
        (O(1)); other shapes use the id indexes without decoding terms.
        """
        ids = self._encode_positions(subject, predicate, object)
        if ids is None:
            return 0
        s, p, o = ids
        repeated = _repeated_variable_check(subject, predicate, object)
        if repeated is not None:
            return sum(1 for __ in filter(repeated, self.match_ids(s, p, o)))
        return self.count_ids(s, p, o)

    def count_ids(self, s: int | None = None, p: int | None = None, o: int | None = None) -> int:
        """Number of matching id triples (no repeated-variable semantics).

        Statistics shapes are O(1); every other shape is a pair of binary
        searches per bound level rather than an iteration.
        """
        if s is not None:
            if p is not None:
                if o is not None:
                    return 1 if self._spo.contains((s, p, o)) else 0
                return self._spo.count_prefix((s, p))
            if o is not None:
                return self._osp.count_prefix((o, s))
            return self._spo.count_prefix((s,))
        if o is not None:
            if p is not None:
                return self._pos.count_prefix((p, o))
            return self._osp.count_prefix((o,))
        if p is not None:
            return self._predicate_counts.get(p, 0)
        return self._size

    def ask(
        self,
        subject: PatternTerm | None = None,
        predicate: PatternTerm | None = None,
        object: PatternTerm | None = None,
    ) -> bool:
        """True if at least one triple matches (SPARQL ASK on one pattern)."""
        ids = self._encode_positions(subject, predicate, object)
        if ids is None:
            return False
        s, p, o = ids
        iterator = self.match_ids(s, p, o)
        repeated = _repeated_variable_check(subject, predicate, object)
        if repeated is not None:
            iterator = filter(repeated, iterator)
        return next(iter(iterator), None) is not None

    def ask_ids(self, s: int | None = None, p: int | None = None, o: int | None = None) -> bool:
        """True if at least one id triple matches."""
        return next(iter(self.match_ids(s, p, o)), None) is not None

    # ----------------------------------------------------------- statistics

    def predicates(self) -> set[Term]:
        """All distinct predicates present in the store."""
        decode = self.dictionary.decode
        return {decode(p) for p in self._predicate_counts}

    def predicate_count(self, predicate: Term) -> int:
        p = self.dictionary.lookup(predicate)
        if p is None:
            return 0
        return self._predicate_counts.get(p, 0)

    def distinct_subjects(self, predicate: Term | None = None) -> int:
        if predicate is None:
            cached = self._stats_cache.get("distinct_subjects")
            if cached is None:
                cached = self._spo.distinct_firsts()
                self._stats_cache["distinct_subjects"] = cached
            return cached
        p = self.dictionary.lookup(predicate)
        if p is None:
            return 0
        return len(self._predicate_subjects.get(p, ()))

    def distinct_objects(self, predicate: Term | None = None) -> int:
        if predicate is None:
            cached = self._stats_cache.get("distinct_objects")
            if cached is None:
                cached = self._osp.distinct_firsts()
                self._stats_cache["distinct_objects"] = cached
            return cached
        p = self.dictionary.lookup(predicate)
        if p is None:
            return 0
        key = ("distinct_objects_of", p)
        cached = self._stats_cache.get(key)
        if cached is None:
            cached = self._pos.distinct_seconds(p)
            self._stats_cache[key] = cached
        return cached

    def subject_authorities(self, predicate: Term) -> set[str]:
        """Distinct IRI authorities of subjects of ``predicate``.

        This is the summary HiBISCuS-style source selection builds per
        endpoint.  It walks the incremental distinct-subject statistics,
        decoding each distinct subject exactly once.
        """
        p = self.dictionary.lookup(predicate)
        if p is None:
            return set()
        decode = self.dictionary.decode
        authorities = set()
        for s in self._predicate_subjects.get(p, ()):
            subject = decode(s)
            if isinstance(subject, IRI):
                authorities.add(subject.authority)
        return authorities

    def object_authorities(self, predicate: Term) -> set[str]:
        """Distinct IRI authorities of IRI-valued objects of ``predicate``."""
        p = self.dictionary.lookup(predicate)
        if p is None:
            return set()
        decode = self.dictionary.decode
        authorities = set()
        for o in self._pos.iter_distinct_seconds(p):
            obj = decode(o)
            if isinstance(obj, IRI):
                authorities.add(obj.authority)
        return authorities

    # -------------------------------------------------------------- storage

    def index_nbytes(self) -> int:
        """Bytes held by the three permutation indexes' columns."""
        return self._spo.nbytes() + self._pos.nbytes() + self._osp.nbytes()

    def clear(self) -> None:
        """Drop all triples.  The dictionary is kept: ids stay valid."""
        self._spo.clear()
        self._pos.clear()
        self._osp.clear()
        self._predicate_counts.clear()
        self._predicate_subjects.clear()
        self._size = 0
        self._bump()


def _repeated_variable_check(
    subject: PatternTerm | None,
    predicate: PatternTerm | None,
    object: PatternTerm | None,
) -> Callable[[IdTriple], bool] | None:
    """Consistency filter for patterns repeating a variable, or ``None``.

    Works directly on id triples: ``?x :p ?x`` only matches encoded
    triples whose subject id equals their object id.
    """
    s_var = subject if isinstance(subject, Variable) else None
    p_var = predicate if isinstance(predicate, Variable) else None
    o_var = object if isinstance(object, Variable) else None
    sp = s_var is not None and s_var == p_var
    so = s_var is not None and s_var == o_var
    po = p_var is not None and p_var == o_var
    if not (sp or so or po):
        return None

    def check(id_triple: IdTriple) -> bool:
        s, p, o = id_triple
        if sp and s != p:
            return False
        if so and s != o:
            return False
        if po and p != o:
            return False
        return True

    return check
