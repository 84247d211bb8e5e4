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
which is what the compiled plans' intersect steps walk, and bulk loads
build each permutation with one sort of packed integer keys instead of
per-row index maintenance.  The plans' membership tests read
:meth:`TripleStore.member_set`: one third-position range as a ``set``,
built on first use and kept until the next write.

The public API still speaks :class:`~repro.rdf.terms.Term`; the id-space
surface (``match_ids`` / ``count_ids`` / ``scan_ids`` and
the ``dictionary`` attribute) is what the SPARQL evaluator runs on.
Terms are decoded back only when a caller asks for
:class:`~repro.rdf.triple.Triple` objects.

Every write replaces the store's :class:`StoreState`.  Whatever is
derived from a store pins the state it was derived at and asks
:meth:`TripleStore.current` whether it still holds: the one validity
rule.  The store keeps the version of the last write per predicate and
per ``rdf:type`` class (:meth:`TripleStore.last_write`), and an answer
reads only triples matching its patterns, so it stays current while no
later write could match them.  A pin from another store is never
current, whatever its version.  Single writes are also journalled
(:meth:`TripleStore.writes_since`) for the charset summaries to fold in.

Per-predicate statistics (triple counts, distinct subjects) are maintained
incrementally.  The paper notes that "cardinality statistics per
predicate are usually collected by RDF engines for their runtime query
optimization" — SAPE's COUNT probe queries and SPLENDID's VoID index both
read these numbers.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from collections import Counter, deque
from typing import Callable, Iterable, Iterator, Sequence

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import IRI, PatternTerm, Term, Variable
from repro.rdf.triple import Triple, TriplePattern
from repro.store.dictionary import TermDictionary
from repro.store.sorted_runs import SortedRunIndex, pack, unpack

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

#: Single writes the journal keeps (:meth:`TripleStore.writes_since`); a
#: consumer pinned before the oldest starts over.
JOURNAL_LIMIT = 1 << 15

#: The member-set memo (:meth:`TripleStore.member_set`) is cleared once
#: the sets it holds would exceed this many ids in all (~64 bytes each):
#: a plain clear, like the plans' match memos, keeps the lookup cheap.
#: A 118k-triple LUBM endpoint holds ~60k ids after the ledger's lubm_crossing queries.
MEMBER_SET_ID_LIMIT = 1 << 18


class StoreState:
    """One store at one version: the pin a store-derived value holds.

    ``lineage`` is shared by the states of one store and by no other
    store's.  A state refers to neither the store nor its memos, so a
    stale pin keeps nothing of a retired version alive.
    """

    __slots__ = ("lineage", "version")

    def __init__(self, lineage: object, version: int):
        self.lineage = lineage
        self.version = version


class _Memos:
    """What the store derives for one state: member sets (with the ids
    they hold) and :meth:`TripleStore.memo` values."""

    __slots__ = ("state", "member_sets", "member_ids", "values")

    def __init__(self, state: StoreState):
        self.state = state
        self.member_sets: dict[tuple[int, int, int], set[int]] = {}
        self.member_ids = 0
        self.values: dict = {}


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
        self._lineage = object()
        #: The store's current :class:`StoreState`; every write replaces
        #: it.  A value derived from the store pins the state it was
        #: derived at, and :meth:`current` says whether it still holds.
        self.state = StoreState(self._lineage, 0)
        # The version of the last write per predicate id and per
        # rdf:type class id, and the version of the last write that
        # retired everything (a bulk load into an empty store, a clear):
        # what last_write reads.
        self._predicate_writes: dict[int, int] = {}
        self._class_writes: dict[int, int] = {}
        self._retired = 0
        # The last single writes, (version, sign, s, p, o), oldest first;
        # a bulk load or a clear empties it.
        self._journal: deque[tuple[int, int, int, int, int]] = deque(maxlen=JOURNAL_LIMIT)
        self._predicate_counts: Counter[int] = Counter()
        # Incremental distinct-subject statistics: predicate id ->
        # {subject id: number of triples with that (subject, predicate)}.
        # distinct_subjects(p) is then an O(1) len() instead of the full
        # SPO scan it used to be.
        self._predicate_subjects: dict[int, Counter[int]] = {}
        self._memos = _Memos(self.state)
        #: Member sets built and the ids put in them, cumulative over
        #: the store's lifetime (:meth:`Endpoint.member_stats`).
        self.member_sets_built = 0
        self.member_ids_built = 0

    @property
    def version(self) -> int:
        """Writes so far.  It names a state only within this store: ask
        :meth:`current`, do not compare it."""
        return self.state.version

    def _bump(self) -> None:
        self.state = StoreState(self._lineage, self.state.version + 1)

    def _current_memos(self) -> _Memos:
        memos = self._memos
        if memos.state is not self.state:
            memos = self._memos = _Memos(self.state)
        return memos

    def _note_write(self, p: int, o: int) -> None:
        """Record a write of ``(?, p, o)`` at the current version."""
        self._predicate_writes[p] = self.version
        if p == self._type_id():
            self._class_writes[o] = self.version

    def _type_id(self) -> int | None:
        """The id of ``rdf:type``, or None while the dictionary lacks it."""
        return self.dictionary.lookup(RDF_TYPE)

    def last_write(self, patterns: Iterable[TriplePattern] | None) -> int:
        """The version of the last write any of ``patterns`` could match.

        A constant predicate reads its own last write, and ``rdf:type``
        with a constant class reads that class's; a variable predicate,
        or ``patterns`` None (a query shape whose patterns are not
        known), reads :attr:`version`.  A pattern with a constant the
        dictionary does not know matches no triple ever written, so it
        reads 0.  An answer computed from ``patterns`` at version ``v``
        is still this store's answer while ``last_write(patterns) <= v``.
        """
        if patterns is None:
            return self.version
        latest = 0
        lookup = self.dictionary.lookup
        type_id = self._type_id()
        predicate_writes = self._predicate_writes
        for pattern in patterns:
            predicate = pattern.predicate
            if isinstance(predicate, Variable):
                return self.version
            p = lookup(predicate)
            if p is None:
                continue
            obj = pattern.object
            o = None
            if not isinstance(obj, Variable):
                o = lookup(obj)
                if o is None:
                    continue
            subject = pattern.subject
            if not isinstance(subject, Variable) and lookup(subject) is None:
                continue
            if p == type_id and o is not None:
                written = self._class_writes.get(o, 0)
            else:
                written = predicate_writes.get(p, 0)
            latest = max(latest, written, self._retired)
        return latest

    def current(self, pin: StoreState, patterns: Iterable[TriplePattern] | None = None) -> bool:
        """True when ``pin`` is a state of this store and no write since
        it could match ``patterns`` (None: any write retires it): the one
        check every holder of store-derived state makes."""
        if pin is self.state:
            return True
        return pin.lineage is self._lineage and self.last_write(patterns) <= pin.version

    def writes_since(self, pin: StoreState) -> list[tuple[int, int, int, int, int]] | None:
        """The writes after ``pin``, oldest first, as ``(version, sign, s,
        p, o)`` id rows (sign 1 an add, -1 a remove); None when the
        journal does not hold them all: ``pin`` is another store's, or a
        bulk load, a clear or more than :data:`JOURNAL_LIMIT` writes came
        since."""
        journal = self._journal
        oldest = journal[0][0] if journal else self.version + 1
        if pin.lineage is not self._lineage or pin.version + 1 < oldest:
            return None
        return [write for write in journal if write[0] > pin.version]

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
        self._note_write(p, o)
        self._journal.append((self.version, 1, s, p, o))
        self._predicate_counts[p] += 1
        subjects = self._predicate_subjects.get(p)
        if subjects is None:
            subjects = self._predicate_subjects[p] = Counter()
        subjects[s] += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        """Insert many triples; returns how many were new.

        The bulk-load path, one pass over ``triples`` (a generator streams
        straight in): each triple is encoded subject, predicate, object —
        the order :meth:`add` encodes in, so ids do not depend on the
        path — into three id columns.  Each row then becomes one packed
        key (:func:`~repro.store.sorted_runs.pack`) at the dictionary's id
        width after encoding, exact at any size; the keys are deduplicated
        and sorted once per permutation and unpacked into that
        permutation's columns.  No row is ever a tuple: what set-up frees
        is where a round's first small objects land
        (``docs/architecture.md``, "Collector").
        """
        width, keys = self._encoded_keys(triples)
        loaded = bool(self._size)
        if loaded:
            keys.difference_update(pack(*self._spo.columns(), width))
        if not keys:
            return 0
        s, p, o = unpack(sorted(keys), width)
        del keys  # before the other two permutations' keys exist
        pos = unpack(sorted(pack(p, o, s, width)), width)
        osp = unpack(sorted(pack(o, s, p, width)), width)
        self._spo.bulk_insert(s, p, o)
        self._pos.bulk_insert(*pos)
        self._osp.bulk_insert(*osp)
        # Counted in SPO order, so predicates are met in the order the
        # per-row path would meet them.
        self._predicate_counts.update(p)
        self._size += len(s)
        self._bump()
        self._journal.clear()
        if not loaded:
            # A load into an empty store retires every earlier answer.
            self._retired = self.version
        self._note_load(*pos, loaded)
        return len(s)

    def _encoded_keys(self, triples: Iterable[Triple]) -> tuple[int, set[int]]:
        """``(width, packed keys)`` of ``triples``, encoded in subject,
        predicate, object order; ``width`` is the dictionary's id width
        after encoding them."""
        encode = self.dictionary.encode
        subjects, predicates, objects = array("q"), array("q"), array("q")
        add_s, add_p, add_o = subjects.append, predicates.append, objects.append
        for triple in triples:
            add_s(encode(triple.subject))
            add_p(encode(triple.predicate))
            add_o(encode(triple.object))
        width = len(self.dictionary).bit_length()
        return width, set(pack(subjects, predicates, objects, width))

    def _note_load(self, predicates: array, objects: array, subjects: array, loaded: bool) -> None:
        """Fold the POS-sorted columns of freshly loaded rows into the
        per-predicate subject counts, one predicate range at a time; into
        a ``loaded`` store they are writes, noted like :meth:`add`'s."""
        subjects_by_predicate = self._predicate_subjects
        type_id = self._type_id()
        version = self.version
        # Counter keys are the dictionary's ints, not one fresh int per key.
        shared = self.dictionary.id_objects()
        lo, end = 0, len(predicates)
        while lo < end:
            p = predicates[lo]
            hi = bisect_right(predicates, p, lo)
            run = map(shared.__getitem__, subjects[lo:hi])
            counts = subjects_by_predicate.get(p)
            if counts is None:
                subjects_by_predicate[p] = Counter(run)
            else:
                counts.update(run)
            if loaded:
                self._predicate_writes[p] = version
                if p == type_id:
                    for o in objects[lo:hi]:
                        self._class_writes[o] = version
            lo = hi

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
        self._note_write(p, o)
        self._journal.append((self.version, -1, s, p, o))
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
        prefix has no pending writes (:meth:`SortedRunIndex.third_range`),
        so walking it is one slice."""
        return self._pos.third_range(p, o)

    def object_range(self, p: int, s: int) -> tuple[Sequence[int], int, int]:
        """Like :meth:`subject_range`, for the objects of ``(s, p, ?)`` on SPO."""
        return self._spo.third_range(s, p)

    def member_set(self, position: int, p: int, key: int) -> set[int]:
        """The ids of one third-position range as a ``set``: the subjects
        of ``(?, p, key)`` (``position`` 0) or the objects of
        ``(key, p, ?)`` (``position`` 2).

        The compiled plans' membership test.  A set is built on first use
        and kept while the store's state is current, so every plan on it shares
        it; past :data:`MEMBER_SET_ID_LIMIT` ids in all the memo starts
        over.  Callers must not mutate the set.
        """
        memos = self._memos
        if memos.state is not self.state:
            memos = self._current_memos()
        memo_key = (position, p, key)
        found = memos.member_sets.get(memo_key)
        if found is None:
            lookup = self.subject_range if position == 0 else self.object_range
            values, lo, hi = lookup(p, key)
            found = set(values[lo:hi])
            if memos.member_ids + len(found) > MEMBER_SET_ID_LIMIT:
                memos.member_sets.clear()
                memos.member_ids = 0
            memos.member_sets[memo_key] = found
            memos.member_ids += len(found)
            self.member_sets_built += 1
            self.member_ids_built += len(found)
        return found

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

    def id_columns(self, order: str) -> tuple[Sequence[int], Sequence[int], Sequence[int]]:
        """The three id columns of every row, sorted by a permutation.

        ``order`` is one of ``"spo"``, ``"pos"``, ``"osp"``; the columns
        are in that permutation's position order (``"osp"`` gives object,
        subject, predicate), read-only, and the run's own columns when
        the index has no pending writes
        (:meth:`~repro.store.sorted_runs.SortedRunIndex.columns`).
        """
        index = {"spo": self._spo, "pos": self._pos, "osp": self._osp}.get(order)
        if index is None:
            raise ValueError(f"unknown scan order {order!r}")
        return index.columns()

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

    # ----------------------------------------------------------- statistics

    def predicates(self) -> set[Term]:
        """All distinct predicates present in the store."""
        decode = self.dictionary.decode
        return {decode(p) for p in self._predicate_counts}

    def predicate_ids(self) -> list[int]:
        """The ids of the store's predicates, ascending."""
        return sorted(self._predicate_counts)

    def predicate_count(self, predicate: Term) -> int:
        p = self.dictionary.lookup(predicate)
        if p is None:
            return 0
        return self._predicate_counts.get(p, 0)

    def memo(self, key, build: Callable[[], object]):
        """``build()``, kept under ``key`` while the store's state is
        current: a derived value of the whole store at this state."""
        values = self._current_memos().values
        value = values.get(key)
        if value is None:
            value = values[key] = build()
        return value

    def distinct_subjects(self, predicate: Term | None = None) -> int:
        if predicate is None:
            return self.memo("distinct_subjects", self._spo.distinct_firsts)
        p = self.dictionary.lookup(predicate)
        if p is None:
            return 0
        return len(self._predicate_subjects.get(p, ()))

    def distinct_objects(self, predicate: Term | None = None) -> int:
        if predicate is None:
            return self.memo("distinct_objects", self._osp.distinct_firsts)
        p = self.dictionary.lookup(predicate)
        if p is None:
            return 0
        return self.memo(("distinct_objects_of", p), lambda: self._pos.distinct_seconds(p))

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
        self._journal.clear()
        self._predicate_writes.clear()
        self._class_writes.clear()
        self._retired = self.version


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
