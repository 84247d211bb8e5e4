"""Characteristic-set statistics for a single endpoint's store.

Odyssey-style characteristic sets summarize a graph by grouping subjects
on the *set of predicates* they carry (extended here with the subject's
``rdf:type`` classes, as in Lothbrok's fragment summaries): the summary
records, per distinct predicate/class set, how many subjects share it,
plus per-predicate tallies (triple count, distinct subjects/objects, an
exact per-object histogram for low-cardinality predicates) and the
characteristic-*pair* coverage tables that answer check queries:

``os_pairs[(p1, p2)]``
    number of entities that appear as an *object* of ``p1`` and as a
    *subject* of ``p2`` (the path-join coverage table);
``oo_pairs[(p1, p2)]``
    number of entities appearing as objects of both predicates;
``subject_authorities[p] / object_authorities[p]``
    IRI authority -> number of distinct IRI subjects (objects) of ``p``
    with that authority, HiBISCuS's summary: two IRIs can only be equal
    when their authorities are, so a bound join need not send an IRI to
    an endpoint where no entity in that position shares its authority.

Every table but the histograms is a sum over entities of a function of
the entity's *class*: the sets of predicates naming it as subject and as
object, its classes and its IRI authority (how many triples carry each
predicate does not matter).  The build reads each entity's class
straight off the sorted SPO and OSP run columns (one merge, ascending by
entity id), counts the classes (a ledger-scale LUBM endpoint's 41k
entities fall into 13) and folds each class into the tables once,
weighted by its size (:func:`_fold`); the histograms come off the POS
predicate ranges.  Nothing per entity is kept.
:class:`CharsetMaintainer` keeps the summary current with a
recompute-on-threshold policy over the store's write journal: a few
writes re-fold only the entities they name, each entity's old class out
and its new class in (kept identical to a fresh rebuild by the property
tests); bulk loads and clears trigger a full recompute.

Everything in the summary is *exact at its pin*, the store state it
describes, which the maintainer moves forward as it refreshes the
summary in place; the provider layer
(:mod:`repro.planning.stats`) only makes pruning decisions that are
sound for exact summaries and falls back to remote probes otherwise.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import groupby, islice
from typing import TYPE_CHECKING

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import BNode, IRI, Literal, Term, Variable, is_concrete

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.sparql.ast import TriplePattern
    from repro.store.triple_store import StoreState, TripleStore

#: Predicates whose distinct-object count is at or below this keep an
#: exact per-object histogram, making ``(?s, p, o)`` estimates and
#: ``can_match`` verdicts exact (``rdf:type`` on every dataset we ship).
DEFAULT_OBJECT_HISTOGRAM_LIMIT = 256

#: :class:`CharsetMaintainer` rebuilds instead of re-folding once the
#: writes since its summary outnumber this share of the summary's triples.
REBUILD_RATIO = 0.25

#: Elements of a characteristic set: a predicate term, or a
#: ``("class", C)`` marker recording that the subject has rdf:type C.
Element = "Term | tuple[str, Term]"


def class_marker(cls: Term) -> tuple[str, Term]:
    return ("class", cls)


def _is_predicate(element) -> bool:
    return isinstance(element, Term)


@dataclass
class PredicateStats:
    """Per-predicate tallies; ``objects`` is the exact histogram or None."""

    count: int
    distinct_subjects: int
    distinct_objects: int
    objects: dict[Term, int] | None


class CharacteristicSets:
    """One endpoint's characteristic-set summary, exact at the store
    state ``pin``."""

    __slots__ = (
        "pin",
        "triples",
        "distinct_subjects",
        "distinct_objects",
        "predicates",
        "sets",
        "os_pairs",
        "oo_pairs",
        "subject_authorities",
        "object_authorities",
    )

    def __init__(
        self,
        pin: "StoreState",
        triples: int,
        distinct_subjects: int,
        distinct_objects: int,
        predicates: dict[Term, PredicateStats],
        sets: dict[frozenset, int],
        os_pairs: dict[tuple[Term, Term], int],
        oo_pairs: dict[tuple[Term, Term], int],
        subject_authorities: dict[Term, dict[str, int]],
        object_authorities: dict[Term, dict[str, int]],
    ):
        self.pin = pin
        self.triples = triples
        self.distinct_subjects = distinct_subjects
        self.distinct_objects = distinct_objects
        self.predicates = predicates
        self.sets = sets
        self.os_pairs = os_pairs
        self.oo_pairs = oo_pairs
        self.subject_authorities = subject_authorities
        self.object_authorities = object_authorities

    def __repr__(self) -> str:
        return (
            f"CharacteristicSets(version={self.pin.version}, triples={self.triples}, "
            f"predicates={len(self.predicates)}, sets={len(self.sets)})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CharacteristicSets):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    # ------------------------------------------------------- local queries

    def _repeated(self, pattern: "TriplePattern") -> bool:
        s, p, o = pattern.subject, pattern.predicate, pattern.object
        return (
            (isinstance(s, Variable) and (s == p or s == o))
            or (isinstance(p, Variable) and p == o)
        )

    def can_match(self, pattern: "TriplePattern") -> bool | None:
        """Exact triple-pattern matchability, or None when unprovable.

        A True/False answer here is equivalent to what an ASK probe would
        return against the store at this summary's pin; ``None``
        means the caller must fall back to the probe.
        """
        if self.triples == 0:
            return False
        if self._repeated(pattern):
            return None
        s, p, o = pattern.subject, pattern.predicate, pattern.object
        if is_concrete(p):
            stats = self.predicates.get(p)
            if stats is None or stats.count == 0:
                return False
            if is_concrete(s):
                return None
            if is_concrete(o):
                if stats.objects is not None:
                    return o in stats.objects
                return None
            return True
        if not is_concrete(s) and not is_concrete(o):
            return True
        return None

    def estimate_pattern(self, pattern: "TriplePattern") -> tuple[float, bool]:
        """(estimated matching triples, is_exact) for one pattern."""
        if self.triples == 0:
            return 0.0, True
        repeated = self._repeated(pattern)
        s, p, o = pattern.subject, pattern.predicate, pattern.object
        s_c, p_c, o_c = is_concrete(s), is_concrete(p), is_concrete(o)
        if p_c:
            stats = self.predicates.get(p)
            if stats is None:
                return 0.0, True
            if not s_c and not o_c:
                return float(stats.count), not repeated
            if o_c and not s_c:
                if stats.objects is not None:
                    return float(stats.objects.get(o, 0)), True
                return stats.count / max(1, stats.distinct_objects), False
            if s_c and not o_c:
                return stats.count / max(1, stats.distinct_subjects), False
            return 1.0, False
        if not s_c and not o_c:
            return float(self.triples), not repeated
        if s_c and not o_c:
            return self.triples / max(1, self.distinct_subjects), False
        if o_c and not s_c:
            return self.triples / max(1, self.distinct_objects), False
        return 1.0, False

    # -------------------------------------------------- charset coverage

    def charset_exists(self, required: frozenset, lacking=None) -> bool:
        """Is there a populated charset containing ``required`` (and, when
        ``lacking`` is given, *not* containing that element)?"""
        for charset, count in self.sets.items():
            if count <= 0 or not required <= charset:
                continue
            if lacking is None or lacking not in charset:
                return True
        return False

    def subjects_with(self, required: frozenset) -> int:
        """Number of subjects whose charset contains every required element."""
        return sum(
            count for charset, count in self.sets.items() if required <= charset
        )

    # ---------------------------------------------------------- equality

    def to_dict(self) -> dict:
        return {
            "version": self.pin.version,
            "triples": self.triples,
            "distinct_subjects": self.distinct_subjects,
            "distinct_objects": self.distinct_objects,
            "predicates": [
                [
                    _term_to_json(p),
                    stats.count,
                    stats.distinct_subjects,
                    stats.distinct_objects,
                    None
                    if stats.objects is None
                    else sorted(
                        ([_term_to_json(o), n] for o, n in stats.objects.items()),
                        key=lambda item: repr(item[0]),
                    ),
                ]
                for p, stats in sorted(
                    self.predicates.items(), key=lambda item: item[0].sort_key()
                )
            ],
            "sets": sorted(
                (
                    [sorted((_element_to_json(e) for e in charset), key=repr), count]
                    for charset, count in self.sets.items()
                ),
                key=lambda item: repr(item[0]),
            ),
            "os_pairs": _pairs_to_json(self.os_pairs),
            "oo_pairs": _pairs_to_json(self.oo_pairs),
            "subject_authorities": _authorities_to_json(self.subject_authorities),
            "object_authorities": _authorities_to_json(self.object_authorities),
        }

    def approx_bytes(self) -> int:
        """Deterministic size estimate used as the virtual response payload."""
        entries = (
            4 * len(self.predicates)
            + sum(len(stats.objects) for stats in self.predicates.values() if stats.objects)
            + sum(len(charset) + 1 for charset in self.sets)
            + 3 * (len(self.os_pairs) + len(self.oo_pairs))
            + sum(len(table) for table in self.subject_authorities.values())
            + sum(len(table) for table in self.object_authorities.values())
        )
        return 64 + 24 * entries


# ------------------------------------------------------------ term codec


def _term_to_json(term: Term) -> list:
    if isinstance(term, IRI):
        return ["i", term.value]
    if isinstance(term, Literal):
        return ["l", term.value, term.datatype, term.language]
    if isinstance(term, BNode):
        return ["b", term.label]
    raise TypeError(f"not a serializable term: {term!r}")


def _element_to_json(element) -> list:
    if _is_predicate(element):
        return _term_to_json(element)
    return ["c", _term_to_json(element[1])]


def _authorities_to_json(tables: dict[Term, dict[str, int]]) -> list:
    return [
        [_term_to_json(p), sorted([authority, n] for authority, n in table.items())]
        for p, table in sorted(tables.items(), key=lambda item: item[0].sort_key())
    ]


def _pairs_to_json(table: dict[tuple[Term, Term], int]) -> list:
    return sorted(
        ([_term_to_json(a), _term_to_json(b), n] for (a, b), n in table.items()),
        key=lambda item: (repr(item[0]), repr(item[1])),
    )


# ---------------------------------------------------------------- build

#: An entity class: ``(subject predicates, classes, object predicates,
#: authority)``.  The predicates are the ascending ids of those of the
#: triples naming the entity as subject and as object; ``classes`` the
#: ascending ids of its ``rdf:type`` objects; ``authority`` its IRI
#: authority, or None for a literal or blank node.  Every table of a
#: summary is a sum over entities of a function of the entity's class, so
#: entities of one class fold in together.
EntityKey = tuple


def build_charsets(
    store: "TripleStore",
    object_histogram_limit: int = DEFAULT_OBJECT_HISTOGRAM_LIMIT,
) -> CharacteristicSets:
    """Compute the full summary from the store's id-space columns: the
    object histograms off the POS predicate ranges, every other table
    folded from the entity classes (:func:`_entity_classes`)."""
    term = store.dictionary.decode
    summary = CharacteristicSets(
        pin=store.state,
        triples=len(store),
        distinct_subjects=0,
        distinct_objects=0,
        predicates=_predicate_stats(store, object_histogram_limit),
        sets={},
        os_pairs={},
        oo_pairs={},
        subject_authorities={},
        object_authorities={},
    )
    for key, count in _entity_classes(store).items():
        _fold(summary, key, count, term)
    return summary


def _predicate_stats(store: "TripleStore", limit: int) -> dict[Term, PredicateStats]:
    """Per-predicate triple counts and object histograms, ascending by
    predicate id, off the POS run; the distinct counts start at zero for
    :func:`_fold` to fill in."""
    term = store.dictionary.decode
    predicates, objects, __ = store.id_columns("pos")
    stats: dict[Term, PredicateStats] = {}
    lo, end = 0, len(predicates)
    while lo < end:
        hi = bisect_right(predicates, predicates[lo], lo)
        histogram = _histogram(islice(objects, lo, hi), limit, term)
        stats[term(predicates[lo])] = PredicateStats(hi - lo, 0, 0, histogram)
        lo = hi
    return stats


def _histogram(objects, limit: int, term) -> dict[Term, int] | None:
    """Object -> triples over one predicate's ascending object ids, or
    None once more than ``limit`` distinct objects show up."""
    histogram: dict[Term, int] = {}
    for o, run in groupby(objects):
        if len(histogram) == limit:
            return None
        histogram[term(o)] = sum(1 for __ in run)
    return histogram


def _entity_classes(store: "TripleStore") -> dict[EntityKey, int]:
    """Entity class -> number of entities in it, in first-entity order.

    One merge of the SPO run (each subject's predicates and classes)
    with the OSP run (each object's predicates), both ascending by
    entity id; an entity's predicates are read as one slice of its
    range, so the per-entity work is a few C-level calls.  Slices stay
    sorted tuples with repeats here, and lose their repeats once per
    distinct slice.
    """
    dictionary = store.dictionary
    decode = dictionary.decode
    type_id = dictionary.lookup(RDF_TYPE)
    subjects, subject_preds, subject_objects = store.id_columns("spo")
    objects, __, object_preds = store.id_columns("osp")
    s_end, o_end = len(subjects), len(objects)
    end = max(subjects[-1] if s_end else -1, objects[-1] if o_end else -1) + 1
    s_lo = o_lo = 0
    s = subjects[0] if s_end else end
    o = objects[0] if o_end else end
    raw: dict[tuple, int] = {}
    while s < end or o < end:
        entity = s if s < o else o
        preds = classes = incoming = ()
        if s == entity:
            s_hi = bisect_right(subjects, s, s_lo)
            preds = tuple(subject_preds[s_lo:s_hi])
            if type_id in preds:
                t_lo = bisect_left(subject_preds, type_id, s_lo, s_hi)
                t_hi = bisect_right(subject_preds, type_id, t_lo, s_hi)
                classes = tuple(subject_objects[t_lo:t_hi])
            s_lo = s_hi
            s = subjects[s_lo] if s_lo < s_end else end
        if o == entity:
            o_hi = bisect_right(objects, o, o_lo)
            incoming = tuple(sorted(object_preds[o_lo:o_hi]))
            o_lo = o_hi
            o = objects[o_lo] if o_lo < o_end else end
        value = decode(entity)
        key = (preds, classes, incoming, value.authority if isinstance(value, IRI) else None)
        raw[key] = raw.get(key, 0) + 1
    classes: dict[EntityKey, int] = {}
    for (preds, types, incoming, authority), count in raw.items():
        key = (_distinct(preds), types, _distinct(incoming), authority)
        classes[key] = classes.get(key, 0) + count
    return classes


def _distinct(ids) -> tuple[int, ...]:
    """The distinct ids of a sorted id sequence."""
    return tuple(key for key, __ in groupby(ids))


def _items(ids) -> tuple[tuple[int, int], ...]:
    """``(id, repeats)`` pairs of a sorted id sequence."""
    return tuple((key, sum(1 for __ in run)) for key, run in groupby(ids))


def _fold(
    summary: CharacteristicSets,
    key: EntityKey,
    m: int,
    term,
    subject_side: bool = True,
    object_side: bool = True,
) -> None:
    """Add ``m`` entities of class ``key`` to every entity-derived table
    of ``summary`` (a negative ``m`` takes them out); ``term`` decodes an
    id.  The build folds each class once with its size, maintenance an
    entity's old class at -1 and its new one at +1.  A side passed False
    is one the caller knows did not change: the tables of that side
    alone are left as they are, the subject-object tables are not."""
    subject_ids, classes, object_ids, authority = key
    subject_preds = [term(p) for p in subject_ids]
    object_preds = [term(p) for p in object_ids]
    predicates = summary.predicates
    if subject_side and subject_preds:
        summary.distinct_subjects += m
        charset = frozenset(subject_preds + [class_marker(term(c)) for c in classes])
        _bump(summary.sets, charset, m)
        for p in subject_preds:
            predicates[p].distinct_subjects += m
            if authority is not None:
                _bump_authority(summary.subject_authorities, p, authority, m)
    if object_side and object_preds:
        summary.distinct_objects += m
        for p in object_preds:
            predicates[p].distinct_objects += m
            if authority is not None:
                _bump_authority(summary.object_authorities, p, authority, m)
        _bump_products(summary.oo_pairs, object_preds, object_preds, m)
    _bump_products(summary.os_pairs, object_preds, subject_preds, m)


def _bump_products(table: dict, left: list, right: list, m: int) -> None:
    """Add ``m`` to ``table[(p1, p2)]`` for every predicate ``p1`` of
    ``left`` and ``p2`` of ``right``; a zeroed entry leaves."""
    for p1 in left:
        for p2 in right:
            key = (p1, p2)
            value = table.get(key, 0) + m
            if value:
                table[key] = value
            else:
                del table[key]


def _bump_authority(
    tables: dict[Term, dict[str, int]], predicate: Term, authority: str, delta: int
) -> None:
    """Count IRI entities of one authority in or out of ``predicate``'s
    authority table; an emptied table leaves, as a rebuild would not
    create it."""
    table = tables.setdefault(predicate, {})
    _bump(table, authority, delta)
    if not table:
        del tables[predicate]


def _bump(table: dict, key, delta: int) -> None:
    if not delta:
        return
    value = table.get(key, 0) + delta
    if value:
        table[key] = value
    else:
        table.pop(key, None)


# ---------------------------------------------------------- maintenance


class CharsetMaintainer:
    """Keeps one store's summary current.

    The summary pins the store state it describes; :meth:`summary`
    asks the store (:meth:`TripleStore.current`) whether it still holds
    and otherwise reconciles, in place, from the store's write journal
    (:meth:`TripleStore.writes_since`), whoever made the writes:

    - no write since the pin -> return the summary;
    - journalled writes, no more than the recompute threshold -> re-fold
      every entity they name: its class read from the store now, less
      the writes' net deltas, out; its class now in (exact, verified
      against fresh rebuilds by the property tests);
    - a bulk load or clear since, more writes than the journal or the
      threshold holds -> full rebuild from the id-space columns.

    Nothing per entity is kept between calls: the summary is the state.
    """

    def __init__(
        self,
        store: "TripleStore",
        object_histogram_limit: int = DEFAULT_OBJECT_HISTOGRAM_LIMIT,
        min_rebuild: int = 64,
    ):
        self._store = store
        self._histogram_limit = object_histogram_limit
        self._min_rebuild = min_rebuild
        self._summary: CharacteristicSets | None = None
        #: Rebuild/incremental counters, exposed for tests and metrics.
        self.rebuilds = 0
        self.incremental_updates = 0

    # ----------------------------------------------------------- summary

    def summary(self) -> CharacteristicSets:
        store = self._store
        summary = self._summary
        if summary is not None and store.current(summary.pin):
            return summary
        writes = None if summary is None else store.writes_since(summary.pin)
        if writes is None or len(writes) > max(
            self._min_rebuild, int(REBUILD_RATIO * summary.triples)
        ):
            self._summary = build_charsets(store, self._histogram_limit)
            self.rebuilds += 1
        else:
            self._apply_deltas(writes)
        return self._summary

    # ------------------------------------------------------- incremental

    def _apply_deltas(self, writes: list[tuple[int, int, int, int, int]]) -> None:
        summary = self._summary
        assert summary is not None
        store = self._store
        dictionary = store.dictionary
        lookup, term = dictionary.lookup, dictionary.decode
        type_id = lookup(RDF_TYPE)
        predicates = summary.predicates
        #: entity id -> net deltas of its (subject items, classes, object
        #: items), each ``id -> change``, in first-delta order.
        entities: dict[int, tuple[dict, dict, dict]] = {}
        touched: dict[Term, None] = {}
        for __, sign, s, p_id, o in writes:
            p = term(p_id)
            touched[p] = None
            # Histogram update (exact while it stays under the width limit).
            stats = predicates.get(p)
            if stats is not None and stats.objects is not None:
                histogram = stats.objects
                _bump(histogram, term(o), sign)
                if len(histogram) > self._histogram_limit:
                    stats.objects = None
            subject = entities.setdefault(s, ({}, {}, {}))
            subject[0][p_id] = subject[0].get(p_id, 0) + sign
            if p_id == type_id:
                subject[1][o] = subject[1].get(o, 0) + sign
            incoming = entities.setdefault(o, ({}, {}, {}))[2]
            incoming[p_id] = incoming.get(p_id, 0) + sign
            self.incremental_updates += 1
        for p in touched:
            p_id = lookup(p)
            if p not in predicates and store.count_ids(None, p_id):
                # Newly appeared: histogram it directly; folds count the rest.
                objects = (o for __, __, o in store.match_ids(None, p_id))
                histogram = _histogram(objects, self._histogram_limit, term)
                predicates[p] = PredicateStats(0, 0, 0, histogram)
        predicate_ids = store.predicate_ids()
        for entity, (subject_delta, class_delta, object_delta) in entities.items():
            subject_items, classes, object_items, authority = _entity_items(
                store, entity, type_id, predicate_ids
            )
            new = (_keys(subject_items), classes, _keys(object_items), authority)
            old = (
                _keys(_minus(subject_items, subject_delta)),
                _keys(_minus([(c, 1) for c in classes], class_delta)),
                _keys(_minus(object_items, object_delta)),
                authority,
            )
            sides = (old[:2] != new[:2], old[2] != new[2])
            if any(sides):
                _fold(summary, old, -1, term, *sides)
                _fold(summary, new, 1, term, *sides)
        for p in touched:
            count = store.predicate_count(p)
            if count:
                predicates[p].count = count
            else:
                predicates.pop(p, None)
        summary.triples = len(store)
        summary.pin = store.state


def _entity_items(
    store: "TripleStore", entity: int, type_id: int | None, predicate_ids: list[int]
) -> tuple:
    """One entity's class read from the store, each predicate with its
    triples (``(predicate id, triples)`` items: what a write's deltas are
    subtracted from): its SPO prefix, and one POS range count per
    predicate (an entity many triples point at, a class say, is not
    scanned)."""
    rows = list(store.match_ids(entity))
    value = store.dictionary.decode(entity)
    return (
        _items([p for __, p, __ in rows]),
        tuple(o for __, p, o in rows if p == type_id),
        tuple(
            (p, n) for p in predicate_ids if (n := store.count_ids(None, p, entity))
        ),
        value.authority if isinstance(value, IRI) else None,
    )


def _minus(items, delta: dict[int, int]) -> tuple[tuple[int, int], ...]:
    """``items`` less the net ``delta`` per id, ascending, zeros dropped."""
    counts = dict(items)
    for key, change in delta.items():
        counts[key] = counts.get(key, 0) - change
    return tuple(sorted((key, n) for key, n in counts.items() if n))


def _keys(items) -> tuple[int, ...]:
    """The ids of ``(id, count)`` items."""
    return tuple(key for key, __ in items)
