"""Characteristic-set statistics for a single endpoint's store.

Odyssey-style characteristic sets summarize a graph by grouping subjects
on the *set of predicates* they carry (extended here with the subject's
``rdf:type`` classes, as in Lothbrok's fragment summaries): the summary
records, per distinct predicate/class set, how many subjects share it,
plus per-predicate tallies (triple count, distinct subjects/objects, an
exact per-object histogram for low-cardinality predicates) and the
characteristic-*pair* tables that power join fan-out estimation and
check-query answering:

``os_pairs[(p1, p2)]``
    number of entities that appear as an *object* of ``p1`` and as a
    *subject* of ``p2`` (the path-join coverage table);
``oo_pairs[(p1, p2)]``
    number of entities appearing as objects of both predicates;
``ss_rows / os_rows / oo_rows``
    exact two-pattern join row counts ``sum_e c(e, p1) * c(e, p2)``
    where ``c`` counts the entity's triples in the respective role
    (the predicate-pair join fan-outs);
``subject_authorities[p] / object_authorities[p]``
    IRI authority -> number of distinct IRI subjects (objects) of ``p``
    with that authority, HiBISCuS's summary: two IRIs can only be equal
    when their authorities are, so a bound join need not send an IRI to
    an endpoint where no entity in that position shares its authority.

The summary is computed from the id-space sorted-run columns (three
``scan_ids`` permutation passes, grouping in id space and decoding each
id once) and is incrementally maintained by
:class:`CharsetMaintainer` under the store's
``version`` counter with a recompute-on-threshold delta policy: small
deltas recorded through the owning endpoint are applied in place (kept
provably identical to a fresh rebuild by the property tests), bulk loads
and out-of-band store mutations trigger a full recompute.

Everything in the summary is *exact at its version*; the provider layer
(:mod:`repro.planning.stats`) only makes pruning decisions that are
sound for exact summaries and falls back to remote probes otherwise.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import BNode, IRI, Literal, Term, Variable, is_concrete

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.rdf.triples import Triple
    from repro.sparql.ast import TriplePattern
    from repro.store.triple_store import TripleStore

#: Predicates whose distinct-object count is at or below this keep an
#: exact per-object histogram, making ``(?s, p, o)`` estimates and
#: ``can_match`` verdicts exact (``rdf:type`` on every dataset we ship).
DEFAULT_OBJECT_HISTOGRAM_LIMIT = 256

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

    def copy(self) -> "PredicateStats":
        return PredicateStats(
            self.count,
            self.distinct_subjects,
            self.distinct_objects,
            dict(self.objects) if self.objects is not None else None,
        )


class CharacteristicSets:
    """One endpoint's characteristic-set summary, exact at ``version``."""

    __slots__ = (
        "version",
        "triples",
        "distinct_subjects",
        "distinct_objects",
        "predicates",
        "sets",
        "os_pairs",
        "oo_pairs",
        "ss_rows",
        "os_rows",
        "oo_rows",
        "subject_authorities",
        "object_authorities",
    )

    def __init__(
        self,
        version: int,
        triples: int,
        distinct_subjects: int,
        distinct_objects: int,
        predicates: dict[Term, PredicateStats],
        sets: dict[frozenset, int],
        os_pairs: dict[tuple[Term, Term], int],
        oo_pairs: dict[tuple[Term, Term], int],
        ss_rows: dict[tuple[Term, Term], int],
        os_rows: dict[tuple[Term, Term], int],
        oo_rows: dict[tuple[Term, Term], int],
        subject_authorities: dict[Term, dict[str, int]],
        object_authorities: dict[Term, dict[str, int]],
    ):
        self.version = version
        self.triples = triples
        self.distinct_subjects = distinct_subjects
        self.distinct_objects = distinct_objects
        self.predicates = predicates
        self.sets = sets
        self.os_pairs = os_pairs
        self.oo_pairs = oo_pairs
        self.ss_rows = ss_rows
        self.os_rows = os_rows
        self.oo_rows = oo_rows
        self.subject_authorities = subject_authorities
        self.object_authorities = object_authorities

    def __repr__(self) -> str:
        return (
            f"CharacteristicSets(version={self.version}, triples={self.triples}, "
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
        return against the store at this summary's version; ``None``
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
            "version": self.version,
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
            "ss_rows": _pairs_to_json(self.ss_rows),
            "os_rows": _pairs_to_json(self.os_rows),
            "oo_rows": _pairs_to_json(self.oo_rows),
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
            + 3 * (len(self.ss_rows) + len(self.os_rows) + len(self.oo_rows))
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


def build_charsets(
    store: "TripleStore",
    object_histogram_limit: int = DEFAULT_OBJECT_HISTOGRAM_LIMIT,
) -> CharacteristicSets:
    """Compute the full summary from the store's id-space columns."""
    return _build(store, object_histogram_limit)[0]


def _build(
    store: "TripleStore", object_histogram_limit: int
) -> tuple[CharacteristicSets, dict[int, Counter], dict[int, Counter]]:
    """The summary plus the two id-keyed entity maps it was folded from
    (subject id -> Counter of predicate ids and ``("c", class id)``
    markers, object id -> Counter of predicate ids), which
    :class:`CharsetMaintainer` keeps as its working state."""
    dictionary = store.dictionary
    decode = dictionary.decode
    decoded: dict[int, Term] = {}

    def term(term_id: int) -> Term:
        cached = decoded.get(term_id)
        if cached is None:
            cached = decoded[term_id] = decode(term_id)
        return cached

    type_id = dictionary.lookup(RDF_TYPE)

    # Pass 1 (spo order): subject-grouped predicate/class multisets.
    subj: dict[int, Counter] = {}
    for s, p, o in store.scan_ids("spo"):
        counter = subj.get(s)
        if counter is None:
            counter = subj[s] = Counter()
        counter[p] += 1
        if p == type_id:
            counter[("c", o)] += 1

    # Pass 2 (pos order): per-predicate exact object histograms.
    histograms: dict[int, dict[int, int] | None] = {}
    for s, p, o in store.scan_ids("pos"):
        histogram = histograms.get(p, _ABSENT)
        if histogram is None:
            continue
        if histogram is _ABSENT:
            histogram = histograms[p] = {}
        histogram[o] = histogram.get(o, 0) + 1
        if len(histogram) > object_histogram_limit:
            histograms[p] = None

    # Pass 3 (osp order): object-grouped predicate multisets.
    obj: dict[int, Counter] = {}
    for s, p, o in store.scan_ids("osp"):
        counter = obj.get(o)
        if counter is None:
            counter = obj[o] = Counter()
        counter[p] += 1

    sets: dict[frozenset, int] = {}
    for counter in subj.values():
        charset = _charset(counter, term)
        sets[charset] = sets.get(charset, 0) + 1

    os_pairs: dict[tuple[Term, Term], int] = {}
    oo_pairs: dict[tuple[Term, Term], int] = {}
    ss_rows: dict[tuple[Term, Term], int] = {}
    os_rows: dict[tuple[Term, Term], int] = {}
    oo_rows: dict[tuple[Term, Term], int] = {}
    #: (predicate id, authority) -> distinct IRI subjects / objects.
    subject_authorities: dict[tuple[int, str], int] = {}
    object_authorities: dict[tuple[int, str], int] = {}
    for entity in subj.keys() | obj.keys():
        subject_counter = subj.get(entity, _EMPTY)
        object_counter = obj.get(entity, _EMPTY)
        subject_preds = [
            (term(p), n) for p, n in subject_counter.items() if not isinstance(p, tuple)
        ]
        object_preds = [(term(p), n) for p, n in object_counter.items()]
        value = decode(entity)
        if isinstance(value, IRI):
            authority = value.authority
            for p in subject_counter:
                if not isinstance(p, tuple):
                    key = (p, authority)
                    subject_authorities[key] = subject_authorities.get(key, 0) + 1
            for p in object_counter:
                key = (p, authority)
                object_authorities[key] = object_authorities.get(key, 0) + 1
        for p1, n1 in subject_preds:
            for p2, n2 in subject_preds:
                key = (p1, p2)
                ss_rows[key] = ss_rows.get(key, 0) + n1 * n2
        for p1, n1 in object_preds:
            for p2, n2 in subject_preds:
                key = (p1, p2)
                os_pairs[key] = os_pairs.get(key, 0) + 1
                os_rows[key] = os_rows.get(key, 0) + n1 * n2
            for p2, n2 in object_preds:
                key = (p1, p2)
                oo_pairs[key] = oo_pairs.get(key, 0) + 1
                oo_rows[key] = oo_rows.get(key, 0) + n1 * n2

    predicates: dict[Term, PredicateStats] = {}
    for p_id, histogram in histograms.items():
        predicate = term(p_id)
        predicates[predicate] = PredicateStats(
            count=store.predicate_count(predicate),
            distinct_subjects=store.distinct_subjects(predicate),
            distinct_objects=store.distinct_objects(predicate),
            objects=None
            if histogram is None
            else {term(o): n for o, n in histogram.items()},
        )

    summary = CharacteristicSets(
        version=store.version,
        triples=len(store),
        distinct_subjects=store.distinct_subjects(),
        distinct_objects=store.distinct_objects(),
        predicates=predicates,
        sets=sets,
        os_pairs=os_pairs,
        oo_pairs=oo_pairs,
        ss_rows=ss_rows,
        os_rows=os_rows,
        oo_rows=oo_rows,
        subject_authorities=_authority_tables(subject_authorities, term),
        object_authorities=_authority_tables(object_authorities, term),
    )
    return summary, subj, obj


def _authority_tables(
    counts: dict[tuple[int, str], int], term
) -> dict[Term, dict[str, int]]:
    """Per-predicate authority tables from ``(predicate id, authority)``
    counts; ``term`` decodes an id."""
    tables: dict[Term, dict[str, int]] = {}
    for (p_id, authority), n in counts.items():
        tables.setdefault(term(p_id), {})[authority] = n
    return tables


def _charset(counter: Counter, term) -> frozenset:
    """The term-space characteristic set of one subject's id-keyed
    counter; ``term`` decodes an id."""
    return frozenset(
        class_marker(term(e[1])) if isinstance(e, tuple) else term(e) for e in counter
    )


_ABSENT = object()
_EMPTY: Counter = Counter()


# ---------------------------------------------------------- maintenance


class CharsetMaintainer:
    """Keeps one store's summary current under its ``version`` counter.

    The owning endpoint records term-level deltas through
    :meth:`record_add` / :meth:`record_remove` (and :meth:`record_bulk`
    for batch loads).  :meth:`summary` then reconciles:

    - version already matches -> return the cached summary;
    - few recorded deltas covering the whole version gap -> apply them
      incrementally (entity-level working maps make every table update
      exact, verified against fresh rebuilds by the property tests);
    - bulk loads, more deltas than the recompute threshold, or any
      out-of-band store mutation (version advanced without a recorded
      delta) -> full rebuild from the id-space columns.
    """

    def __init__(
        self,
        store: "TripleStore",
        object_histogram_limit: int = DEFAULT_OBJECT_HISTOGRAM_LIMIT,
        rebuild_ratio: float = 0.25,
        min_rebuild: int = 64,
    ):
        self._store = store
        self._histogram_limit = object_histogram_limit
        self._rebuild_ratio = rebuild_ratio
        self._min_rebuild = min_rebuild
        self._summary: CharacteristicSets | None = None
        self._deltas: list[tuple[int, "Triple"]] = []
        self._known_version = -1
        self._force_rebuild = False
        #: Working entity maps for incremental updates, in the store's id
        #: space as :func:`_build` leaves them: subject -> Counter of
        #: elements, object -> Counter of predicates.
        self._subj: dict[int, Counter] | None = None
        self._obj: dict[int, Counter] | None = None
        #: Rebuild/incremental counters, exposed for tests and metrics.
        self.rebuilds = 0
        self.incremental_updates = 0

    # ------------------------------------------------------- delta intake

    def record_add(self, triple: "Triple") -> None:
        self._record(1, triple)

    def record_remove(self, triple: "Triple") -> None:
        self._record(-1, triple)

    def record_bulk(self) -> None:
        """A batch load happened: always recompute on next access."""
        self._force_rebuild = True
        self._deltas.clear()
        self._known_version = self._store.version

    def _record(self, sign: int, triple: "Triple") -> None:
        if self._summary is None:
            # Nothing built yet; the first summary() builds from scratch.
            self._known_version = self._store.version
            return
        self._deltas.append((sign, triple))
        self._known_version = self._store.version

    # ----------------------------------------------------------- summary

    def summary(self) -> CharacteristicSets:
        store = self._store
        current = store.version
        summary = self._summary
        if summary is not None and summary.version == current and not self._force_rebuild:
            return summary
        threshold = (
            0
            if summary is None
            else max(self._min_rebuild, int(self._rebuild_ratio * summary.triples))
        )
        if (
            summary is None
            or self._force_rebuild
            or self._known_version != current
            or len(self._deltas) > threshold
        ):
            self._rebuild()
        else:
            self._apply_deltas()
        self._deltas.clear()
        self._force_rebuild = False
        self._known_version = current
        assert self._summary is not None
        return self._summary

    def _rebuild(self) -> None:
        self._summary, self._subj, self._obj = _build(self._store, self._histogram_limit)
        self.rebuilds += 1

    # ------------------------------------------------------- incremental

    def _apply_deltas(self) -> None:
        summary = self._summary
        assert summary is not None and self._subj is not None and self._obj is not None
        store = self._store
        #: touched predicate -> net change in its distinct objects.
        touched: dict[Term, int] = {}
        for sign, triple in self._deltas:
            self._apply_one(sign, triple, touched)
            self.incremental_updates += 1
        # The store maintains the per-predicate triple and subject tallies
        # exactly; distinct objects it would have to re-scan a permutation
        # for, and the entity maps already hold them.  Only touched
        # predicates change.
        for predicate, objects_delta in touched.items():
            count = store.predicate_count(predicate)
            if count == 0:
                summary.predicates.pop(predicate, None)
                continue
            stats = summary.predicates.get(predicate)
            if stats is None:
                # Predicate newly appeared: count and histogram it directly.
                distinct_objects = store.distinct_objects(predicate)
                histogram = self._histogram_for(predicate)
            else:
                distinct_objects = stats.distinct_objects + objects_delta
                histogram = stats.objects
            summary.predicates[predicate] = PredicateStats(
                count=count,
                distinct_subjects=store.distinct_subjects(predicate),
                distinct_objects=distinct_objects,
                objects=histogram,
            )
        summary.triples = len(store)
        # An emptied entity leaves its map, so the maps' sizes are the counts.
        summary.distinct_subjects = len(self._subj)
        summary.distinct_objects = len(self._obj)
        summary.version = store.version

    def _histogram_for(self, predicate: Term) -> dict[Term, int] | None:
        store = self._store
        p_id = store.dictionary.lookup(predicate)
        if p_id is None:
            return {}
        histogram: dict[int, int] = {}
        for __, __, o in store.match_ids(None, p_id, None):
            histogram[o] = histogram.get(o, 0) + 1
            if len(histogram) > self._histogram_limit:
                return None
        decode = store.dictionary.decode
        return {decode(o): n for o, n in histogram.items()}

    def _apply_one(self, sign: int, triple: "Triple", touched: dict[Term, int]) -> None:
        summary = self._summary
        assert summary is not None and self._subj is not None and self._obj is not None
        p, o_term = triple.predicate, triple.object
        touched.setdefault(p, 0)
        # The entity maps are id-keyed, the summary's tables term-keyed.
        # The store interned the triple's terms when it went in and never
        # retires an id; only the predicates a bump names are decoded.
        dictionary = self._store.dictionary
        decode = dictionary.decode
        s, p_id, o = map(dictionary.lookup, triple)

        # Histogram update (exact while it stays under the width limit).
        stats = summary.predicates.get(p)
        if stats is not None and stats.objects is not None:
            histogram = stats.objects
            value = histogram.get(o_term, 0) + sign
            if value > 0:
                histogram[o_term] = value
            else:
                histogram.pop(o_term, None)
            if len(histogram) > self._histogram_limit:
                stats.objects = None

        # ---- subject side: c_s(s, p) changes by sign -------------------
        subject = self._subj.get(s)
        if subject is None:
            subject = self._subj[s] = Counter()
        old_charset = _charset(subject, decode) if subject else None
        subject_objects = self._obj.get(s, _EMPTY)
        old_count = subject[p_id]
        for q_id, n in subject.items():
            if isinstance(q_id, tuple) or q_id == p_id:
                continue
            q = decode(q_id)
            _bump(summary.ss_rows, (p, q), sign * n)
            _bump(summary.ss_rows, (q, p), sign * n)
        _bump(summary.ss_rows, (p, p), 2 * old_count + 1 if sign > 0 else -(2 * old_count - 1))
        for q_id, n in subject_objects.items():
            _bump(summary.os_rows, (decode(q_id), p), sign * n)
        if (sign > 0 and old_count == 0) or (sign < 0 and old_count == 1):
            # ``s`` becomes, or stops being, a subject of ``p``.
            _bump_authority(summary.subject_authorities, p, triple.subject, sign)
            for q_id in subject_objects:
                _bump(summary.os_pairs, (decode(q_id), p), sign)
        subject[p_id] += sign
        if subject[p_id] <= 0:
            del subject[p_id]
        if p == RDF_TYPE:
            marker = ("c", o)
            subject[marker] += sign
            if subject[marker] <= 0:
                del subject[marker]
        new_charset = _charset(subject, decode) if subject else None
        if old_charset != new_charset:
            if old_charset is not None:
                _bump(summary.sets, old_charset, -1)
            if new_charset is not None:
                _bump(summary.sets, new_charset, 1)
        if not subject:
            del self._subj[s]

        # ---- object side: c_o(o, p) changes by sign --------------------
        objects = self._obj.get(o)
        if objects is None:
            objects = self._obj[o] = Counter()
        object_subjects = self._subj.get(o, _EMPTY)
        old_count = objects[p_id]
        for q_id, n in objects.items():
            if q_id == p_id:
                continue
            q = decode(q_id)
            _bump(summary.oo_rows, (p, q), sign * n)
            _bump(summary.oo_rows, (q, p), sign * n)
        _bump(summary.oo_rows, (p, p), 2 * old_count + 1 if sign > 0 else -(2 * old_count - 1))
        for q_id, n in object_subjects.items():
            if isinstance(q_id, tuple):
                continue
            _bump(summary.os_rows, (p, decode(q_id)), sign * n)
        if (sign > 0 and old_count == 0) or (sign < 0 and old_count == 1):
            # ``o`` becomes, or stops being, an object of ``p``.
            touched[p] += sign
            _bump_authority(summary.object_authorities, p, o_term, sign)
            for q_id in object_subjects:
                if isinstance(q_id, tuple):
                    continue
                _bump(summary.os_pairs, (p, decode(q_id)), sign)
            for q_id in objects:
                if q_id == p_id:
                    continue
                q = decode(q_id)
                _bump(summary.oo_pairs, (p, q), sign)
                _bump(summary.oo_pairs, (q, p), sign)
            _bump(summary.oo_pairs, (p, p), sign)
        objects[p_id] += sign
        if objects[p_id] <= 0:
            del objects[p_id]
        if not objects:
            del self._obj[o]


def _bump_authority(
    tables: dict[Term, dict[str, int]], predicate: Term, entity: Term, delta: int
) -> None:
    """Count one IRI entity in or out of ``predicate``'s authority table;
    an emptied table leaves, as a rebuild would not create it."""
    if not isinstance(entity, IRI):
        return
    table = tables.setdefault(predicate, {})
    _bump(table, entity.authority, delta)
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
