"""Reference term-space data plane (pre-dictionary-encoding semantics).

The production path (:mod:`repro.store.triple_store`,
:mod:`repro.sparql.evaluator`) runs on dictionary-encoded integer ids.
This module preserves the original term-object implementation — nested
indexes keyed on terms, ``Triple`` materialization per match — as a
property-test oracle: the encoded evaluator must produce the same
solution multiset on randomized data.  It lives under ``tests/`` so no
engine can import it.

It intentionally mirrors the seed algorithms line for line (same
memoization keys, same compatibility rules); do not "optimize" it.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.rdf.terms import Term, Variable
from repro.rdf.triple import Triple, TriplePattern

Solution = dict  # dict[Variable, Term]

_Index = dict  # nested: level1 -> level2 -> set(level3)


def _index_add(index: _Index, a: Term, b: Term, c: Term) -> None:
    index.setdefault(a, {}).setdefault(b, set()).add(c)


class ReferenceStore:
    """Term-keyed SPO/POS/OSP store, as before dictionary encoding."""

    def __init__(self):
        self._spo: _Index = {}
        self._pos: _Index = {}
        self._osp: _Index = {}
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def __contains__(self, triple: Triple) -> bool:
        objects = self._spo.get(triple.subject, {}).get(triple.predicate)
        return objects is not None and triple.object in objects

    def __iter__(self) -> Iterator[Triple]:
        for subject, by_predicate in self._spo.items():
            for predicate, objects in by_predicate.items():
                for obj in objects:
                    yield Triple(subject, predicate, obj)

    def add(self, triple: Triple) -> bool:
        if triple in self:
            return False
        s, p, o = triple.subject, triple.predicate, triple.object
        _index_add(self._spo, s, p, o)
        _index_add(self._pos, p, o, s)
        _index_add(self._osp, o, s, p)
        self._size += 1
        return True

    def add_all(self, triples: Iterable[Triple]) -> int:
        added = 0
        for triple in triples:
            if self.add(triple):
                added += 1
        return added

    def match_pattern(self, pattern: TriplePattern) -> Iterator[Triple]:
        subject, predicate, object = pattern.subject, pattern.predicate, pattern.object
        s = subject if not isinstance(subject, Variable) else None
        p = predicate if not isinstance(predicate, Variable) else None
        o = object if not isinstance(object, Variable) else None
        iterator = self._match_bound(s, p, o)
        pattern_vars = [x for x in (subject, predicate, object) if isinstance(x, Variable)]
        if len(pattern_vars) != len(set(pattern_vars)):
            return (t for t in iterator if pattern.matches(t))
        return iterator

    def _match_bound(self, s: Term | None, p: Term | None, o: Term | None) -> Iterator[Triple]:
        if s is not None and p is not None and o is not None:
            triple = Triple(s, p, o)
            return iter((triple,)) if triple in self else iter(())
        if s is not None and p is not None:
            objects = self._spo.get(s, {}).get(p, ())
            return (Triple(s, p, obj) for obj in objects)
        if p is not None and o is not None:
            subjects = self._pos.get(p, {}).get(o, ())
            return (Triple(subj, p, o) for subj in subjects)
        if s is not None and o is not None:
            predicates = self._osp.get(o, {}).get(s, ())
            return (Triple(s, pred, o) for pred in predicates)
        if s is not None:
            return (
                Triple(s, pred, obj)
                for pred, objects in self._spo.get(s, {}).items()
                for obj in objects
            )
        if p is not None:
            return (
                Triple(subj, p, obj)
                for obj, subjects in self._pos.get(p, {}).items()
                for subj in subjects
            )
        if o is not None:
            return (
                Triple(subj, pred, o)
                for subj, predicates in self._osp.get(o, {}).items()
                for pred in predicates
            )
        return iter(self)


def reference_extend(
    store: ReferenceStore, pattern: TriplePattern, solutions: list[Solution]
) -> list[Solution]:
    """The seed evaluator's pattern-join step, term objects throughout."""
    pattern_vars = tuple(
        position for position in pattern.positions() if isinstance(position, Variable)
    )
    match_cache: dict[tuple, list[Triple]] = {}
    extended: list[Solution] = []
    for solution in solutions:
        key = tuple(solution.get(variable) for variable in pattern_vars)
        matches = match_cache.get(key)
        if matches is None:
            matches = list(store.match_pattern(pattern.bind(solution)))
            match_cache[key] = matches
        for triple in matches:
            new_solution = dict(solution)
            consistent = True
            for position, value in zip(pattern.positions(), triple):
                if isinstance(position, Variable):
                    existing = new_solution.get(position)
                    if existing is None:
                        new_solution[position] = value
                    elif existing != value:
                        consistent = False
                        break
            if consistent:
                extended.append(new_solution)
    return extended


def reference_bgp(
    store: ReferenceStore, patterns: Sequence[TriplePattern]
) -> list[Solution]:
    """Evaluate a basic graph pattern left to right in term space."""
    solutions: list[Solution] = [{}]
    for pattern in patterns:
        solutions = reference_extend(store, pattern, solutions)
        if not solutions:
            return []
    return solutions
