"""Statistics providers: local summaries first, remote probes as fallback.

The planner historically asked endpoints for every piece of metadata it
needed — ASK probes for source selection, ``SELECT COUNT`` probes for the
SAPE cardinality model, and locality check queries for GJV detection — a
per-query request storm that dominates virtual time before the first
result row ships.  A :class:`CharsetStatisticsProvider` answers those
questions from per-endpoint characteristic-set summaries
(:mod:`repro.store.charsets`) instead:

- ``can_match`` replaces an ASK probe when the summary *proves* the
  answer (predicate absent, exact object histogram, ...);
- ``pattern_count`` replaces a COUNT probe with a summary estimate
  (exact for predicate-only and histogram-covered patterns);
- ``check_empty`` answers a locality check from characteristic-set and
  characteristic-pair coverage when provable in either direction;
- ``distinct_values`` bounds a variable's distinct values for the
  planner's cost rule, strategy picker and join hints;
- ``plan_routes`` records, per source, the IRI-authority checks with
  which :func:`route` keeps a bound join's bindings off the endpoints
  that provably cannot match them.

Every yes/no decision that prunes work is made only when the summary is
exact for that question; anything unprovable returns ``None`` and the
caller falls back to the existing remote probe.  Summaries are fetched
through the owning :class:`~repro.endpoint.client.FederationClient`
(one virtual ``stats`` request per endpoint, cached across queries and
validated by the summary's pin), so the savings are visible in the
same virtual-time accounting as the probes they replace.
"""

from __future__ import annotations

from collections.abc import Container, Iterable, Mapping
from itertools import compress
from operator import itemgetter
from typing import TYPE_CHECKING

from repro.rdf.namespaces import RDF_TYPE
from repro.rdf.terms import IRI, Term, Variable, is_concrete
from repro.store.charsets import CharacteristicSets, class_marker

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.decomposition.check_queries import CheckQuery
    from repro.core.decomposition.subquery import Subquery
    from repro.rdf.triple import TriplePattern


def _role(pattern: "TriplePattern", variable: Variable) -> str | None:
    """'subject' / 'object' when the variable sits in exactly one of them."""
    as_subject = pattern.subject == variable
    as_object = pattern.object == variable
    if as_subject and not as_object:
        return "subject"
    if as_object and not as_subject:
        return "object"
    return None


def _authority_keys(
    rows: list[tuple[Term | None, ...]], columns: list[int]
) -> tuple[list[int], list[tuple[str | None, ...]]]:
    """Each row's authority-key number, and the distinct keys by number.

    A key holds one entry per column: the term's IRI authority, or None
    for a literal, a blank node or UNDEF, which never prune.  Each row's
    authority is read once per column.
    """
    per_column = [
        [term.authority if isinstance(term, IRI) else None for term in map(itemgetter(c), rows)]
        for c in columns
    ]
    numbering: dict = {}
    number = numbering.setdefault
    numbers = [number(key, len(numbering)) for key in zip(*per_column)]
    return numbers, list(numbering)


#: One authority check of a planned route: a variable, its position
#: (``"subject"`` / ``"object"``) in a pattern, and the IRI authorities a
#: binding of it may have at the source.
RouteCheck = tuple[Variable, str, Container[str]]


def _allowed_authorities(
    summary: CharacteristicSets, position: str, predicate: Term | None
) -> Container[str]:
    """The authorities an IRI bound in ``position`` may have at the
    summary's endpoint: those of the predicate's subjects (objects), or
    of any predicate's when it is a variable (``None``)."""
    tables = (
        summary.subject_authorities if position == "subject" else summary.object_authorities
    )
    if predicate is None:
        return set().union(*tables.values())
    return tables.get(predicate, {})


class CharsetStatisticsProvider:
    """The planner's statistics seam, answered from characteristic sets.

    Methods return ``None`` (or ``(None, at_ms)``) when the provider has
    no provable/usable answer; callers then fall back to remote probes.

    One instance lives on a :class:`FederationClient` (one query); the
    first question about an endpoint fetches its summary through the
    client (a cached, version-checked virtual request) and later
    questions reuse the in-memory copy for free.
    """

    name = "charsets"

    def __init__(self, client):
        self.client = client
        self._summaries: dict[str, CharacteristicSets] = {}

    # ------------------------------------------------------------ fetch

    def summary(self, endpoint_name: str, at_ms: float) -> tuple[CharacteristicSets, float]:
        cached = self._summaries.get(endpoint_name)
        if cached is not None:
            return cached, at_ms
        summary, end = self.client.stats_summary(endpoint_name, at_ms)
        self._summaries[endpoint_name] = summary
        return summary, end

    # --------------------------------------------------- pattern answers

    def can_match(
        self, endpoint_name: str, pattern: "TriplePattern", at_ms: float
    ) -> tuple[bool | None, float]:
        """Exact ASK-equivalent verdict, or None to fall back to the probe."""
        summary, end = self.summary(endpoint_name, at_ms)
        return summary.can_match(pattern), end

    def pattern_count(
        self, endpoint_name: str, pattern: "TriplePattern", at_ms: float
    ) -> tuple[float, bool, float]:
        """(estimated count, is_exact, end_ms) for one pattern."""
        summary, end = self.summary(endpoint_name, at_ms)
        estimate, exact = summary.estimate_pattern(pattern)
        return estimate, exact, end

    # ------------------------------------------------------ check answers

    def check_empty(
        self, endpoint_name: str, check: "CheckQuery", at_ms: float
    ) -> tuple[bool | None, float]:
        """Provable emptiness of a locality check at one endpoint.

        True — the check is provably empty (skip the probe, local join
        is fine for this endpoint); False — provably non-empty (the
        variable is global, no probe needed); None — not provable, run
        the remote check query.

        Soundness: an *empty* verdict only ever uses coverage facts that
        hold for a superset of the outer match set, so extra constants
        or a type constraint can only shrink it further; a *non-empty*
        verdict additionally requires the summary to characterize the
        outer match set exactly.
        """
        outer, inner = check.outer, check.inner
        if outer is None or inner is None:
            return None, at_ms
        variable = check.variable
        p1, p2 = outer.predicate, inner.predicate
        if not is_concrete(p1) or not is_concrete(p2):
            return None, at_ms
        outer_role = _role(outer, variable)
        inner_role = _role(inner, variable)
        if outer_role is None or inner_role is None:
            return None, at_ms
        type_pattern = check.type_pattern if check.type_pattern != outer else None
        if type_pattern is not None and not is_concrete(type_pattern.object):
            return None, at_ms

        summary, end = self.summary(endpoint_name, at_ms)
        verdict = self._check_verdict(summary, outer, inner, outer_role, inner_role, type_pattern)
        return verdict, end

    def _check_verdict(
        self,
        summary: CharacteristicSets,
        outer: "TriplePattern",
        inner: "TriplePattern",
        outer_role: str,
        inner_role: str,
        type_pattern,
    ) -> bool | None:
        p1, p2 = outer.predicate, inner.predicate
        p1_stats = summary.predicates.get(p1)
        if p1_stats is None or p1_stats.count == 0:
            # The outer pattern matches nothing here: check is empty.
            return True

        if outer_role == "subject":
            # Charset-membership reasoning over subject characteristic sets.
            required: set = set()
            exact = True
            if p1 == RDF_TYPE and is_concrete(outer.object):
                required.add(class_marker(outer.object))
            else:
                required.add(p1)
                if is_concrete(outer.object):
                    exact = False
            if type_pattern is not None:
                required.add(class_marker(type_pattern.object))
            if inner_role == "subject":
                # inner matches v locally iff p2 is in v's charset.
                if not summary.charset_exists(frozenset(required), lacking=p2):
                    return True
                return False if exact else None
            # inner needs v as an *object* of p2: subject/object coverage.
            if required == {p1}:
                domain = p1_stats.distinct_subjects
                covered = summary.os_pairs.get((p2, p1), 0)
                if covered >= domain:
                    return True
                return False if exact and type_pattern is None else None
            # Outer is a type pattern or carries extra constraints: only
            # the unconditional superset argument is available.
            covered = summary.os_pairs.get((p2, p1), 0)
            if covered >= p1_stats.distinct_subjects:
                return True
            return None

        # outer_role == "object": v ranges over objects of p1.
        exact = not is_concrete(outer.subject) and type_pattern is None
        domain = p1_stats.distinct_objects
        if inner_role == "subject":
            covered = summary.os_pairs.get((p1, p2), 0)
        else:
            covered = summary.oo_pairs.get((p1, p2), 0)
        if covered >= domain:
            return True
        return False if exact else None

    # -------------------------------------------------- distinct bounds

    def distinct_values(self, subquery: "Subquery", variable: Variable) -> int | None:
        """Upper bound on the variable's distinct values in the subquery.

        Minimum over the subquery's concrete-predicate patterns holding
        the variable of the summed per-endpoint distinct counts; uses
        only summaries already fetched this query (never issues a
        request).  ``collect_statistics`` asks it once per (subquery,
        variable) and records the answer on the plan.
        """
        best: int | None = None
        for pattern in subquery.patterns:
            role = _role(pattern, variable)
            if role is None or not is_concrete(pattern.predicate):
                continue
            total = 0
            for source in subquery.sources:
                summary = self._summaries.get(source)
                if summary is None:
                    return None
                stats = summary.predicates.get(pattern.predicate)
                if stats is None:
                    continue
                total += (
                    stats.distinct_subjects if role == "subject" else stats.distinct_objects
                )
            best = total if best is None else min(best, total)
        return best

    # ------------------------------------------------------ bound joins

    def plan_routes(self, subquery: "Subquery") -> dict[str, tuple[RouteCheck, ...]]:
        """The authority checks a bound join of ``subquery`` applies at
        each of its sources (see :func:`route`): per pattern, each
        subject or object variable with the authorities an IRI bound
        there may have at the source — those of the pattern's
        predicate's subjects (objects), or of any predicate's for a
        variable predicate.  Uses only summaries already fetched this
        query: a source without one, like a source with nothing to
        check, gets no entry."""
        terms: list[tuple[Variable, str, Term | None]] = []
        for pattern in subquery.patterns:
            predicate = pattern.predicate if is_concrete(pattern.predicate) else None
            for term, position in ((pattern.subject, "subject"), (pattern.object, "object")):
                if isinstance(term, Variable):
                    terms.append((term, position, predicate))
        routes: dict[str, tuple[RouteCheck, ...]] = {}
        if not terms:
            return routes
        for source in subquery.sources:
            summary = self._summaries.get(source)
            if summary is not None:
                routes[source] = tuple(
                    (variable, position, _allowed_authorities(summary, position, predicate))
                    for variable, position, predicate in terms
                )
        return routes


def route(
    routes: Mapping[str, tuple[RouteCheck, ...]],
    endpoints: Iterable[str],
    bind_vars: tuple[Variable, ...],
    rows: list[tuple[Term | None, ...]],
) -> dict[str, list[tuple[Term | None, ...]]]:
    """The binding rows a bound join must send to each endpoint.

    ``routes`` is the subquery's planned record
    (:meth:`CharsetStatisticsProvider.plan_routes`).  A row stays unless
    one of the endpoint's checks on a bound variable proves it cannot
    match there: the row binds the variable to an IRI whose authority
    the check does not allow.  Literals, blank nodes and UNDEF never
    prune, and an endpoint with no entry receives ``rows`` itself.

    Each row's authorities are read once, whatever the number of
    endpoints: rows are grouped by their authority key (one entry per
    checked column), each endpoint decides once per distinct key, and
    every endpoint's list keeps the input order.
    """
    routed = dict.fromkeys(endpoints, rows)
    checks = {}
    for endpoint in routed:
        checked = [
            (bind_vars.index(variable), allowed)
            for variable, __, allowed in routes.get(endpoint, ())
            if variable in bind_vars
        ]
        if checked:
            checks[endpoint] = checked
    if not checks:
        return routed
    columns = list(dict.fromkeys(column for checked in checks.values() for column, __ in checked))
    slots = {column: slot for slot, column in enumerate(columns)}
    numbers, keys = _authority_keys(rows, columns)
    for endpoint, checked in checks.items():
        allowed = [(slots[column], authorities) for column, authorities in checked]
        verdicts = [
            all(key[slot] is None or key[slot] in authorities for slot, authorities in allowed)
            for key in keys
        ]
        if not all(verdicts):
            routed[endpoint] = list(compress(rows, map(verdicts.__getitem__, numbers)))
    return routed
