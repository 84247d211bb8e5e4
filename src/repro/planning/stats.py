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
- ``distinct_values`` / ``pair_fanout`` feed the DP join enumerator;
- ``route`` keeps a bound join's bindings off the endpoints whose IRI
  authorities prove they cannot match there.

Every yes/no decision that prunes work is made only when the summary is
exact for that question; anything unprovable returns ``None`` and the
caller falls back to the existing remote probe.  Summaries are fetched
through the owning :class:`~repro.endpoint.client.FederationClient`
(one virtual ``stats`` request per endpoint, cached across queries and
invalidated by the store version), so the savings are visible in the
same virtual-time accounting as the probes they replace.
"""

from __future__ import annotations

from collections.abc import Container
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

    # -------------------------------------------------- join estimation

    def distinct_values(self, subquery: "Subquery", variable: Variable) -> int | None:
        """Upper bound on the variable's distinct values in the subquery.

        Minimum over the subquery's concrete-predicate patterns holding
        the variable of the summed per-endpoint distinct counts; uses
        only summaries already fetched this query (never issues a
        request mid-planning).
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

    def pair_fanout(
        self, left: "Subquery", variable: Variable, right: "Subquery"
    ) -> float | None:
        """Exact same-endpoint join rows for the best pattern pair.

        For each (left pattern, right pattern) holding the variable with
        concrete predicates, sums the summaries' predicate-pair join
        fan-out tables over the endpoints both subqueries target; the
        minimum over pairs is a defensible single-pair join size.  Uses
        only already-fetched summaries.
        """
        shared_sources = set(left.sources) & set(right.sources)
        best: float | None = None
        for left_pattern in left.patterns:
            left_role = _role(left_pattern, variable)
            if left_role is None or not is_concrete(left_pattern.predicate):
                continue
            for right_pattern in right.patterns:
                right_role = _role(right_pattern, variable)
                if right_role is None or not is_concrete(right_pattern.predicate):
                    continue
                total = 0.0
                usable = True
                for source in shared_sources:
                    summary = self._summaries.get(source)
                    if summary is None:
                        usable = False
                        break
                    total += self._pair_rows(
                        summary,
                        left_pattern.predicate,
                        left_role,
                        right_pattern.predicate,
                        right_role,
                    )
                if usable:
                    best = total if best is None else min(best, total)
        return best

    # ------------------------------------------------------ bound joins

    def route(
        self,
        subquery: "Subquery",
        endpoint_name: str,
        bind_vars: tuple[Variable, ...],
        rows: list[tuple[Term | None, ...]],
    ) -> list[tuple[Term | None, ...]]:
        """The binding rows a bound join must send to one endpoint.

        A row stays unless one of the subquery's patterns proves it
        cannot match there: the row binds the pattern's subject (object)
        variable to an IRI whose authority no subject (object) of the
        pattern's predicate has at the endpoint — or, for a variable
        predicate, no subject (object) of any predicate.  Literals,
        blank nodes and UNDEF never prune.  Uses only summaries already
        fetched this query: an endpoint without one receives every row.
        """
        summary = self._summaries.get(endpoint_name)
        if summary is None:
            return rows
        checks: list[tuple[int, Container[str]]] = []
        for pattern in subquery.patterns:
            for term, tables in (
                (pattern.subject, summary.subject_authorities),
                (pattern.object, summary.object_authorities),
            ):
                if not isinstance(term, Variable) or term not in bind_vars:
                    continue
                if is_concrete(pattern.predicate):
                    allowed = tables.get(pattern.predicate, {})
                else:  # any predicate's
                    allowed = set().union(*tables.values())
                checks.append((bind_vars.index(term), allowed))
        if not checks:
            return rows
        return [
            row
            for row in rows
            if all(
                not isinstance(row[index], IRI) or row[index].authority in allowed
                for index, allowed in checks
            )
        ]

    @staticmethod
    def _pair_rows(
        summary: CharacteristicSets, p1, role1: str, p2, role2: str
    ) -> float:
        if role1 == "subject" and role2 == "subject":
            return float(summary.ss_rows.get((p1, p2), 0))
        if role1 == "object" and role2 == "object":
            return float(summary.oo_rows.get((p1, p2), 0))
        if role1 == "object" and role2 == "subject":
            return float(summary.os_rows.get((p1, p2), 0))
        return float(summary.os_rows.get((p2, p1), 0))
