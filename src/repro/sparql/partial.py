"""Wire format for partial evaluation: specs shipped, matches returned.

Partial evaluation (Peng/Zou: evaluate the *whole* query at every site,
exchange only partial matches) replaces the bound-join request ladder
with one round per endpoint.  The mediator compiles the branch into a
:class:`PartialSpec` per selected endpoint:

``complete``
    the whole-branch SELECT — evaluated locally it yields the endpoint's
    *local-complete* matches, full answer rows needing no other site.
    Shipped only to endpoints that are a candidate source for every
    required fragment (elsewhere it is provably empty).
``fragments``
    one :class:`FragmentSpec` per required subquery the endpoint can
    serve: the fragment SELECT projecting the variables the mediator
    needs, plus *join-value digests* on its crossing variables
    (:mod:`repro.store.digests`).  The endpoint drops fragment rows
    whose crossing value cannot occur on the other side of the edge at
    any relevant site — the "compact" in compact partial matches.

The endpoint answers with a :class:`PartialResult`: the local-complete
rows (an encoded result like any SELECT response) and per-fragment row
sets (term rows: digest pruning hashes terms, and the mediator tags
every fragment row with an origin term anyway).  The
mediator assembles fragments across endpoints with the columnar join
kernels and unions in the local-complete rows, deduplicating via
origin columns (see :mod:`repro.core.execution.partial`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.rdf.terms import Variable
from repro.sparql.ast import SelectQuery
from repro.sparql.result import SelectResult
from repro.store.digests import digest_bytes, stable_term_hash


@dataclass(frozen=True)
class FragmentSpec:
    """One branch subquery as shipped inside a partial request."""

    #: Subquery id within the decomposition (stable across endpoints).
    id: int
    #: The fragment SELECT: the subquery's patterns and pushed filters,
    #: projecting exactly the variables the mediator joins or returns.
    query: SelectQuery
    #: Pruning digests: ``(crossing variable, fingerprint set)`` pairs.
    #: A local row survives only if, for every pair, the CRC-32 of its
    #: value for that variable is in the set.  Unbound values survive.
    digests: tuple[tuple[Variable, frozenset[int]], ...] = ()

    def digest_bytes(self) -> int:
        return sum(digest_bytes(digest) for __, digest in self.digests)


@dataclass(frozen=True)
class PartialSpec:
    """Everything one endpoint needs for its single partial round."""

    #: Whole-branch query for local-complete matches, or None when this
    #: endpoint cannot source every required fragment.
    complete: SelectQuery | None
    fragments: tuple[FragmentSpec, ...] = ()


@dataclass
class FragmentResult:
    """One fragment's local matches, post digest pruning."""

    id: int
    result: SelectResult
    #: Rows the digests dropped before shipping (observability).
    pruned_rows: int = 0


@dataclass
class PartialResult:
    """An endpoint's answer to one partial request."""

    complete: SelectResult | None
    fragments: list[FragmentResult] = field(default_factory=list)

    def complete_rows(self) -> int:
        return 0 if self.complete is None else len(self.complete)

    def fragment_rows(self) -> int:
        return sum(len(fragment.result) for fragment in self.fragments)

    def total_rows(self) -> int:
        return self.complete_rows() + self.fragment_rows()

    def pruned_rows(self) -> int:
        return sum(fragment.pruned_rows for fragment in self.fragments)


def prune_rows(result: SelectResult, digests) -> tuple[list, int]:
    """Apply fragment digests to a decoded result's rows.

    Returns ``(surviving rows, pruned count)``.  Sound by construction:
    a dropped row's crossing value is absent from every site that could
    bind the other side of the edge, so no assembled answer loses a row
    (CRC collisions only ever *keep* extra rows).
    """
    checks = []
    for variable, digest in digests:
        try:
            index = result.vars.index(variable)
        except ValueError:
            continue
        checks.append((index, digest))
    if not checks:
        return result.rows, 0
    kept = []
    for row in result.rows:
        for index, digest in checks:
            value = row[index]
            if value is not None and stable_term_hash(value) not in digest:
                break
        else:
            kept.append(row)
    return kept, len(result.rows) - len(kept)
