"""SAPE's cardinality estimation and delayed-subquery selection.

Cardinalities come from lightweight per-triple-pattern ``SELECT COUNT``
probes (one per pattern per relevant endpoint, cached).  Filters on a
pattern's variables are pushed into its probe for tighter estimates.

For a subquery ``sq`` and a variable ``v`` it projects::

    C(sq, v, ep) = min over patterns of sq containing v of C(TP, ep)
    C(sq, v)     = sum over relevant endpoints ep of C(sq, v, ep)
    C(sq)        = max over projected variables v of C(sq, v)

A subquery is **delayed** when its estimated cardinality (or its number
of relevant endpoints) reaches ``mu + sigma`` computed over all
subqueries after Chauvenet outlier rejection (paper Fig 9 selects
``mu + sigma`` as the best threshold; other policies are kept for the
threshold-sensitivity experiment) and lies strictly above the mean —
the lower of the survivors' mean and the mean over every subquery, so a
small value Chauvenet dropped still counts as the yardstick the large
ones are above.  OPTIONAL subqueries are always delayed — the paper
names them as a delayed class outright.  :class:`DelayDecision` records
the reason for each subquery's verdict (:data:`DELAY_REASONS`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

from repro.core.decomposition.subquery import Subquery
from repro.core.execution.outliers import RobustStats, robust_stats
from repro.endpoint.client import FederationClient
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.sparql.ast import (
    BGP,
    CountAggregate,
    Expression,
    Filter,
    GroupPattern,
    SelectQuery,
)


class DelayPolicy(str, Enum):
    """Threshold policies evaluated in the paper's Fig 9."""

    MU = "mu"
    MU_SIGMA = "mu+sigma"
    MU_2SIGMA = "mu+2sigma"
    OUTLIERS = "outliers"


def count_query(pattern: TriplePattern, filters: tuple[Expression, ...] = ()) -> SelectQuery:
    """The COUNT probe for one triple pattern (with pushable filters)."""
    elements = [BGP([pattern])]
    for expression in pushable_filters(pattern, filters):
        elements.append(Filter(expression))
    return SelectQuery(
        where=GroupPattern(elements),
        select_vars=None,
        aggregate=CountAggregate(Variable("__count")),
    )


def pushable_filters(
    pattern: TriplePattern, filters: tuple[Expression, ...]
) -> list[Expression]:
    """The filters a COUNT probe for this pattern would carry."""
    pattern_vars = pattern.variables()
    return [
        expression
        for expression in filters
        if expression.variables() and expression.variables() <= pattern_vars
    ]


@dataclass
class CardinalityEstimates:
    """Per-pattern, per-endpoint counts plus derived subquery estimates."""

    # Keyed directly on TriplePattern: patterns (and their terms) cache
    # their hash at construction, so repeated probe lookups cost a dict
    # probe, not a recursive re-hash of the pattern's terms.
    pattern_counts: dict[tuple[TriplePattern, str], int] = field(default_factory=dict)

    def pattern_count(self, pattern: TriplePattern, endpoint: str) -> int:
        return self.pattern_counts.get((pattern, endpoint), 0)

    def variable_cardinality(self, subquery: Subquery, variable: Variable) -> float:
        """C(sq, v): summed per-endpoint min over patterns containing v."""
        holding = [p for p in subquery.patterns if variable in p.variables()]
        if not holding:
            return 0.0
        total = 0.0
        for endpoint in subquery.sources:
            total += min(self.pattern_count(pattern, endpoint) for pattern in holding)
        return total

    def subquery_cardinality(self, subquery: Subquery, projected: set[Variable]) -> float:
        """C(sq): max over projected variables of C(sq, v)."""
        variables = subquery.variables() & projected if projected else subquery.variables()
        if not variables:
            variables = subquery.variables()
        if not variables:
            return 0.0
        return max(self.variable_cardinality(subquery, variable) for variable in variables)

    def endpoint_cardinality(
        self, subquery: Subquery, endpoint: str, projected: set[Variable]
    ) -> float:
        """One endpoint's share of C(sq): max over v of C(sq, v, ep).

        The per-endpoint analogue of :meth:`subquery_cardinality`, used
        by the EXPLAIN ANALYZE audit to compare SAPE's per-endpoint
        estimate against the rows that endpoint actually returned.
        """
        variables = subquery.variables() & projected if projected else subquery.variables()
        if not variables:
            variables = subquery.variables()
        best = 0.0
        for variable in variables:
            holding = [p for p in subquery.patterns if variable in p.variables()]
            if not holding:
                continue
            best = max(
                best,
                float(min(self.pattern_count(pattern, endpoint) for pattern in holding)),
            )
        return best


def collect_statistics(
    client: FederationClient,
    subqueries: list[Subquery],
    at_ms: float,
) -> tuple[CardinalityEstimates, float]:
    """Collect per-(pattern, endpoint) cardinalities.

    When the client carries a :class:`CharsetStatisticsProvider` (the
    characteristic-set seam), filter-free patterns are answered from the
    endpoint's local summary — no COUNT probe is issued, and with the
    audit on each summary estimate is compared against the exact local
    count under the ``stats`` decision label.  Patterns with pushable
    filters (and clients without a provider) keep the original COUNT
    probe path.  Probes fan out in parallel; cached probes are free.
    Returns the estimates and the virtual completion time.
    """
    estimates = CardinalityEstimates()
    finish = at_ms
    provider = getattr(client, "stats", None)
    from_summary = 0
    mark = client.metrics.mark()
    with client.tracer.span("statistics", t0=at_ms) as span:
        for subquery in subqueries:
            for pattern in subquery.patterns:
                use_summary = provider is not None and not pushable_filters(
                    pattern, subquery.filters
                )
                query: SelectQuery | None = None
                for endpoint in subquery.sources:
                    key = (pattern, endpoint)
                    if key in estimates.pattern_counts:
                        continue
                    if use_summary:
                        estimate, __, end = provider.pattern_count(
                            endpoint, pattern, at_ms
                        )
                        # Ceil keeps sub-row averages (e.g. 0.4 rows per
                        # subject) from rounding a matching pattern to 0.
                        count = int(math.ceil(estimate))
                        from_summary += 1
                        if client.audit.enabled:
                            # The probe path is the accuracy oracle: the
                            # exact local count, read without touching
                            # virtual time or request counters.
                            actual = client.federation.get(endpoint).count_pattern(
                                pattern
                            )
                            client.audit.record(
                                "stats", float(count), float(actual),
                                endpoint=endpoint, span=span,
                            )
                    else:
                        if query is None:
                            query = count_query(pattern, subquery.filters)
                        count, end = client.count(endpoint, query, at_ms)
                    finish = max(finish, end)
                    estimates.pattern_counts[key] = count
        span.set(
            probes=len(estimates.pattern_counts),
            from_summary=from_summary,
            requests=client.metrics.requests_since(mark),
        ).end(finish)
    return estimates, finish


@dataclass
class DelayDecision:
    """The outcome of the delay heuristic, for inspection and tests."""

    cardinalities: dict[int, float]
    endpoint_counts: dict[int, int]
    cardinality_threshold: float
    endpoint_threshold: float
    delayed_ids: set[int]
    #: Subquery ids whose cardinality / endpoint count Chauvenet's
    #: criterion rejected before computing mu and sigma.
    cardinality_rejected_ids: set[int] = field(default_factory=set)
    endpoint_rejected_ids: set[int] = field(default_factory=set)
    #: Why each subquery is delayed or eager, one of :data:`DELAY_REASONS`.
    reasons: dict[int, str] = field(default_factory=dict)


#: The reasons a :class:`DelayDecision` records.  Delayed: ``cardinality``
#: / ``endpoints`` (at or above that threshold, and above the mean),
#: ``optional`` (an OPTIONAL block's subquery).  Eager: ``peer`` (above
#: the cardinality threshold, but a two-subquery plan's peer is not
#: significantly smaller), ``kept-eager`` (every required subquery
#: qualified; the smallest stays eager), ``below``.
DELAY_REASONS = ("cardinality", "endpoints", "optional", "peer", "kept-eager", "below")
_DELAYING = ("cardinality", "endpoints", "optional")


def _delays(reasons: dict[int, str], subquery_id: int) -> bool:
    return reasons.get(subquery_id) in _DELAYING


def _above_mean(value: float, stats: RobustStats, values: list[float]) -> bool:
    """``value`` exceeds the lower of the survivors' and the full mean.

    The survivors' mean alone misses a large value whose only smaller
    peers Chauvenet rejected: {240, 41138, 41138} keeps the two equal
    values, whose mean is their own, and neither would be "above" it.
    The full mean is the lower one only when what Chauvenet rejected
    lies, on balance, below the survivors; without rejections the two
    are the same number.
    """
    return value > min(stats.mean, sum(values) / len(values))


def decide_delays(
    subqueries: list[Subquery],
    estimates: CardinalityEstimates,
    projected: set[Variable],
    policy: DelayPolicy = DelayPolicy.MU_SIGMA,
    use_chauvenet: bool = True,
) -> DelayDecision:
    """Mark subqueries as delayed according to the threshold policy.

    Mutates ``subquery.delayed`` and ``subquery.estimated_cardinality``;
    guarantees at least one required subquery stays non-delayed so phase
    one always produces bindings.
    """
    cardinalities: dict[int, float] = {}
    endpoint_counts: dict[int, int] = {}
    for subquery in subqueries:
        cardinality = estimates.subquery_cardinality(subquery, projected)
        subquery.estimated_cardinality = cardinality
        cardinalities[subquery.id] = cardinality
        endpoint_counts[subquery.id] = len(subquery.sources)

    values = [cardinalities[sq.id] for sq in subqueries]
    endpoint_values = [float(endpoint_counts[sq.id]) for sq in subqueries]
    card_stats = robust_stats(values, use_chauvenet=use_chauvenet)
    endpoint_stats = robust_stats(endpoint_values, use_chauvenet=use_chauvenet)

    multiplier = {
        DelayPolicy.MU: 0.0,
        DelayPolicy.MU_SIGMA: 1.0,
        DelayPolicy.MU_2SIGMA: 2.0,
        DelayPolicy.OUTLIERS: None,
    }[policy]

    card_rejected = {subqueries[i].id for i in card_stats.outliers}
    endpoint_rejected = {subqueries[i].id for i in endpoint_stats.outliers}
    reasons: dict[int, str] = {}
    if multiplier is None:
        card_threshold = float("inf")
        endpoint_threshold = float("inf")
        for subquery in subqueries:
            if subquery.id in card_rejected:
                reasons[subquery.id] = "cardinality"
            elif subquery.id in endpoint_rejected:
                reasons[subquery.id] = "endpoints"
    else:
        card_threshold = card_stats.mean + multiplier * card_stats.std
        endpoint_threshold = endpoint_stats.mean + multiplier * endpoint_stats.std
        total_cardinality = sum(cardinalities.values())
        count = len(subqueries)
        for subquery in subqueries:
            cardinality = cardinalities[subquery.id]
            endpoints = endpoint_counts[subquery.id]
            # ">= threshold" with a strict "above the mean" guard: for a
            # two-subquery plan the maximum equals mu + sigma exactly, and
            # the paper still delays it (its Q3/Q4 discussions); when all
            # cardinalities are equal nothing is above the mean and
            # nothing is delayed.  "The mean" is the lower of the
            # survivors' and the full one (see _above_mean): Chauvenet
            # dropping a small value must not make the large ones look
            # ordinary.
            above_cardinality = (
                _above_mean(cardinality, card_stats, values)
                and cardinality >= card_threshold
            )
            if above_cardinality and count == 2 and multiplier > 0.0:
                # Degenerate two-subquery case: delay only when this one
                # is expected to be *significantly* bigger than its peer
                # (the paper's wording) — a balanced pair gains nothing
                # from serializing.
                peer_mean = (total_cardinality - cardinality) / (count - 1)
                if cardinality < 2.0 * peer_mean:
                    above_cardinality = False
                    reasons[subquery.id] = "peer"
            above_endpoints = (
                _above_mean(endpoints, endpoint_stats, endpoint_values)
                and endpoints >= endpoint_threshold
            )
            if above_cardinality:
                reasons[subquery.id] = "cardinality"
            elif above_endpoints:
                reasons[subquery.id] = "endpoints"

    # OPTIONAL subqueries are always delayed: their bindings should come
    # from the required part first (paper Sec V-A, delayed classes).
    for subquery in subqueries:
        if subquery.optional_group is not None and not _delays(reasons, subquery.id):
            reasons[subquery.id] = "optional"

    # Keep at least one required subquery eager.
    required = [sq for sq in subqueries if sq.optional_group is None]
    if required and all(_delays(reasons, sq.id) for sq in required):
        keeper = min(required, key=lambda sq: cardinalities[sq.id])
        reasons[keeper.id] = "kept-eager"

    delayed_ids = set()
    for subquery in subqueries:
        reasons.setdefault(subquery.id, "below")
        subquery.delayed = _delays(reasons, subquery.id)
        if subquery.delayed:
            delayed_ids.add(subquery.id)

    return DelayDecision(
        cardinalities=cardinalities,
        endpoint_counts=endpoint_counts,
        cardinality_threshold=card_threshold,
        endpoint_threshold=endpoint_threshold,
        delayed_ids=delayed_ids,
        cardinality_rejected_ids=card_rejected,
        endpoint_rejected_ids=endpoint_rejected,
        reasons=reasons,
    )

