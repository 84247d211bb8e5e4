"""SAPE's cardinality estimation and delayed-subquery selection.

Cardinalities come from the endpoints' characteristic-set summaries,
or, for a pattern with filters on its variables, from a lightweight
``SELECT COUNT`` probe carrying them (one per relevant endpoint, cached).

For a subquery ``sq`` and a variable ``v`` it projects::

    C(sq, v, ep) = min over patterns of sq containing v of C(TP, ep)
    C(sq, v)     = sum over relevant endpoints ep of C(sq, v, ep)
    C(sq)        = max over projected variables v of C(sq, v)

**The paper's verdict.**  A subquery is delayed when its estimated
cardinality (or its number of relevant endpoints) reaches a threshold
computed over all subqueries after Chauvenet outlier rejection —
``mu + sigma`` in the paper (Fig 9; ``mu``, ``mu + 2 sigma`` and
outliers-only are kept for that experiment) — and lies strictly above
the mean: the lower of the survivors' mean and the mean over every
subquery, so a small value Chauvenet dropped still counts as the
yardstick the large ones are above.  OPTIONAL subqueries are always
delayed — the paper names them as a delayed class outright.

**The cost rule** (:attr:`DelayPolicy.COST`, the engine's default)
starts from the ``mu + sigma`` verdict and overrides it for a required
subquery only where the estimated virtual time of binding it clearly
disagrees with the estimated time of shipping it whole.  It places the
required subqueries one at a time, like phase two will run them: the
smallest stays eager, then the connected subquery with the fewest
estimated bindings ``b`` follows, ``b`` being the fewest distinct values
a placed neighbour can bind a shared variable to.  Binding it costs
the requests :func:`_priced_requests` charges — ``ceil(b /
MAX_BLOCK)``, plus a premium where more rows than bindings come back —
and the rows ``b`` bindings fetch at the subquery's per-value fan-out
(that price is the ``bound≈`` figure ``explain`` prints); shipping it
costs one request plus its whole extent, less what the smallest
subquery's own shipping already puts on phase one's critical path.  A
difference within two requests of the slowest source is below the
estimate's resolution and keeps the paper's verdict, as do subqueries no
binding reaches.

:class:`DelayDecision` records the reason for each subquery's verdict
(:data:`DELAY_REASONS`) and, per subquery the cost rule placed, its
estimated bindings and both costs.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field
from enum import Enum

from repro.core.decomposition.subquery import Subquery
from repro.core.execution.outliers import RobustStats, robust_stats
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.net.simulator import NetworkConfig
from repro.planning.stats import CharsetStatisticsProvider
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

#: Bindings per bound-join ``VALUES`` block (a stand-in for an endpoint's
#: query-size limit): phase two ships ``ceil(bindings / MAX_BLOCK)``
#: blocks to each source.
MAX_BLOCK = 500
#: The fewest bindings per request :func:`_priced_requests` assumes.
_PRICED_MIN_BLOCK = 50


class DelayPolicy(str, Enum):
    """The threshold policies evaluated in the paper's Fig 9, and the
    cost rule built on ``mu + sigma`` (the engine's default)."""

    MU = "mu"
    MU_SIGMA = "mu+sigma"
    MU_2SIGMA = "mu+2sigma"
    OUTLIERS = "outliers"
    COST = "cost"


def _priced_requests(bindings: float, cardinality: float) -> int:
    """The requests per source the cost rule charges for binding a
    subquery of estimated cardinality ``cardinality`` to ``bindings``
    values: one per :data:`MAX_BLOCK` bindings, or, where more than one
    row per binding is expected back, one per ~:data:`MAX_BLOCK` rows of
    the extent, never more than one per :data:`_PRICED_MIN_BLOCK`
    bindings.

    Phase two ships ``ceil(bindings / MAX_BLOCK)``; the difference is a
    premium on unselective bindings.  Charging the exact count picks
    worse plans, because it lays bare two errors in the rule's inputs:
    the cardinality of a filtered star (C2P2F: 6,000 rows estimated, 30
    ship) and the payload of big literals (C2P2B: dailymed's 3.2 MB
    priced at the fallback row width).  Measured with the exact count,
    delay regret (``tests/test_delay_regret.py``) goes 1.05 → 1.13 on
    LargeRDF at scale 1 and 1.17 → 1.24 on QFed, and six of Fig 11's
    eight Lusail rows get slower.
    """
    block = MAX_BLOCK
    if bindings > 0 and cardinality / bindings > 1.0:
        floor = max(1, min(_PRICED_MIN_BLOCK, MAX_BLOCK))
        block = max(floor, min(MAX_BLOCK, int(MAX_BLOCK / (cardinality / bindings))))
    return math.ceil(bindings / block)


@dataclass(frozen=True)
class RequestCosts:
    """The virtual-time model of :class:`~repro.net.simulator.NetworkConfig`
    as the cost rule reads it: a fixed price per request and per row."""

    #: Per endpoint: round trip + request overhead + base evaluation.
    request_ms: Mapping[str, float]
    #: Evaluation + transfer per result row, at the fallback row payload.
    row_ms: float

    @classmethod
    def of(
        cls,
        network: NetworkConfig,
        federation: Federation,
        endpoints: Iterable[str],
    ) -> "RequestCosts":
        """The prices of ``endpoints``, each from its region's round trip."""
        fixed = network.request_overhead_ms + network.eval_base_ms
        return cls(
            request_ms={
                name: network.rtt(federation.get(name).region) + fixed
                for name in endpoints
            },
            row_ms=network.eval_row_ms
            + network.row_transfer_ms
            + network.response_bytes_per_row * network.byte_transfer_ms,
        )


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

    Filter-free patterns are answered from the endpoint's
    characteristic-set summary (the client's
    :class:`CharsetStatisticsProvider`) — no COUNT probe is issued, and
    with the audit on each summary estimate is compared against the
    exact local count under the ``stats`` decision label.  A pattern
    with pushable filters sends the COUNT probe with its filters.
    Probes fan out in parallel; cached probes are free.  Returns the
    estimates and the virtual completion time.
    """
    estimates = CardinalityEstimates()
    finish = at_ms
    provider = client.stats
    from_summary = 0
    mark = client.metrics.mark()
    with client.tracer.span("statistics", t0=at_ms) as span:
        for subquery in subqueries:
            for pattern in subquery.patterns:
                use_summary = not pushable_filters(pattern, subquery.filters)
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
                            # The accuracy oracle is what a COUNT probe
                            # would return: the exact local count, read
                            # without touching virtual time or counters.
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
    #: The required subquery the cost rule placed first (eager under
    #: :attr:`DelayPolicy.COST`); ``None`` when it did not run.
    seed_id: int | None = None
    #: Per subquery the cost rule placed after the seed: its estimated
    #: bindings, and the estimated virtual ms of binding it and of
    #: shipping it whole beyond the seed.
    bindings: dict[int, float] = field(default_factory=dict)
    bound_ms: dict[int, float] = field(default_factory=dict)
    ship_ms: dict[int, float] = field(default_factory=dict)


#: The reasons a :class:`DelayDecision` records.  Delayed: ``cardinality``
#: / ``endpoints`` (at or above that threshold, and above the mean),
#: ``optional`` (an OPTIONAL block's subquery), ``bound-cheaper`` (the
#: cost rule: binding it is clearly cheaper than shipping it).  Eager:
#: ``peer`` (above the cardinality threshold, but a two-subquery plan's
#: peer is not significantly smaller), ``kept-eager`` (the smallest
#: required subquery, kept eager when every one qualified or when it
#: seeds the cost rule), ``ship-cheaper`` (the cost rule: shipping it is
#: clearly cheaper), ``below``.
DELAY_REASONS = (
    "cardinality", "endpoints", "optional", "bound-cheaper",
    "peer", "kept-eager", "ship-cheaper", "below",
)
_DELAYING = ("cardinality", "endpoints", "optional", "bound-cheaper")


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
    provider: CharsetStatisticsProvider | None = None,
    costs: RequestCosts | None = None,
) -> DelayDecision:
    """Mark subqueries as delayed according to the policy.

    ``costs`` prices the cost rule's requests and rows and ``provider``
    answers its distinct-value questions; :attr:`DelayPolicy.COST` needs
    both.  Given them, a threshold policy records the same estimates for
    its own verdict, which it does not change.

    Mutates ``subquery.delayed`` and ``subquery.estimated_cardinality``;
    guarantees at least one required subquery stays non-delayed so phase
    one always produces bindings.
    """
    if policy == DelayPolicy.COST and costs is None:
        raise ValueError("the cost delay policy needs request costs")
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
        DelayPolicy.COST: 1.0,
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
    for subquery in subqueries:
        reasons.setdefault(subquery.id, "below")

    placement = _CostPlacement(estimates, projected, cardinalities, provider, costs)
    if costs is not None and required:
        placement.run(required, reasons, override=policy == DelayPolicy.COST)

    delayed_ids = set()
    for subquery in subqueries:
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
        seed_id=placement.seed_id,
        bindings=placement.bindings,
        bound_ms=placement.bound_ms,
        ship_ms=placement.ship_ms,
    )


class _CostPlacement:
    """The cost rule's walk over one branch's required subqueries (see
    the module docstring): the order phase two would bind them in, each
    one's estimated bindings, and the cost of binding vs shipping it."""

    def __init__(self, estimates, projected, cardinalities, provider, costs):
        self.estimates = estimates
        self.projected = projected
        self.cardinalities = cardinalities
        self.provider = provider
        self.costs = costs
        self.seed_id: int | None = None
        self.bindings: dict[int, float] = {}
        self.bound_ms: dict[int, float] = {}
        self.ship_ms: dict[int, float] = {}
        self._distinct: dict[tuple[int, Variable], float] = {}
        self._extents: dict[int, list[tuple[float, float]]] = {}

    def distinct(self, subquery: Subquery, variable: Variable) -> float:
        """distinct(sq, v): the summaries' distinct count, capped by
        C(sq, v) — or C(sq, v) alone where no summary answers."""
        key = (subquery.id, variable)
        known = self._distinct.get(key)
        if known is None:
            known = self.estimates.variable_cardinality(subquery, variable)
            count = self.provider.distinct_values(subquery, variable)
            if count is not None:
                known = min(known, float(count))
            self._distinct[key] = known
        return known

    def _extent(self, subquery: Subquery) -> list[tuple[float, float]]:
        """Per source: (request ms, C(sq, ep))."""
        known = self._extents.get(subquery.id)
        if known is None:
            known = self._extents[subquery.id] = [
                (
                    self.costs.request_ms[ep],
                    self.estimates.endpoint_cardinality(subquery, ep, self.projected),
                )
                for ep in subquery.sources
            ]
        return known

    def _ship(self, subquery: Subquery) -> float:
        row_ms = self.costs.row_ms
        return max(
            (request_ms + rows * row_ms for request_ms, rows in self._extent(subquery)),
            default=0.0,
        )

    def _bound(
        self, subquery: Subquery, bindings: float, variable: Variable
    ) -> tuple[float, float]:
        """(virtual ms, rows) of binding ``subquery`` to ``bindings``
        values of ``variable``: each endpoint answers the
        :func:`_priced_requests` requests and returns its share of the
        rows."""
        costs = self.costs
        cardinality = self.cardinalities[subquery.id]
        distinct = self.distinct(subquery, variable)
        rows = min(cardinality, bindings * cardinality / distinct) if distinct > 0 else 0.0
        share = rows / cardinality if cardinality > 0 else 0.0
        requests = _priced_requests(bindings, cardinality)
        ms = max(
            (
                requests * request_ms + extent * share * costs.row_ms
                for request_ms, extent in self._extent(subquery)
            ),
            default=0.0,
        )
        return ms, rows

    def run(self, required: list[Subquery], reasons: dict[int, str], override: bool) -> None:
        """Place ``required``; under ``override`` (the cost policy) the
        seed stays eager and a clear cost difference sets the verdict."""
        seed = min(required, key=lambda sq: (self.cardinalities[sq.id], sq.id))
        self.seed_id = seed.id
        if override and _delays(reasons, seed.id):
            reasons[seed.id] = "kept-eager"
        seed_ship = self._ship(seed)
        # What each placed subquery hands the next one: its rows.
        out_rows = {seed.id: self.cardinalities[seed.id]}
        placed = [seed]
        unplaced = [sq for sq in required if sq is not seed]
        while unplaced:
            best = None
            for subquery in unplaced:
                reach = self._reach(subquery, placed, out_rows)
                if reach is None:
                    continue
                key = (reach[0], self.cardinalities[subquery.id], subquery.id)
                if best is None or key < best[0]:
                    best = (key, subquery, reach[1])
            if best is None:
                return  # the rest is not connected to the seed
            (bindings, __, __), subquery, variable = best
            unplaced.remove(subquery)
            placed.append(subquery)
            bound_ms, rows = self._bound(subquery, bindings, variable)
            ship_ms = self._ship(subquery) - seed_ship
            self.bindings[subquery.id] = bindings
            self.bound_ms[subquery.id] = bound_ms
            self.ship_ms[subquery.id] = ship_ms
            margin = 2.0 * max(
                (request_ms for request_ms, __ in self._extent(subquery)), default=0.0
            )
            if override and abs(bound_ms - ship_ms) > margin:
                reasons[subquery.id] = (
                    "bound-cheaper" if bound_ms < ship_ms else "ship-cheaper"
                )
            out_rows[subquery.id] = (
                rows if _delays(reasons, subquery.id) else self.cardinalities[subquery.id]
            )

    def _reach(
        self, subquery: Subquery, placed: list[Subquery], out_rows: dict[int, float]
    ) -> tuple[float, Variable] | None:
        """The fewest bindings a placed neighbour can give ``subquery``,
        and the variable they bind; ``None`` when no neighbour shares one."""
        best = None
        own = subquery.variables()
        for neighbour in placed:
            for variable in sorted(own & neighbour.variables(), key=lambda v: v.name):
                bindings = min(out_rows[neighbour.id], self.distinct(neighbour, variable))
                if best is None or bindings < best[0]:
                    best = (bindings, variable)
        return best

