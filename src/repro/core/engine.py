"""The Lusail engine: LADE decomposition + SAPE execution.

This is the paper's system (Fig 4) end to end:

1. **Source selection** — one cached ASK per triple pattern per endpoint.
2. **Query analysis (LADE)** — detect global join variables with locality
   check queries (Alg 1), decompose each conjunctive branch into
   locality-safe subqueries (Alg 2), push filters, and collect COUNT
   statistics for the cost model.
3. **Query execution (SAPE)** — delay large subqueries (``mu + sigma``
   threshold after Chauvenet rejection, overridden by default where
   binding vs shipping clearly differs in estimated cost), evaluate
   eager subqueries concurrently, bound-join the delayed ones
   block-wise, and join results with the DP join-order optimizer
   (Alg 3).

Each branch is planned (:meth:`LusailEngine.plan_branch`) into a frozen
:class:`BranchPlan`, then run from it (:meth:`LusailEngine.run_branch`).

Configuration flags expose the paper's ablations: decomposition mode,
delay policy (``None`` turns delaying off) and Chauvenet on/off.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field, replace
from functools import partial
from itertools import chain

from repro.core.decomposition.decomposer import decompose
from repro.core.decomposition.gjv import GJVResult, detect_gjvs
from repro.core.decomposition.subquery import DecompositionPlan, Subquery
from repro.core.execution.cost_model import (
    CardinalityEstimates,
    DelayDecision,
    DelayPolicy,
    RequestCosts,
    collect_statistics,
    decide_delays,
)
from repro.core.execution.join_order import fewest_bindings, most_selective_first, plan_joins
from repro.core.execution.partial import (
    PartialBranchScheduler,
    StrategyDecision,
    choose_strategy,
)
from repro.core.execution.scheduler import BranchScheduler
from repro.endpoint.cache import EngineCaches
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.net.simulator import MediatorCostModel, NetworkConfig
from repro.planning.base_engine import DEFAULT_TIMEOUT_MS, FederatedEngine, parse_select
from repro.planning.normalize import Branch, NormalizedQuery, normalize, partition_filters
from repro.planning.source_selection import SourceSelection
from repro.planning.stats import RouteCheck
from repro.rdf.terms import Variable
from repro.rdf.triple import TriplePattern
from repro.relational.relation import Relation
from repro.sparql.ast import Expression
from repro.sparql.serializer import serialize_expression


@dataclass
class LusailConfig:
    """Engine knobs; defaults match the paper's chosen settings, except
    where a measured better rule builds on them (``delay_policy``)."""

    #: "lade" = locality-aware (the contribution); "exclusive" = schema-only
    #: exclusive groups (ablation baseline); "triple" = one subquery per
    #: triple pattern (the naive strategy of Sec II).
    decomposition: str = "lade"
    #: The paper's ``mu + sigma`` verdict, overridden where binding vs
    #: shipping clearly disagrees with it; ``MU_SIGMA`` is the paper's
    #: rule alone, and ``None`` delays nothing.
    delay_policy: DelayPolicy | None = DelayPolicy.COST
    use_chauvenet: bool = True
    max_mediator_rows: int | None = 2_000_000
    #: Multi-machine execution (paper Sec V, supported feature): the
    #: mediator's worker pool and join parallelism scale with the number
    #: of machines hosting it.
    machines: int = 1
    #: Degradation under faults (see docs/resilience.md): drop an
    #: irrecoverable endpoint's contribution instead of failing the
    #: query, reporting completeness metadata.
    partial_results: bool = False
    #: Execution strategy for required subqueries: "bound-join" is the
    #: paper's SAPE ladder, "partial" ships the whole branch to every
    #: endpoint in one round and assembles partial matches at the
    #: mediator (:mod:`repro.core.execution.partial`), and "auto" picks
    #: per branch from the charset-statistics cost estimates.
    strategy: str = "bound-join"


#: The schedulers, by the strategy a :class:`BranchPlan` names.
SCHEDULERS: dict[str, type[BranchScheduler]] = {
    "bound-join": BranchScheduler,
    "partial": PartialBranchScheduler,
}


@dataclass(frozen=True)
class BranchPlan:
    """Everything planning decided about one branch, as one value:
    :meth:`LusailEngine.explain` renders it, the scheduler is built from
    it and ``ExecutionOutcome.plan`` carries it.  It is the only holder
    of each decision: a test forces one with :func:`dataclasses.replace`
    on a planned value."""

    #: Virtual time when source selection ended / when analysis ended.
    selected_ms: float
    end_ms: float
    #: ``None`` when some required pattern has no source anywhere (the
    #: branch's answer is empty); the fields below are only set otherwise.
    decomposition: DecompositionPlan | None = None
    needed_vars: frozenset[Variable] = frozenset()
    estimates: CardinalityEstimates | None = None
    #: Which subqueries phase two binds, and each one's C(sq); under
    #: ``delay_policy=None`` the cardinalities and no delay.
    delays: DelayDecision = DelayDecision()
    #: Which of :data:`SCHEDULERS` runs the branch, and why.
    strategy: StrategyDecision | None = None
    #: Bindings per bound-join ``VALUES`` block: the block the cost rule
    #: priced and phase two ships.
    block_size: int = 0
    #: Where a bound join may send each binding: per subquery id, per
    #: source, the IRI-authority checks of
    #: :func:`repro.planning.stats.route`.  Every subquery phase two can
    #: bind has an entry (all of them, unless the branch is disjoint),
    #: so a plan forced to delay another subquery still routes it; a
    #: source with no entry receives every binding.
    routes: Mapping[int, Mapping[str, tuple[RouteCheck, ...]]] = field(default_factory=dict)
    #: The rules of the choices execution makes from measured values:
    #: each the function the scheduler calls, with the planned inputs it
    #: reads bound by :func:`functools.partial`.  ``joins(relations,
    #: subqueries)`` orders every multi-way mediator join;
    #: ``rank(candidates)`` orders phase two's ``(subquery, bindings)``
    #: and, with none measured, an OPTIONAL block's subqueries;
    #: ``binding_source(components, variables)`` picks the bindings.
    joins: Callable | None = None
    rank: Callable | None = None
    binding_source: Callable | None = None


@dataclass
class QueryPlanInfo:
    """A query's plan: one :class:`BranchPlan` per UNION branch, in
    branch order, appended as each branch is analysed."""

    branch_plans: list[BranchPlan] = field(default_factory=list)

    def _decompositions(self) -> list[DecompositionPlan]:
        return [
            plan.decomposition
            for plan in self.branch_plans
            if plan.decomposition is not None
        ]

    @property
    def gjv_names(self) -> list[str]:
        return sorted({name for plan in self._decompositions() for name in plan.gjv_names()})

    @property
    def subquery_count(self) -> int:
        return sum(len(plan.subqueries) for plan in self._decompositions())

    @property
    def check_queries(self) -> int:
        return sum(plan.check_query_count for plan in self._decompositions())


class LusailEngine(FederatedEngine):
    """Lusail: locality-aware decomposition + selectivity-aware execution."""

    name = "Lusail"

    def __init__(
        self,
        federation: Federation,
        config: LusailConfig | None = None,
        network_config: NetworkConfig | None = None,
        caches: EngineCaches | None = None,
        timeout_ms: float | None = DEFAULT_TIMEOUT_MS,
        mediator: MediatorCostModel | None = None,
    ):
        super().__init__(federation, network_config, caches, timeout_ms)
        self.config = config or LusailConfig()
        machines = max(1, self.config.machines)
        if machines > 1:
            # Each extra machine contributes its own request workers.
            self.network_config = replace(
                self.network_config,
                mediator_slots=self.network_config.mediator_slots * machines,
            )
        self.mediator = mediator or MediatorCostModel()

    # ------------------------------------------------------------ pipeline

    def _new_plan(self) -> QueryPlanInfo:
        return QueryPlanInfo()

    def plan_branch(
        self, client: FederationClient, branch: Branch, normalized: NormalizedQuery
    ) -> BranchPlan:
        """Plan one branch: sources, LADE, statistics, delays, strategy,
        routes and the execution rules.

        The one place the analysis sequence is written; :meth:`run_branch`
        and :meth:`explain` both read its result.
        """
        tracer = client.tracer
        # ---- Phase 1: source selection --------------------------------
        selection, now = self._select_branch_sources(client, branch)
        selected_ms = now
        if selection is None:
            return BranchPlan(selected_ms, now)

        # ---- Phase 2: analysis (LADE + statistics) --------------------
        with tracer.span("analysis", t0=now) as analysis_span:
            with tracer.span("decomposition", t0=now) as span:
                plan, now = self._decompose_branch(client, branch, selection, now)
                span.set(
                    subqueries=len(plan.subqueries),
                    gjvs=plan.gjv_names(),
                    check_queries=plan.check_query_count,
                ).end(now)
            needed_vars = frozenset(self._needed_variables(plan, normalized))
            estimates, now = collect_statistics(client, plan.subqueries, now)
            endpoints = {ep for sq in plan.subqueries for ep in sq.sources}
            costs = RequestCosts.of(client.config, client.federation, endpoints)
            with tracer.span("delay_decision", t0=now) as span:
                delays = decide_delays(
                    plan.subqueries,
                    estimates,
                    projected=needed_vars,
                    policy=self.config.delay_policy,
                    use_chauvenet=self.config.use_chauvenet,
                    costs=costs,
                )
                span.set(
                    policy="disabled" if delays.policy is None else delays.policy.value,
                    cardinality_threshold=delays.cardinality_threshold,
                    endpoint_threshold=delays.endpoint_threshold,
                    delayed=sorted(delays.delayed_ids),
                    chauvenet_rejected=sorted(delays.cardinality_rejected_ids),
                    estimated_cardinalities=delays.cardinalities,
                    reasons=delays.reasons,
                    bindings=delays.bindings,
                    bound_ms=delays.bound_ms,
                    ship_ms=delays.ship_ms,
                ).end(now)
            analysis_span.end(now)
        strategy = self._resolve_strategy(plan, needed_vars, estimates, delays, client)
        routes = (
            {} if plan.disjoint
            else {sq.id: client.stats.plan_routes(sq) for sq in plan.subqueries}
        )
        return BranchPlan(
            selected_ms, now, plan, needed_vars, estimates, delays, strategy, costs.block, routes,
            # ``plan_joins`` is read when planning: what the name is bound to then runs.
            partial(plan_joins, distinct=estimates.distinct),
            partial(most_selective_first, cardinalities=delays.cardinalities),
            fewest_bindings,
        )

    def _execute_branch(
        self,
        client: FederationClient,
        branch: Branch,
        normalized: NormalizedQuery,
        plan_info: QueryPlanInfo,
    ) -> tuple[Relation, float, dict[str, float]]:
        with client.tracer.span("branch", t0=0.0) as branch_span:
            branch_plan = self.plan_branch(client, branch, normalized)
            plan_info.branch_plans.append(branch_plan)
            now = branch_plan.end_ms
            phases = {"source_selection": branch_plan.selected_ms}
            if branch_plan.decomposition is None:
                # Some required pattern has no source anywhere: empty answer.
                branch_span.set(empty="no source for required pattern").end(now)
                return Relation(tuple(normalized.projected_variables())), now, phases
            phases["analysis"] = now - branch_plan.selected_ms
            relation, end = self.run_branch(client, branch_plan, now)
            phases["execution"] = end - now
            branch_span.set(rows=len(relation)).end(end)
        return relation, end, phases

    def run_branch(
        self, client: FederationClient, branch_plan: BranchPlan, at_ms: float
    ) -> tuple[Relation, float]:
        """Run one planned branch (one with sources) from ``at_ms``: its
        relation and end time.  Every choice it makes is read off
        ``branch_plan``."""
        plan = branch_plan.decomposition
        client.registry.inc("subqueries_total", len(plan.subqueries), engine=self.name)
        client.registry.inc(
            "delayed_subqueries_total", len(branch_plan.delays.delayed_ids), engine=self.name
        )
        client.registry.inc("check_queries_total", plan.check_query_count, engine=self.name)

        # ---- Phase 3: execution (SAPE or partial evaluation) -----------
        decision = branch_plan.strategy
        with client.tracer.span("execution", t0=at_ms, strategy=decision.strategy) as span:
            scheduler = SCHEDULERS[decision.strategy](
                client, branch_plan, self.mediator, self.config
            )
            outcome = scheduler.run(at_ms)
            now = outcome.end_ms + self.mediator.row_ms * outcome.join_cost_units
            if client.audit.enabled:
                estimate = decision.estimated_crossing_selectivity
                if estimate is not None:
                    # The picker's crossing-selectivity estimate
                    # against the digest-pruning survival the partial
                    # round measured (echoed where the picker chose
                    # bound-join, which measures nothing).  Recorded
                    # as percent: the q-error histogram clamps values
                    # below 1.
                    actual = outcome.crossing_selectivity
                    client.audit.record(
                        "strategy",
                        100.0 * estimate,
                        100.0 * (estimate if actual is None else actual),
                        span=span,
                        strategy=decision.strategy,
                        reason=decision.reason,
                        est_partial_rows=round(decision.est_partial_rows, 1),
                        est_bound_rows=round(decision.est_bound_rows, 1),
                    )
                # SAPE treats max C(sq) as the bound on what the
                # branch can produce; audit it against the branch's
                # actual result size.
                client.audit.record(
                    "branch_rows",
                    max(branch_plan.delays.cardinalities.values()),
                    len(outcome.relation),
                    span=span,
                )
            counters = scheduler.kernel_counters
            span.set(
                rows=len(outcome.relation),
                join_cost_units=outcome.join_cost_units,
                kernel_fast=counters.fast_dispatches,
                kernel_general=counters.general_dispatches,
                kernel_rows_emitted=counters.rows_emitted,
            ).end(now)
        client.metrics.mediator_rows = max(client.metrics.mediator_rows, len(outcome.relation))
        return outcome.relation, now

    # ------------------------------------------------------------ strategy

    def _resolve_strategy(self, plan, needed_vars, estimates, delays, client) -> StrategyDecision:
        """The picker's verdict, overruled where the configuration names
        a strategy.  The picker runs only where its verdict is read
        (``auto``) or audited (``partial``)."""
        requested = self.config.strategy
        if requested != "auto" and requested not in SCHEDULERS:
            raise ValueError(f"unknown execution strategy {requested!r}")
        if requested == "bound-join":
            return StrategyDecision(requested, reason="configured")
        decision = choose_strategy(plan, needed_vars, estimates, delays, client)
        if requested != "auto" and requested != decision.strategy:
            return replace(decision, strategy=requested, reason="forced by configuration")
        return decision

    # -------------------------------------------------------- decomposition

    def _group_patterns(
        self,
        client: FederationClient,
        patterns: list[TriplePattern],
        selection: SourceSelection,
        now: float,
    ) -> tuple[list[list[TriplePattern]], GJVResult, float]:
        """Group a required pattern set or an OPTIONAL block's into
        subqueries under the configured ``decomposition`` mode."""
        mode = self.config.decomposition
        if mode == "lade":
            gjvs, now = detect_gjvs(client, patterns, selection, now)
            return decompose(patterns, gjvs, selection), gjvs, now
        if mode == "exclusive":
            return selection.exclusive_groups(patterns), GJVResult(), now
        if mode == "triple":
            return [[pattern] for pattern in patterns], GJVResult(), now
        raise ValueError(f"unknown decomposition mode {mode!r}")

    def _decompose_branch(
        self,
        client: FederationClient,
        branch: Branch,
        selection: SourceSelection,
        now: float,
    ) -> tuple[DecompositionPlan, float]:
        subqueries: list[Subquery] = []

        def add_subqueries(groups, filters, optional_group=None) -> list:
            """One subquery per group, each filter pushed into the first
            group covering all its variables; returns the leftovers,
            which run at the mediator."""
            group_var_sets = [
                {variable for pattern in group for variable in pattern.variables()}
                for group in groups
            ]
            pushed, residue = partition_filters(filters, group_var_sets)
            for group, group_filters in zip(groups, pushed):
                subqueries.append(
                    Subquery(
                        id=len(subqueries),
                        patterns=tuple(group),
                        sources=_group_sources(group, selection),
                        filters=tuple(group_filters),
                        optional_group=optional_group,
                    )
                )
            return residue

        groups, gjvs, now = self._group_patterns(client, list(branch.patterns), selection, now)
        check_count = gjvs.check_queries_run
        residue = add_subqueries(groups, branch.filters)

        # OPTIONAL blocks are decomposed independently, under the same
        # locality rules, and tagged with their group index.
        optional_residue: dict[int, tuple] = {}
        optional_conditions: dict[int, Expression] = {}
        for index, block in enumerate(branch.optionals):
            if any(not selection.relevant(pattern) for pattern in block.patterns):
                # The block can never match anywhere: OPTIONAL contributes
                # nothing and the base rows pass through unextended.
                continue
            groups, block_gjvs, now = self._group_patterns(
                client, list(block.patterns), selection, now
            )
            check_count += block_gjvs.check_queries_run
            block_residue = add_subqueries(groups, block.filters, optional_group=index)
            if block_residue:
                optional_residue[index] = tuple(block_residue)
            if block.condition is not None:
                optional_conditions[index] = block.condition

        plan = DecompositionPlan(
            subqueries=subqueries,
            global_join_variables=dict(gjvs.variables),
            residue_filters=tuple(residue),
            optional_residue=optional_residue,
            optional_conditions=optional_conditions,
            # One subquery, hence required, and nothing left for the
            # mediator: every endpoint's answer is final.
            disjoint=len(subqueries) == 1 and not residue,
            check_query_count=check_count,
        )
        return plan, now

    # ------------------------------------------------------------- helpers

    def _needed_variables(
        self, plan: DecompositionPlan, normalized: NormalizedQuery
    ) -> set[Variable]:
        """Variables subqueries must project: final projection, join
        variables shared across subqueries, and those of every expression
        the mediator evaluates — residue filters, OPTIONAL residues and
        left-join conditions, ORDER BY."""
        needed: set[Variable] = set(normalized.projected_variables())
        for expression in chain(
            plan.residue_filters,
            *plan.optional_residue.values(),
            plan.optional_conditions.values(),
        ):
            needed |= expression.variables()
        needed |= normalized.order_variables()
        seen: dict[Variable, int] = {}
        for subquery in plan.subqueries:
            for variable in subquery.variables():
                seen[variable] = seen.get(variable, 0) + 1
        needed |= {variable for variable, count in seen.items() if count >= 2}
        return needed

    def explain(self, query) -> str:
        """Compile-time plan report: what :meth:`plan_branch` returned for
        each branch — sources, GJVs, subqueries, delays, routes and the
        execution rules.

        Runs source selection and the full LADE/SAPE analysis (issuing
        the same probe requests an execution would, and warming the same
        caches) but stops before any subquery is evaluated.
        """
        normalized = normalize(parse_select(query))
        client = self.build_client()
        lines: list[str] = []
        for branch_index, branch in enumerate(normalized.branches):
            lines.append(f"branch {branch_index}:")
            branch_plan = self.plan_branch(client, branch, normalized)
            plan, delays = branch_plan.decomposition, branch_plan.delays
            strategy = branch_plan.strategy
            if plan is None:
                lines.append("  empty: no source for required pattern")
                continue
            lines.append(f"  global join variables: {plan.gjv_names() or '(none)'}")
            lines.append(f"  check queries run: {plan.check_query_count}")
            estimate = strategy.estimated_crossing_selectivity
            lines.append(
                f"  strategy [{self.config.strategy}]: {strategy.strategy} ({strategy.reason}"
                + ("" if estimate is None else f"; est. crossing selectivity {estimate:.2f}")
                + ")"
            )
            if delays.policy is None:
                lines.append("  delay decision: disabled")
            else:
                lines.append(
                    f"  delay decision [{delays.policy.value}]: "
                    f"cardinality threshold={delays.cardinality_threshold:.1f}, "
                    f"endpoint threshold={delays.endpoint_threshold:.1f}"
                )
                rejected = {
                    "cardinality": delays.cardinality_rejected_ids,
                    "endpoints": delays.endpoint_rejected_ids,
                }
                lines.append(
                    "  chauvenet rejected: "
                    + ", ".join(
                        f"{on} {sorted(ids) if ids else '(none)'}"
                        for on, ids in rejected.items()
                    )
                )
            if plan.disjoint:
                lines.append("  disjoint: whole branch evaluated per endpoint")
            for subquery in plan.subqueries:
                tag = "OPTIONAL " if subquery.optional_group is not None else ""
                delayed = subquery.id in delays.delayed_ids
                verdict = "delayed" if delayed else "eager"
                cardinality = delays.cardinalities[subquery.id]
                details = f", endpoints={len(subquery.sources)}"
                if delays.policy is not None:
                    verdict += f": {delays.reasons[subquery.id]}"
                    comparison = ">=" if cardinality >= delays.cardinality_threshold else "<"
                    details = (
                        f" {comparison} threshold {delays.cardinality_threshold:.1f}{details}"
                    )
                    on = [name for name, ids in rejected.items() if subquery.id in ids]
                    if on:
                        details += f", chauvenet-rejected on {'+'.join(on)}"
                    if subquery.id == delays.seed_id:
                        details += ", cost seed"
                    elif subquery.id in delays.bindings:
                        details += (
                            f", est. bindings={delays.bindings[subquery.id]:.0f}, "
                            f"bound≈{delays.bound_ms[subquery.id]:.1f} ms, "
                            f"ship≈{delays.ship_ms[subquery.id]:.1f} ms"
                        )
                lines.append(
                    f"  {tag}subquery {subquery.id} [{verdict}, "
                    f"est.card={cardinality:.0f}{details}] "
                    f"sources={list(subquery.sources)}"
                )
                if delayed:
                    lines.append(
                        f"    bound-join blocks: ≤{branch_plan.block_size} bindings per source, "
                        "routed by IRI authority"
                    )
                    lines.extend(
                        _route_lines(subquery.sources, branch_plan.routes.get(subquery.id, {}))
                    )
                for pattern in subquery.patterns:
                    lines.append(f"    {pattern.n3()}")
                for expression in subquery.filters:
                    lines.append(f"    FILTER {serialize_expression(expression)}")
            for group, expression in sorted(plan.optional_conditions.items()):
                lines.append(
                    f"  OPTIONAL {group} left-join FILTER {serialize_expression(expression)}"
                )
            for expression in plan.residue_filters:
                lines.append(f"  mediator FILTER {serialize_expression(expression)}")
            lines.extend(_rule_lines(branch_plan))
        return "\n".join(lines)


def _group_sources(group: list[TriplePattern], selection: SourceSelection) -> tuple[str, ...]:
    """Relevant endpoints for a subquery.

    LADE groups guarantee identical per-pattern source lists; for the
    disjoint whole-branch case the intersection is the set of endpoints
    able to answer every pattern.
    """
    sources = set(selection.relevant(group[0]))
    for pattern in group[1:]:
        sources &= set(selection.relevant(pattern))
    # Preserve the deterministic order of the first pattern's list.
    return tuple(name for name in selection.relevant(group[0]) if name in sources)


def _rule_lines(branch_plan: BranchPlan) -> list[str]:
    """``explain``'s rendering of the execution rules: per rule, the
    function the scheduler calls and the planned inputs bound to it."""
    lines = []
    for label, rule in (
        ("join order", branch_plan.joins),
        ("phase-two rank", branch_plan.rank),
        ("binding source", branch_plan.binding_source),
    ):
        inputs = ", ".join(
            f"{name} {_planned(values)}" for name, values in getattr(rule, "keywords", {}).items()
        )
        function = getattr(rule, "func", rule)
        lines.append(f"  {label}: {function.__name__}, {inputs or 'no planned input'}")
    return lines


def _planned(values: Mapping) -> str:
    """A planned input keyed by subquery id, or by (subquery id, variable)."""
    named = {(k[0], k[1].n3()) if isinstance(k, tuple) else (k,): v for k, v in values.items()}
    return "{" + ", ".join(f"{':'.join(map(str, k))}={v:.0f}" for k, v in sorted(named.items())) + "}"


#: Authorities ``explain`` names per route check before summarising.
_NAMED_AUTHORITIES = 3


def _route_lines(
    sources: tuple[str, ...], routes: Mapping[str, tuple[RouteCheck, ...]]
) -> list[str]:
    """``explain``'s rendering of one subquery's planned routes: per
    source, each checked variable's position and allowed authorities,
    or that the source receives every binding."""
    lines = []
    for source in sources:
        rendered = []
        for variable, position, allowed in routes.get(source, ()):
            names = sorted(allowed)
            shown = ", ".join(names[:_NAMED_AUTHORITIES])
            if len(names) > _NAMED_AUTHORITIES:
                shown += f", +{len(names) - _NAMED_AUTHORITIES} more"
            rendered.append(f"{variable.n3()} {position} in {{{shown}}}")
        lines.append(f"      route to {source}: " + ("; ".join(rendered) or "every binding"))
    return lines
