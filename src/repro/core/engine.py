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

Configuration flags expose the paper's ablations: decomposition mode,
delay policy, Chauvenet on/off, DP vs greedy join ordering, source
refinement, and caching.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field, replace
from itertools import chain

from repro.core.decomposition.decomposer import decompose, enumerate_decompositions
from repro.core.decomposition.gjv import GJVResult, detect_gjvs
from repro.core.decomposition.subquery import DecompositionPlan, Subquery
from repro.core.execution.cost_model import (
    MAX_BLOCK,
    CardinalityEstimates,
    DelayDecision,
    DelayPolicy,
    RequestCosts,
    collect_statistics,
    decide_delays,
)
from repro.core.execution.partial import (
    PartialBranchScheduler,
    StrategyDecision,
    choose_strategy,
)
from repro.core.execution.scheduler import POOL_SIZE, BranchScheduler
from repro.endpoint.cache import EngineCaches
from repro.endpoint.client import FederationClient
from repro.endpoint.federation import Federation
from repro.net.simulator import MediatorCostModel, NetworkConfig
from repro.planning.base_engine import DEFAULT_TIMEOUT_MS, FederatedEngine, parse_select
from repro.planning.normalize import Branch, NormalizedQuery, normalize, partition_filters
from repro.planning.source_selection import SourceSelection
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
    #: rule alone.
    delay_policy: DelayPolicy = DelayPolicy.COST
    use_chauvenet: bool = True
    enable_delay: bool = True
    refine_sources: bool = True
    greedy_join_order: bool = False
    max_mediator_rows: int | None = 2_000_000
    #: Compile-time decomposition choice (the paper's stated future
    #: work): enumerate the decompositions reachable by different GJV
    #: traversal orders and pick the one with the smallest estimated
    #: intermediate results.
    optimize_decomposition: bool = False
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
    it and ``ExecutionOutcome.plan`` carries it."""

    #: Virtual time when source selection ended / when analysis ended.
    selected_ms: float
    end_ms: float
    #: ``None`` when some required pattern has no source anywhere (the
    #: branch's answer is empty); the fields below are only set otherwise.
    decomposition: DecompositionPlan | None = None
    needed_vars: frozenset[Variable] = frozenset()
    estimates: CardinalityEstimates | None = None
    #: ``None`` under ``enable_delay=False``.
    delays: DelayDecision | None = None
    #: Which of :data:`SCHEDULERS` runs the branch, and why.
    strategy: StrategyDecision | None = None


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
    def delayed_count(self) -> int:
        return sum(sq.delayed for plan in self._decompositions() for sq in plan.subqueries)

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
        self.mediator = mediator or MediatorCostModel(
            threads=POOL_SIZE * machines
        )
        #: The batch cache every scheduler of this engine consults; set
        #: only on the engine value :meth:`sharing` returns.
        self.shared = None

    # ------------------------------------------------------------ pipeline

    def _new_plan(self) -> QueryPlanInfo:
        return QueryPlanInfo()

    def _analyze_branch(
        self, client: FederationClient, branch: Branch, normalized: NormalizedQuery
    ) -> BranchPlan:
        """Plan one branch: sources, LADE, statistics, delays, strategy.

        The one place the analysis sequence is written; execution and
        :meth:`explain` both read its result.
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
            with tracer.span("delay_decision", t0=now) as span:
                delays = None
                if self.config.enable_delay:
                    costs = RequestCosts.of(
                        client.config,
                        client.federation,
                        {ep for sq in plan.subqueries for ep in sq.sources},
                    )
                    delays = decide_delays(
                        plan.subqueries,
                        estimates,
                        projected=needed_vars,
                        policy=self.config.delay_policy,
                        use_chauvenet=self.config.use_chauvenet,
                        provider=client.stats,
                        costs=costs,
                    )
                    span.set(
                        policy=str(self.config.delay_policy.value),
                        cardinality_threshold=delays.cardinality_threshold,
                        endpoint_threshold=delays.endpoint_threshold,
                        delayed=sorted(delays.delayed_ids),
                        chauvenet_rejected=sorted(delays.cardinality_rejected_ids),
                        estimated_cardinalities=delays.cardinalities,
                        reasons=delays.reasons,
                        bindings=delays.bindings,
                        bound_ms=delays.bound_ms,
                        ship_ms=delays.ship_ms,
                    )
                else:
                    for subquery in plan.subqueries:
                        subquery.estimated_cardinality = estimates.subquery_cardinality(
                            subquery, needed_vars
                        )
                        subquery.delayed = False
                    span.set(policy="disabled", delayed=[])
                span.end(now)
            analysis_span.end(now)
        strategy = self._resolve_strategy(plan, needed_vars, estimates, client)
        return BranchPlan(selected_ms, now, plan, needed_vars, estimates, delays, strategy)

    def _execute_branch(
        self,
        client: FederationClient,
        branch: Branch,
        normalized: NormalizedQuery,
        plan_info: QueryPlanInfo,
    ) -> tuple[Relation, float, dict[str, float]]:
        tracer = client.tracer
        with tracer.span("branch", t0=0.0) as branch_span:
            branch_plan = self._analyze_branch(client, branch, normalized)
            plan_info.branch_plans.append(branch_plan)
            plan, now = branch_plan.decomposition, branch_plan.end_ms
            phases = {"source_selection": branch_plan.selected_ms}
            if plan is None:
                # Some required pattern has no source anywhere: empty answer.
                branch_span.set(empty="no source for required pattern").end(now)
                return Relation(tuple(normalized.projected_variables())), now, phases
            phases["analysis"] = now - branch_plan.selected_ms

            client.registry.inc("subqueries_total", len(plan.subqueries), engine=self.name)
            client.registry.inc(
                "delayed_subqueries_total",
                sum(sq.delayed for sq in plan.subqueries),
                engine=self.name,
            )
            client.registry.inc(
                "check_queries_total", plan.check_query_count, engine=self.name
            )

            # ---- Phase 3: execution (SAPE or partial evaluation) -------
            execution_start = now
            decision = branch_plan.strategy
            with tracer.span(
                "execution", t0=now, strategy=decision.strategy
            ) as span:
                scheduler = SCHEDULERS[decision.strategy](
                    client, branch_plan, self.mediator, self.config, self.shared
                )
                outcome = scheduler.run(now)
                now = outcome.end_ms + self.mediator.row_ms * outcome.join_cost_units
                if client.audit.enabled:
                    # The picker's crossing-selectivity estimate against
                    # the digest-pruning survival the partial round
                    # actually measured (echoed for bound-join runs,
                    # where nothing measures it).  Recorded as percent:
                    # the q-error histogram clamps values below 1.
                    actual = outcome.crossing_selectivity
                    if actual is None:
                        actual = decision.estimated_crossing_selectivity
                    client.audit.record(
                        "strategy",
                        100.0 * decision.estimated_crossing_selectivity,
                        100.0 * actual,
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
                        max(sq.estimated_cardinality for sq in plan.subqueries),
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
            phases["execution"] = now - execution_start
            client.metrics.mediator_rows = max(
                client.metrics.mediator_rows, len(outcome.relation)
            )
            branch_span.set(rows=len(outcome.relation)).end(now)
        return outcome.relation, now, phases

    # ------------------------------------------------------------ strategy

    def _resolve_strategy(self, plan, needed_vars, estimates, client) -> StrategyDecision:
        """The picker's verdict, overruled where the configuration names
        a strategy or a batch cache is present: partial evaluation ships
        whole branches, which leaves no subquery relation to share."""
        requested = self.config.strategy
        if requested != "auto" and requested not in SCHEDULERS:
            raise ValueError(f"unknown execution strategy {requested!r}")
        decision = choose_strategy(plan, needed_vars, estimates, client)
        if self.shared is not None:
            return replace(
                decision,
                strategy="bound-join",
                reason="subqueries shared across a batch (multi-query optimizer)",
            )
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
        required: bool,
    ) -> tuple[list[list[TriplePattern]], GJVResult, float]:
        """Group a required pattern set or an OPTIONAL block's into
        subqueries under the configured ``decomposition`` mode."""
        mode = self.config.decomposition
        if mode == "lade":
            gjvs, now = detect_gjvs(client, patterns, selection, now)
            if required and self.config.optimize_decomposition and gjvs.variables:
                groups, now = self._choose_decomposition(
                    client, patterns, gjvs, selection, now
                )
            else:
                groups = decompose(patterns, gjvs, selection)
            return groups, gjvs, now
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

        groups, gjvs, now = self._group_patterns(
            client, list(branch.patterns), selection, now, required=True
        )
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
                client, list(block.patterns), selection, now, required=False
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

    def _choose_decomposition(
        self,
        client: FederationClient,
        patterns: list[TriplePattern],
        gjvs,
        selection: SourceSelection,
        now: float,
    ) -> tuple[list[list[TriplePattern]], float]:
        """Pick the decomposition with the smallest estimated
        intermediate results (the paper's Sec IV-C future work).

        Candidates come from permuting the GJV traversal order; each is
        scored with the SAPE cardinality rule over per-pattern COUNT
        statistics (collected once, cached).
        """
        candidates = enumerate_decompositions(patterns, gjvs, selection)
        if len(candidates) == 1:
            return candidates[0], now
        probes = [
            Subquery(id=index, patterns=(pattern,), sources=selection.relevant(pattern))
            for index, pattern in enumerate(patterns)
        ]
        estimates, now = collect_statistics(client, probes, now)

        def score(groups: list[list[TriplePattern]]) -> tuple[float, int]:
            total = 0.0
            for index, group in enumerate(groups):
                subquery = Subquery(
                    id=index,
                    patterns=tuple(group),
                    sources=_group_sources(group, selection),
                )
                total += estimates.subquery_cardinality(subquery, set())
            return (total, len(groups))

        best = min(candidates, key=score)
        return best, now

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
        """Compile-time plan report: sources, GJVs, subqueries, delays.

        Runs source selection and the full LADE/SAPE analysis (issuing
        the same probe requests an execution would, and warming the same
        caches) but stops before any subquery is evaluated.
        """
        normalized = normalize(parse_select(query))
        client = self.build_client()
        lines: list[str] = []
        for branch_index, branch in enumerate(normalized.branches):
            lines.append(f"branch {branch_index}:")
            branch_plan = self._analyze_branch(client, branch, normalized)
            plan, delays = branch_plan.decomposition, branch_plan.delays
            strategy = branch_plan.strategy
            if plan is None:
                lines.append("  empty: no source for required pattern")
                continue
            lines.append(f"  global join variables: {plan.gjv_names() or '(none)'}")
            lines.append(f"  check queries run: {plan.check_query_count}")
            lines.append(
                f"  strategy [{self.config.strategy}]: "
                f"{strategy.strategy} ({strategy.reason}; "
                f"est. crossing selectivity "
                f"{strategy.estimated_crossing_selectivity:.2f})"
            )
            if delays is None:
                lines.append("  delay decision: disabled")
            else:
                lines.append(
                    f"  delay decision [{self.config.delay_policy.value}]: "
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
                verdict = "delayed" if subquery.delayed else "eager"
                cardinality = subquery.estimated_cardinality
                details = f", endpoints={len(subquery.sources)}"
                if delays is not None:
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
                if subquery.delayed:
                    lines.append(
                        f"    bound-join blocks: ≤{MAX_BLOCK} bindings per source, "
                        "routed by IRI authority"
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
        return "\n".join(lines)

    def with_config(self, **overrides) -> "LusailEngine":
        """A copy of this engine with config overrides (fresh caches)."""
        return LusailEngine(
            federation=self.federation,
            config=replace(self.config, **overrides),
            network_config=self.network_config,
            timeout_ms=self.timeout_ms,
            mediator=self.mediator,
        )

    def sharing(self, shared) -> "LusailEngine":
        """This engine as one batch runs it: the same federation, config,
        caches, statistics and sinks, every scheduler it builds consulting
        ``shared`` (a :class:`~repro.core.mqo.SharedSubqueryCache`).  The
        receiver is not modified."""
        twin = copy.copy(self)
        twin.shared = shared
        return twin


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
