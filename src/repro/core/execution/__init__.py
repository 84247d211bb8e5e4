"""SAPE: cost model, delayed subqueries, scheduling, and join ordering."""

from repro.core.execution.cost_model import (
    CardinalityEstimates,
    DelayDecision,
    DelayPolicy,
    RequestCosts,
    collect_statistics,
    count_query,
    decide_delays,
)
from repro.core.execution.join_order import JoinPlanNode, execute_plan, plan_joins
from repro.core.execution.outliers import RobustStats, chauvenet_outliers, robust_stats
from repro.core.execution.partial import PartialBranchScheduler, StrategyDecision, choose_strategy
from repro.core.execution.request_handler import ElasticRequestHandler
from repro.core.execution.scheduler import BranchOutcome, BranchScheduler

__all__ = [
    "BranchOutcome",
    "BranchScheduler",
    "PartialBranchScheduler",
    "StrategyDecision",
    "CardinalityEstimates",
    "DelayDecision",
    "DelayPolicy",
    "RequestCosts",
    "ElasticRequestHandler",
    "JoinPlanNode",
    "RobustStats",
    "chauvenet_outliers",
    "choose_strategy",
    "collect_statistics",
    "count_query",
    "decide_delays",
    "execute_plan",
    "plan_joins",
    "robust_stats",
]
