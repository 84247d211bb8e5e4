"""SPARQL subset: AST, parser, serializer, compiled expressions and plans.

``evaluate`` / ``evaluate_select`` / ``evaluate_ask`` re-export the
group interpreter (:mod:`repro.sparql.evaluator`) for the tests and the
performance ledger, which use it as the answer oracle.  This is the only
module in the package that imports it.
"""

from repro.sparql.ast import (
    Arithmetic,
    AskQuery,
    BGP,
    BooleanOp,
    Comparison,
    CountAggregate,
    ExistsExpr,
    Expression,
    Filter,
    FunctionCall,
    GroupPattern,
    Not,
    OptionalPattern,
    OrderCondition,
    PatternNode,
    Query,
    SelectQuery,
    SubSelect,
    TermExpr,
    UnionPattern,
    ValuesPattern,
    VarExpr,
    ask_pattern,
    bgp_query,
)
from repro.sparql.evaluator import evaluate, evaluate_ask, evaluate_select
from repro.sparql.parser import parse_query
from repro.sparql.partial import (
    FragmentResult,
    FragmentSpec,
    PartialResult,
    PartialSpec,
    prune_rows,
)
from repro.sparql.plan import (
    CompiledPlan,
    compile_query,
    split_parameters,
)
from repro.sparql.result import SelectResult
from repro.sparql.serializer import query_bytes, serialize_expression, serialize_group, serialize_query

__all__ = [
    "Arithmetic",
    "AskQuery",
    "BGP",
    "BooleanOp",
    "Comparison",
    "CountAggregate",
    "ExistsExpr",
    "Expression",
    "Filter",
    "FunctionCall",
    "GroupPattern",
    "Not",
    "OptionalPattern",
    "OrderCondition",
    "PatternNode",
    "Query",
    "SelectQuery",
    "SelectResult",
    "SubSelect",
    "TermExpr",
    "UnionPattern",
    "ValuesPattern",
    "VarExpr",
    "CompiledPlan",
    "FragmentResult",
    "FragmentSpec",
    "PartialResult",
    "PartialSpec",
    "ask_pattern",
    "bgp_query",
    "compile_query",
    "evaluate",
    "split_parameters",
    "evaluate_ask",
    "evaluate_select",
    "parse_query",
    "prune_rows",
    "query_bytes",
    "serialize_expression",
    "serialize_group",
    "serialize_query",
]
