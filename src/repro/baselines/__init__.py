"""Baseline federated engines: FedX, SPLENDID, HiBISCuS, ANAPSID."""

from repro.baselines.anapsid import AnapsidConfig, AnapsidEngine
from repro.baselines.bound_join import DEFAULT_BLOCK_SIZE, bound_join, evaluate_operand
from repro.baselines.fedx import FedXConfig, FedXEngine
from repro.baselines.hibiscus import AuthoritySummary, HibiscusEngine, build_authority_index
from repro.baselines.operands import build_operands, order_operands
from repro.baselines.pipeline import OperandEngine
from repro.baselines.splendid import SplendidConfig, SplendidEngine
from repro.baselines.void_index import EndpointVoid, VoidIndex, build_void_index

__all__ = [
    "AnapsidConfig",
    "AnapsidEngine",
    "AuthoritySummary",
    "DEFAULT_BLOCK_SIZE",
    "EndpointVoid",
    "FedXConfig",
    "FedXEngine",
    "HibiscusEngine",
    "OperandEngine",
    "SplendidConfig",
    "SplendidEngine",
    "VoidIndex",
    "bound_join",
    "build_authority_index",
    "build_operands",
    "build_void_index",
    "evaluate_operand",
    "order_operands",
]
