"""Mediator-side relational algebra over solution sets."""

from repro.relational.kernels import KernelCounters, kernel_runtime
from repro.relational.relation import Relation, RowStore, mediator_codec

__all__ = [
    "KernelCounters",
    "Relation",
    "RowStore",
    "kernel_runtime",
    "mediator_codec",
]
