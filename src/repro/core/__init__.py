"""Lusail core: locality-aware decomposition and selectivity-aware execution."""

from repro.core.engine import LusailConfig, LusailEngine, QueryPlanInfo

__all__ = ["LusailConfig", "LusailEngine", "QueryPlanInfo"]
