"""One function per paper table/figure; the ``benchmarks/`` suite calls
these and prints the same rows/series the paper reports.

Scales are chosen so that pure-Python endpoints stay fast while the
*shape* of every result matches the paper: who wins, by roughly what
factor, and where systems fail (TIMEOUT/OOM).  See EXPERIMENTS.md for
the paper-vs-measured record.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from repro.baselines.hibiscus import build_authority_index
from repro.baselines.void_index import build_void_index
from repro.core.engine import LusailConfig, LusailEngine
from repro.core.execution.cost_model import DelayPolicy
from repro.core.execution.scheduler import POOL_SIZE
from repro.datasets import bio2rdf, largerdf, lubm, qfed, queries_largerdf
from repro.endpoint.cache import EngineCaches
from repro.endpoint.federation import Federation
from repro.harness.runner import (
    DEFAULT_TIMEOUT_MS,
    RunResult,
    make_engines,
    run_matrix,
    run_query,
)
from repro.net.simulator import geo_distributed_config

GEO_TIMEOUT_MS = 300_000.0


# --------------------------------------------------------------------------
# Cached federations (building them is the expensive part).


@lru_cache(maxsize=None)
def qfed_federation(scale: str = "bench", geo: bool = False) -> Federation:
    if scale == "bench":
        return qfed.build_federation(
            diseases=200, drugs=600, marketed=500, side_effects=600,
            big_literal_words=600, drugs_per_disease=30, seed=42, geo=geo,
        )
    return qfed.build_federation(seed=42, geo=geo)


@lru_cache(maxsize=None)
def lubm_federation(universities: int, profile: str = "bench", geo: bool = False) -> Federation:
    profiles = {
        "small": lubm.SMALL_PROFILE,
        "bench": lubm.BENCH_PROFILE,
        "tiny": lubm.TINY_PROFILE,
    }
    return lubm.build_federation(universities, profile=profiles[profile], seed=42, geo=geo)


@lru_cache(maxsize=None)
def largerdf_federation(scale: float = 1.6, geo: bool = False) -> Federation:
    return largerdf.build_federation(scale=scale, seed=42, geo=geo)


@lru_cache(maxsize=None)
def bio2rdf_federation(geo: bool = True) -> Federation:
    return bio2rdf.build_federation(seed=42, geo=geo)


# --------------------------------------------------------------------------
# Fig 3 — FedX sensitivity to the number of endpoints.


def fig03_fedx_sensitivity() -> list[dict]:
    """Runtime and request count of FedX vs number of endpoints.

    Expected shape: both grow together, roughly linearly — remote
    requests are the bottleneck (paper Sec II).
    """
    rows: list[dict] = []

    # Drug query over growing subsets of the QFed federation.
    full = qfed_federation()
    names = full.names()
    for count in range(1, len(names) + 1):
        federation = full.subset(names[:count])
        engines = make_engines(federation, which=("FedX",))
        result = run_query(engines["FedX"], "Drug", qfed.drug_query())
        rows.append(
            {
                "query": "Drug",
                "endpoints": count,
                "virtual_ms": result.virtual_ms,
                "requests": result.requests,
                "status": result.status,
            }
        )

    # LUBM Q2 over a growing number of universities.
    for count in (2, 4, 8, 16):
        federation = lubm_federation(count)
        engines = make_engines(federation, which=("FedX",))
        result = run_query(engines["FedX"], "Q2", lubm.query_q2())
        rows.append(
            {
                "query": "LUBM-Q2",
                "endpoints": count,
                "virtual_ms": result.virtual_ms,
                "requests": result.requests,
                "status": result.status,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Table I — dataset statistics.


def table01_datasets() -> list[dict]:
    rows: list[dict] = []
    for benchmark, federation in (
        ("QFed", qfed_federation()),
        ("LargeRDFBench", largerdf_federation()),
        ("LUBM(16)", lubm_federation(16)),
    ):
        for endpoint in federation:
            rows.append(
                {
                    "benchmark": benchmark,
                    "endpoint": endpoint.name,
                    "triples": len(endpoint.store),
                }
            )
        rows.append(
            {
                "benchmark": benchmark,
                "endpoint": "TOTAL",
                "triples": federation.total_triples(),
            }
        )
    return rows


# --------------------------------------------------------------------------
# Preprocessing cost (Sec VI-A).


def preprocessing_cost() -> list[dict]:
    """Index-construction time: SPLENDID/HiBISCuS pay, Lusail/FedX do not."""
    import time

    rows: list[dict] = []
    for benchmark, federation in (
        ("QFed", qfed_federation()),
        ("LargeRDFBench", largerdf_federation()),
    ):
        start = time.perf_counter()
        build_void_index(federation)
        splendid_ms = (time.perf_counter() - start) * 1000.0
        start = time.perf_counter()
        build_authority_index(federation)
        hibiscus_ms = (time.perf_counter() - start) * 1000.0
        rows.append(
            {
                "benchmark": benchmark,
                "triples": federation.total_triples(),
                "SPLENDID_ms": splendid_ms,
                "HiBISCuS_ms": hibiscus_ms,
                "Lusail_ms": 0.0,
                "FedX_ms": 0.0,
            }
        )
    return rows


# --------------------------------------------------------------------------
# Fig 9 — delayed-subquery threshold policies.


def fig09_thresholds() -> list[dict]:
    """Total per-category time for each delay policy (geo): the paper's
    four thresholds, then the default ``cost`` rule built on ``mu + sigma``.

    Expected shape: ``mu + sigma`` is consistently good; ``mu`` hurts
    large queries (too much delaying), ``mu+2sigma`` / outliers hurt
    simple and complex queries (too little delaying).
    """
    # Hub datasets scaled up: like the real LargeRDFBench (GeoNames
    # holds 108M triples), the hubs dwarf what each query touches, which
    # is the regime where delaying matters.
    federation = largerdf.build_federation(scale=1.0, seed=42, geo=True, hub_scale=25.0)
    config = geo_distributed_config()
    rows: list[dict] = []
    for policy in DelayPolicy:
        for category in ("S", "C", "B"):
            queries = queries_largerdf.by_category(category)
            engine = LusailEngine(
                federation,
                config=LusailConfig(delay_policy=policy),
                network_config=config,
                timeout_ms=GEO_TIMEOUT_MS,
            )
            total = 0.0
            failures = 0
            for name, text in queries.items():
                result = run_query(engine, name, text, repeats=1)
                if result.ok:
                    total += result.virtual_ms
                else:
                    failures += 1
                    total += GEO_TIMEOUT_MS
            rows.append(
                {
                    "policy": policy.value,
                    "category": category,
                    "total_virtual_ms": total,
                    "failures": failures,
                }
            )
    return rows


# --------------------------------------------------------------------------
# Fig 10 — profiling Lusail's phases.


def fig10a_phase_profile() -> list[dict]:
    """Phase breakdown for S10 (simple), C4 (complex), B1 (large)."""
    federation = largerdf_federation()
    rows: list[dict] = []
    for name in ("S10", "C4", "B1"):
        text = queries_largerdf.all_queries()[name]
        engine = LusailEngine(federation, timeout_ms=DEFAULT_TIMEOUT_MS)
        # Cold run: the paper's phase profile includes the probe phases.
        result = run_query(engine, name, text, repeats=1, warm=False)
        rows.append(
            {
                "query": name,
                "source_selection_ms": result.phase_ms.get("source_selection", 0.0),
                "analysis_ms": result.phase_ms.get("analysis", 0.0),
                "execution_ms": result.phase_ms.get("execution", 0.0),
                "total_ms": result.virtual_ms,
            }
        )
    return rows


def fig10bc_endpoint_scaling(endpoint_counts: tuple[int, ...] = (4, 16, 64, 256)) -> list[dict]:
    """Q3/Q4 phases vs number of endpoints, with and without caching."""
    rows: list[dict] = []
    for count in endpoint_counts:
        federation = lubm_federation(count, profile="tiny")
        for query_name, text in (("Q3", lubm.query_q3()), ("Q4", lubm.query_q4())):
            for cached in (True, False):
                caches = EngineCaches() if cached else EngineCaches.disabled()
                engine = LusailEngine(
                    federation, caches=caches, timeout_ms=DEFAULT_TIMEOUT_MS * 10
                )
                result = run_query(engine, query_name, text, repeats=1, warm=cached)
                rows.append(
                    {
                        "query": query_name,
                        "endpoints": count,
                        "cache": "on" if cached else "off",
                        "source_selection_ms": result.phase_ms.get("source_selection", 0.0),
                        "analysis_ms": result.phase_ms.get("analysis", 0.0),
                        "execution_ms": result.phase_ms.get("execution", 0.0),
                        "total_ms": result.virtual_ms,
                        "status": result.status,
                    }
                )
    return rows


# --------------------------------------------------------------------------
# Fig 11 — QFed, all systems.


def fig11_qfed(config: LusailConfig | None = None) -> list[RunResult]:
    federation = qfed_federation()
    engines = make_engines(federation, lusail_config=config)
    return run_matrix(engines, qfed.queries())


# --------------------------------------------------------------------------
# Fig 12 — LUBM on 2 and 4 endpoints, all systems.


def fig12_lubm(
    universities: int, config: LusailConfig | None = None
) -> list[RunResult]:
    federation = lubm_federation(universities)
    engines = make_engines(federation, lusail_config=config)
    return run_matrix(engines, lubm.queries())


# --------------------------------------------------------------------------
# Fig 13 — LargeRDFBench, all systems, local cluster.


def fig13_largerdfbench(
    category: str | None = None,
    scale: float = 1.6,
    config: LusailConfig | None = None,
) -> list[RunResult]:
    federation = largerdf_federation(scale=scale)
    engines = make_engines(federation, lusail_config=config)
    if category is None:
        queries = queries_largerdf.paper_selection()
    else:
        queries = queries_largerdf.by_category(category)
    return run_matrix(engines, queries)


# --------------------------------------------------------------------------
# Fig 14 — geo-distributed federation.


def fig14_geo_largerdf(category: str) -> list[RunResult]:
    federation = largerdf_federation(scale=1.0, geo=True)
    engines = make_engines(
        federation, network_config=geo_distributed_config(), timeout_ms=GEO_TIMEOUT_MS
    )
    return run_matrix(engines, queries_largerdf.by_category(category))


def fig14c_geo_lubm(config: LusailConfig | None = None) -> list[RunResult]:
    federation = lubm_federation(2, geo=True)
    engines = make_engines(
        federation,
        network_config=geo_distributed_config(),
        timeout_ms=GEO_TIMEOUT_MS,
        lusail_config=config,
    )
    return run_matrix(engines, lubm.queries())


# --------------------------------------------------------------------------
# Sec VI-D — real (Bio2RDF-style) endpoints.


def real_endpoints(config: LusailConfig | None = None) -> list[RunResult]:
    federation = bio2rdf_federation(geo=True)
    engines = make_engines(
        federation,
        which=("Lusail", "FedX"),
        network_config=geo_distributed_config(),
        timeout_ms=GEO_TIMEOUT_MS,
        lusail_config=config,
    )
    return run_matrix(engines, bio2rdf.queries())


# --------------------------------------------------------------------------
# Ablations (design choices called out in DESIGN.md).


@dataclass
class AblationVariant:
    name: str
    config: LusailConfig = field(default_factory=LusailConfig)


ABLATION_VARIANTS = (
    AblationVariant("full", LusailConfig()),
    AblationVariant("no-lade (exclusive groups)", LusailConfig(decomposition="exclusive")),
    AblationVariant("no-lade (per-triple)", LusailConfig(decomposition="triple")),
    AblationVariant("no-delay", LusailConfig(enable_delay=False)),
    AblationVariant("no-chauvenet", LusailConfig(use_chauvenet=False)),
    AblationVariant("greedy-join-order", LusailConfig(greedy_join_order=True)),
    AblationVariant("no-source-refinement", LusailConfig(refine_sources=False)),
    AblationVariant(
        "optimized-decomposition", LusailConfig(optimize_decomposition=True)
    ),
)


def multi_machine(machine_counts: tuple[int, ...] = (1, 2, 4)) -> list[dict]:
    """Multi-machine mediator execution on join-heavy big queries.

    Expected shape: execution time of mediator-join-dominated queries
    drops as machines are added, while probe/transfer time is unchanged.
    """
    from repro.net.simulator import MediatorCostModel

    federation = largerdf_federation(scale=1.0)
    rows: list[dict] = []
    for machines in machine_counts:
        config = LusailConfig(machines=machines)
        engine = LusailEngine(
            federation,
            config=config,
            timeout_ms=DEFAULT_TIMEOUT_MS,
            # Join-heavy queries: model a mediator whose per-row join work
            # is non-negligible so machine scaling is observable.
            mediator=MediatorCostModel(row_ms=0.01, threads=POOL_SIZE * machines),
        )
        for name in ("B3", "B7"):
            text = queries_largerdf.BIG[name]
            result = run_query(engine, name, text)
            rows.append(
                {
                    "machines": machines,
                    "query": name,
                    "virtual_ms": result.virtual_ms,
                    "execution_ms": result.phase_ms.get("execution", 0.0),
                    "status": result.status,
                }
            )
    return rows


def ablation(queries: dict[str, str] | None = None) -> list[dict]:
    """Lusail variants on a representative mixed workload."""
    if queries is None:
        queries = {
            "LUBM-Q1": lubm.query_q1(),
            "LUBM-Q4": lubm.query_q4(),
            "LRB-C1": queries_largerdf.COMPLEX["C1"],
            "LRB-B3": queries_largerdf.BIG["B3"],
        }
    rows: list[dict] = []
    lubm_fed = lubm_federation(4)
    lrb_fed = largerdf_federation(scale=1.0)
    for variant in ABLATION_VARIANTS:
        for name, text in queries.items():
            federation = lubm_fed if name.startswith("LUBM") else lrb_fed
            engine = LusailEngine(
                federation, config=variant.config, timeout_ms=DEFAULT_TIMEOUT_MS
            )
            result = run_query(engine, name, text)
            rows.append(
                {
                    "variant": variant.name,
                    "query": name,
                    "virtual_ms": result.virtual_ms,
                    "requests": result.requests,
                    "rows_shipped": result.rows_shipped,
                    "status": result.status,
                }
            )
    return rows
