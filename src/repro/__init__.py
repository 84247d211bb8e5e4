"""repro — a reproduction of Lusail (ICDE 2017).

Lusail is a system for scalable SPARQL query processing over decentralized
RDF graphs.  This package rebuilds the full system in Python:

* :mod:`repro.rdf`, :mod:`repro.store`, :mod:`repro.sparql` — the RDF /
  SPARQL substrate that plays the role of the paper's Jena Fuseki and
  Virtuoso endpoints;
* :mod:`repro.net`, :mod:`repro.endpoint` — a deterministic virtual-time
  network and federation layer;
* :mod:`repro.core` — Lusail itself: locality-aware decomposition (LADE)
  and selectivity-aware parallel execution (SAPE);
* :mod:`repro.baselines` — FedX, SPLENDID, HiBISCuS and ANAPSID
  re-implementations;
* :mod:`repro.datasets` — LUBM / QFed / LargeRDFBench / Bio2RDF-style
  workload generators;
* :mod:`repro.harness` — the experiment runner behind ``benchmarks/``.

Quick start::

    from repro import Federation, LusailEngine
    from repro.datasets import lubm

    federation = lubm.build_federation(universities=2, seed=7)
    engine = LusailEngine(federation)
    outcome = engine.execute(lubm.query_q1())
    print(len(outcome.result), "rows in", outcome.metrics.virtual_ms, "virtual ms")
"""

__version__ = "1.0.0"


def __getattr__(name):
    # Lazy imports keep `import repro` cheap and avoid circular imports
    # while still offering the flat convenience API.
    if name in ("Federation", "Endpoint"):
        from repro import endpoint as _endpoint

        return getattr(_endpoint, name)
    if name == "LusailEngine":
        from repro.core.engine import LusailEngine

        return LusailEngine
    if name in ("FedXEngine", "SplendidEngine", "HibiscusEngine"):
        from repro import baselines as _baselines

        return getattr(_baselines, name)
    if name == "parse_query":
        from repro.sparql import parse_query

        return parse_query
    raise AttributeError(f"module 'repro' has no attribute {name!r}")


__all__ = [
    "Endpoint",
    "Federation",
    "FedXEngine",
    "HibiscusEngine",
    "LusailEngine",
    "SplendidEngine",
    "parse_query",
    "__version__",
]
