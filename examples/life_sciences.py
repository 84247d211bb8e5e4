"""Federated life-science queries over QFed-style endpoints.

Builds the four interlinked QFed endpoints (Diseasome, DrugBank,
DailyMed, Sider) and answers the paper's Drug query: medicines that
target asthma with optional marketed-drug details — the query of the
paper's Sec II motivation experiment.

It then shows how LADE decomposes the query and how SAPE delays the
low-selectivity OPTIONAL subquery until drug bindings are known.

Run:  python examples/life_sciences.py
"""

from repro.core.engine import LusailEngine
from repro.datasets import qfed


def main() -> None:
    federation = qfed.build_federation(
        diseases=80, drugs=200, marketed=160, side_effects=240, drugs_per_disease=8
    )
    print("QFed federation:")
    for endpoint in federation:
        print(f"  {endpoint.name:10s} {len(endpoint.store):6d} triples")

    engine = LusailEngine(federation)
    outcome = engine.execute(qfed.drug_query())

    print(f"\nDrug query: {len(outcome.result)} medicines target asthma")
    for row in outcome.result.rows[:8]:
        drug, name, medicine, route = row
        marketed = f"marketed as {medicine.local_name} ({route.value})" if medicine else "not marketed"
        print(f"  {name.value:12s} -> {marketed}")

    branch = outcome.plan.branch_plans[0]
    delays = branch.delays
    print("\nLADE decomposition:")
    for subquery in branch.decomposition.subqueries:
        kind = "OPTIONAL" if subquery.optional_group is not None else "required"
        delayed = "delayed" if subquery.id in delays.delayed_ids else "eager"
        predicates = ", ".join(
            getattr(p.predicate, "local_name", "?") for p in subquery.patterns
        )
        print(
            f"  subquery {subquery.id} [{kind}, {delayed}] "
            f"patterns=({predicates}) sources={list(subquery.sources)} "
            f"estimated cardinality={delays.cardinalities[subquery.id]:.0f}"
        )

    print(
        f"\n{outcome.metrics.request_count()} remote requests, "
        f"{outcome.metrics.rows_shipped()} rows shipped, "
        f"{outcome.metrics.virtual_ms:.2f} virtual ms"
    )

    # The C2P2 family: FILTER / big-literal / OPTIONAL variants.
    print("\nC2P2 query family:")
    for name, text in qfed.queries().items():
        result = engine.execute(text)
        print(
            f"  {name:8s} rows={len(result.result):5d} "
            f"requests={result.metrics.request_count():4d} "
            f"virtual_ms={result.metrics.virtual_ms:8.2f}"
        )


if __name__ == "__main__":
    main()
