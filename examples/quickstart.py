"""Quickstart: build a two-endpoint decentralized graph and query it.

Recreates the paper's running example (Figs 1-2): two universities with
their own SPARQL endpoints, an interlink (Tim's PhD is from MIT, which is
described at the other endpoint), and the query Qa that must traverse it.

Run:  python examples/quickstart.py
"""

from repro.core.engine import LusailEngine
from repro.endpoint import Endpoint, Federation
from repro.rdf import Literal, Namespace, Triple, UB

MIT = Namespace("http://mit.example.org/")
CMU = Namespace("http://cmu.example.org/")


def build_federation() -> Federation:
    ep1 = Endpoint("EP1")  # MIT's endpoint
    ep1.add_all(
        [
            Triple(MIT.Lee, UB.advisor, MIT.Ben),
            Triple(MIT.Lee, UB.takesCourse, MIT.c1),
            Triple(MIT.Ben, UB.teacherOf, MIT.c1),
            Triple(MIT.Ben, UB.PhDDegreeFrom, MIT.MIT),
            Triple(MIT.MIT, UB.address, Literal("XXX")),
        ]
    )
    ep2 = Endpoint("EP2")  # CMU's endpoint
    ep2.add_all(
        [
            Triple(CMU.Kim, UB.advisor, CMU.Joy),
            Triple(CMU.Kim, UB.takesCourse, CMU.c2),
            Triple(CMU.Joy, UB.teacherOf, CMU.c2),
            Triple(CMU.Joy, UB.PhDDegreeFrom, CMU.CMU),
            Triple(CMU.CMU, UB.address, Literal("CCCC")),
            Triple(CMU.Kim, UB.advisor, CMU.Tim),
            Triple(CMU.Kim, UB.takesCourse, CMU.c3),
            Triple(CMU.Tim, UB.teacherOf, CMU.c3),
            # The interlink: Tim's alma mater lives at EP1.
            Triple(CMU.Tim, UB.PhDDegreeFrom, MIT.MIT),
        ]
    )
    return Federation([ep1, ep2])


QA = """
PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>
SELECT ?S ?P ?U ?A WHERE {
  ?S ub:advisor ?P .
  ?S ub:takesCourse ?C .
  ?P ub:teacherOf ?C .
  ?P ub:PhDDegreeFrom ?U .
  ?U ub:address ?A .
}
"""


def main() -> None:
    federation = build_federation()
    engine = LusailEngine(federation)

    outcome = engine.execute(QA)
    print("Query Qa over the decentralized graph:")
    for student, professor, university, address in outcome.result:
        print(
            f"  {student.local_name:4s} advised by {professor.local_name:4s} "
            f"(PhD from {university.local_name}, address {address.value!r})"
        )

    plan = outcome.plan
    print(f"\nGlobal join variables detected by LADE: {plan.gjv_names}")
    print(f"Subqueries: {plan.subquery_count} "
          f"(check queries run: {plan.check_queries})")
    print(f"Remote requests: {outcome.metrics.request_count()} "
          f"({dict(outcome.metrics.requests_by_kind())})")
    print(f"Simulated response time: {outcome.metrics.virtual_ms:.2f} virtual ms")
    print("Phases:", {k: round(v, 2) for k, v in outcome.metrics.phase_ms.items()})

    # Second execution reuses the ASK/check/COUNT caches.
    warm = engine.execute(QA)
    print(f"\nWarm-cache run: {warm.metrics.request_count()} requests, "
          f"{warm.metrics.virtual_ms:.2f} virtual ms")


if __name__ == "__main__":
    main()
