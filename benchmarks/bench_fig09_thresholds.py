"""Paper Fig 9 — delayed-subquery threshold policies.

Total per-category time on geo-distributed LargeRDFBench for the four
policies (mu, mu+sigma, mu+2sigma, Chauvenet-outliers-only), and for the
engine's default ``cost`` rule (mu+sigma's verdict, overridden where
binding vs shipping clearly differs in estimated cost).  Expected shape:
mu+sigma is consistently competitive among the paper's four — never the
worst in any category — which is why the paper adopts it.
"""

from repro.harness import experiments

from conftest import dicts_to_table, emit


def test_fig09_thresholds(benchmark):
    rows = benchmark.pedantic(experiments.fig09_thresholds, rounds=1, iterations=1)
    emit("fig09_thresholds", dicts_to_table(rows))

    by_policy_category = {(r["policy"], r["category"]): r["total_virtual_ms"] for r in rows}
    for category in ("S", "C", "B"):
        times = {p: by_policy_category[(p, category)] for p in ("mu", "mu+sigma", "mu+2sigma", "outliers")}
        worst = max(times.values())
        assert times["mu+sigma"] < worst or len(set(times.values())) == 1, (category, times)
