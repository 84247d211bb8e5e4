"""Repeatability check: the whole ledger, ten seeds, twice.

    python3 benchmarks/ledger/repeat.py --out benchmarks/ledger/results/seed_commit.json

Runs every workload of BENCHMARK.json for its ``run_seconds`` on ten
seeds untraced and on one seed traced, each run in a fresh process, and
does that ``--sets`` times.  Per end-to-end metric and workload it prints each
set's median and spread (interquartile range over the seeds as a share
of the median), how much worse the last set's median is than the
first's, and the bound.  Metrics that do not depend on the clock must
be bit-equal between sets, seed by seed.  A metric whose spread exceeds
its bound is reported as *unresolved*, never as passing: add rounds,
not a wider bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent.parent

SEEDS = tuple(range(1, 11))

#: Printed by the untraced run beside the metrics; reported without a bound.
AS_MEASURED = ("round_wall_s", "op_wall_ms_gmean", "reference_loop_ms")

#: End-to-end metrics that are functions of the seed alone.
DETERMINISTIC = (
    "virtual_ms_total",
    "virtual_ms_midmean",
    "virtual_ms_p99",
    "requests_total",
    "rows_shipped_total",
)


def run_once(spec: dict, workload: str, seed: int, trace: int) -> dict:
    """Metric name -> value of one run in a fresh process."""
    command = [
        *spec["command"],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect run: {result}")
    values = {key: entry["value"] for key, entry in result["metrics"].items()}
    # The wall times as measured are printed by name but are no metrics
    # of BENCHMARK.json: they cannot be held to a bound on this host.
    for line in lines[:-1]:
        name, *rest = line.split()
        if name in AS_MEASURED:
            values[name] = float(rest[0])
    return values


def spread(values: list[float]) -> float:
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def worse_by(first: float, last: float, better: str) -> float:
    """Share of ``first`` by which ``last`` is worse (negative: better)."""
    change = (last - first) / first
    return change if better == "lower" else -change


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", type=Path, default=None, help="write every value here as JSON")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in spec["workloads"]]

    sets = []
    for set_index in range(args.sets):
        runs: dict[str, dict] = {}
        for name in names:
            untraced = {}
            for seed in SEEDS:
                untraced[seed] = run_once(spec, name, seed, 0)
                print(f"set {set_index + 1} {name} seed {seed}: {untraced[seed]}", flush=True)
            runs[name] = {"untraced": untraced, "traced": run_once(spec, name, SEEDS[0], 1)}
        sets.append(runs)

    unresolved = regressed = unequal = 0
    print(f"\n{'workload':14s} {'metric':20s} " + " ".join(
        f"{'median' + str(i + 1):>14s} {'spread' + str(i + 1):>8s}" for i in range(args.sets)
    ) + f" {'worse_by':>9s} {'bound':>6s}  verdict")
    unbounded = [{"name": key, "bound": None, "better": "lower"} for key in AS_MEASURED]
    for name in names:
        for metric in [*spec["end_to_end"], *unbounded]:
            key, bound, better = metric["name"], metric["bound"], metric["better"]
            columns = [[runs[name]["untraced"][seed][key] for seed in SEEDS] for runs in sets]
            medians = [statistics.median(column) for column in columns]
            spreads = [spread(column) for column in columns]
            worse = worse_by(medians[0], medians[-1], better)
            verdict = "ok"
            if bound is None:
                verdict = "as measured, no bound"
            elif key in DETERMINISTIC and any(column != columns[0] for column in columns):
                verdict = "NOT BIT-EQUAL"
                unequal += 1
            elif max(spreads) > bound:
                verdict = "unresolved (spread > bound)"
                unresolved += 1
            elif worse > bound:
                verdict = "REGRESSED"
                regressed += 1
            print(f"{name:14s} {key:20s} " + " ".join(
                f"{median:14.6g} {share:8.4f}" for median, share in zip(medians, spreads)
            ) + f" {worse:9.4f} {'-' if bound is None else format(bound, '.2f'):>6s}  {verdict}")
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(
            json.dumps({"seeds": SEEDS, "seconds": spec["run_seconds"], "sets": sets}, indent=1)
            + "\n"
        )
    print(f"\nunresolved={unresolved} regressed={regressed} not_bit_equal={unequal}")
    return 1 if unresolved or regressed or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
