"""Interleaved parent/change pairs of one ledger workload: the wall-claim protocol.

    python scripts/ab_pairs.py --workload lubm_crossing --metric round_wall_ref \\
        --pairs 10 --parent HEAD

Exports ``--parent`` (any git revision) into a temporary directory with
``git archive`` — the repository, its index and its worktree list are
not touched — and runs the *unmodified* ``BENCHMARK.json`` command there
and in this working tree (the change, uncommitted edits included)
alternately, each run in a fresh process, pair *i* on seed
``--first-seed + i`` for both sides, the side that goes first
alternating too.  Prints every run, then per end-to-end metric both
medians and quartiles, and for ``--metric`` the verdict by the rule
ROADMAP.md and the ledger README state: a gain is claimed only when the
change is ahead in at least nine tenths of the pairs (ties count for
neither side) *and* the medians are apart by more than the parent's
interquartile range.

Exit status 1 when a metric that does not depend on the clock differs
between the sides at the same seed, when a run fails or answers wrongly,
or when any end-to-end metric's median is worse than the parent's by
more than its bound; 0 otherwise — also when the claimed gain is not
met, which the verdict line says.

Reads ``BENCHMARK.json``; writes nothing into the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Units of the end-to-end metrics that are functions of the seed alone.
CLOCK_FREE_UNITS = ("virtual_ms", "count", "rows")


def export_revision(revision: str, target: Path) -> None:
    """The committed files of ``revision``, unpacked under ``target``."""
    archive = target.with_suffix(".tar")
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), revision], cwd=ROOT, check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


def run_once(spec: dict, cwd: Path, workload: str, seed: int, trace: int) -> dict:
    """Metric name -> value of one run in a fresh process."""
    command = [
        *spec["command"],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace),
    ]  # fmt: skip
    done = subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        raise SystemExit(f"{' '.join(command)} in {cwd} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed} in {cwd}: incorrect run: {result}")
    return {key: entry["value"] for key, entry in result["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    first, median, third = statistics.quantiles(values, n=4, method="inclusive")
    return first, median, third


def worse_by(parent: float, change: float, better: str) -> float:
    """Share of ``parent`` by which ``change`` is worse (negative: better)."""
    share = (change - parent) / parent if parent else 0.0
    return share if better == "lower" else -share


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {metric["name"]: metric for metric in spec["end_to_end"]}
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--metric", required=True, choices=sorted(metrics))
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    unequal = []
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as scratch:
        parent_root = Path(scratch) / "parent"
        export_revision(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                values = run_once(spec, roots[side], args.workload, seed, args.trace)
                runs[side].append(values)
                print(
                    f"pair {pair + 1:2d} seed {seed:3d} {side:6s} "
                    f"{args.metric}={values[args.metric]:.6g}  {values}",
                    flush=True,
                )
            parent, change = runs["parent"][-1], runs["change"][-1]
            for name, metric in metrics.items():
                if metric["unit"] in CLOCK_FREE_UNITS and parent[name] != change[name]:
                    unequal.append((seed, name, parent[name], change[name]))
                    print(
                        f"  NOT BIT-EQUAL at seed {seed}: "
                        f"{name} {parent[name]!r} != {change[name]!r}"
                    )

    print(f"\n{args.workload}, {args.pairs} pairs, parent {args.parent}, trace {args.trace}")
    print(
        f"{'metric':20s} {'parent q1':>11s} {'median':>11s} {'q3':>11s} "
        f"{'change q1':>11s} {'median':>11s} {'q3':>11s} {'worse_by':>9s} {'bound':>6s}  verdict"
    )
    regressed = 0
    for name, metric in metrics.items():
        parent = quartiles([values[name] for values in runs["parent"]])
        change = quartiles([values[name] for values in runs["change"]])
        worse = worse_by(parent[1], change[1], metric["better"])
        verdict = "ok"
        if any(entry[1] == name for entry in unequal):
            verdict = "NOT BIT-EQUAL"
        elif worse > metric["bound"]:
            verdict = "REGRESSED"
            regressed += 1
        print(
            f"{name:20s} " + " ".join(f"{value:11.6g}" for value in (*parent, *change))
            + f" {worse:9.4f} {metric['bound']:6.2f}  {verdict}"
        )

    better = metrics[args.metric]["better"]
    parent_values = [values[args.metric] for values in runs["parent"]]
    change_values = [values[args.metric] for values in runs["change"]]
    margins = [
        worse_by(parent, change, better) for parent, change in zip(parent_values, change_values)
    ]
    ahead = sum(margin < 0 for margin in margins)
    behind = sum(margin > 0 for margin in margins)
    first, parent_median, third = quartiles(parent_values)
    change_median = statistics.median(change_values)
    worse = worse_by(parent_median, change_median, better)
    apart = worse < 0 and abs(change_median - parent_median) > third - first
    met = args.pairs >= 10 and ahead >= 0.9 * args.pairs and apart
    print(
        f"\n{args.metric} on {args.workload}: change ahead in {ahead}/{args.pairs} pairs "
        f"(behind in {behind}), medians {parent_median:.6g} -> {change_median:.6g} "
        f"({worse:+.1%}), parent IQR {third - first:.6g}: "
        f"gain {'MET' if met else 'NOT MET'}"
        + ("" if args.pairs >= 10 else " (fewer than 10 pairs can claim nothing)")
    )
    print(f"regressed={regressed} not_bit_equal={len(unequal)}")
    return 1 if regressed or unequal else 0


if __name__ == "__main__":
    sys.exit(main())
