"""Interleaved parent/change pairs of one ledger workload: the claim protocol.

    python scripts/ab_pairs.py --workload lubm_crossing --metric round_wall_ref \\
        --pairs 10 --parent HEAD
    python scripts/ab_pairs.py --workload serve_churn --metric virtual_ms_total \\
        --pairs 3 --seconds 1

Exports ``--parent`` (any git revision) into a temporary directory with
``git archive`` — the repository, its index and its worktree list are
not touched — and runs the *unmodified* ``BENCHMARK.json`` command there
and in this working tree (the change, uncommitted edits included)
alternately, each run in a fresh process, pair *i* on seed
``--first-seed + i`` for both sides, the side that goes first
alternating too.  ``--seconds`` shortens each run (default: the
``run_seconds`` of ``BENCHMARK.json``); the metrics that do not depend
on the clock do not depend on the run's length either.  Prints every
run, then per end-to-end metric both medians and quartiles, and for
``--metric`` the verdict (:func:`claim_verdict`).

A claim on a wall-clock metric (``round_wall_ref``, …) is judged by the
rule ROADMAP.md and the ledger README state: the change ahead in at
least nine tenths of at least ten pairs (ties count for neither side)
*and* the medians apart by more than the parent's interquartile range;
every clock-free metric (virtual time, counts, rows) must then be
bit-equal at every seed.  A claim on a clock-free metric expects those
to move: it is met only when the change is better at every seed and the
medians are apart by more than the parent's IQR, and each clock-free
difference is judged by its direction and its ``BENCHMARK.json`` bound
(:func:`seed_flags`).

Exit status 1 when a clock-free metric is flagged at some seed
(``NOT BIT-EQUAL`` under a wall-clock claim, ``REGRESSED`` past its
bound under a clock-free one), when a run fails or answers wrongly, or
when any end-to-end metric's median is worse than the parent's by more
than its bound; 0 otherwise — also when the claimed gain is not met,
which the verdict line says.

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
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Units of the end-to-end metrics that are functions of the seed alone.
CLOCK_FREE_UNITS = ("virtual_ms", "count", "rows")
NOT_BIT_EQUAL = "NOT BIT-EQUAL"
REGRESSED = "REGRESSED"
#: :func:`seed_flags` values that fail the run.
FAILING = (NOT_BIT_EQUAL, REGRESSED)


def export_revision(revision: str, target: Path) -> None:
    """The committed files of ``revision``, unpacked under ``target``."""
    archive = target.with_suffix(".tar")
    subprocess.run(
        ["git", "archive", "--format=tar", "-o", str(archive), revision], cwd=ROOT, check=True
    )
    with tarfile.open(archive) as tar:
        tar.extractall(target, filter="data")
    archive.unlink()


def run_once(spec: dict, cwd: Path, workload: str, seed: int, trace: int, seconds: float) -> dict:
    """Metric name -> value of one run in a fresh process."""
    command = [
        *spec["command"],
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
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


def is_clock_free(metric: dict) -> bool:
    return metric["unit"] in CLOCK_FREE_UNITS


def seed_flags(metrics: dict, parent: dict, change: dict, moving: bool) -> dict[str, str]:
    """Metric name -> flag, for each clock-free metric whose two runs at
    one seed differ.

    Unless ``moving`` (the claim is on a clock-free metric), every such
    difference is :data:`NOT_BIT_EQUAL`.  Under ``moving`` it is judged
    by direction: ``better``, ``worse`` within the metric's bound, or
    :data:`REGRESSED` past it.
    """
    flags = {}
    for name, metric in metrics.items():
        if not is_clock_free(metric) or parent[name] == change[name]:
            continue
        if not moving:
            flags[name] = NOT_BIT_EQUAL
            continue
        worse = worse_by(parent[name], change[name], metric["better"])
        flags[name] = "better" if worse < 0 else "worse" if worse <= metric["bound"] else REGRESSED
    return flags


@dataclass(frozen=True)
class Verdict:
    ahead: int
    behind: int
    parent_median: float
    change_median: float
    parent_iqr: float
    #: :func:`worse_by` of the medians.
    worse: float
    met: bool


def claim_verdict(
    parent_values: list[float], change_values: list[float], better: str, clock_free: bool
) -> Verdict:
    """Whether the change's gain on one metric is claimed.

    Both rules need the medians apart by more than the parent's IQR.  A
    wall-clock metric also needs the change ahead in >= 9/10 of >= 10
    pairs; a clock-free one, whose values are fixed by the seed, needs
    it ahead at every seed.
    """
    margins = [worse_by(p, c, better) for p, c in zip(parent_values, change_values)]
    ahead = sum(margin < 0 for margin in margins)
    behind = sum(margin > 0 for margin in margins)
    first, parent_median, third = quartiles(parent_values)
    change_median = statistics.median(change_values)
    worse = worse_by(parent_median, change_median, better)
    apart = worse < 0 and abs(change_median - parent_median) > third - first
    pairs = len(margins)
    if clock_free:
        met = ahead == pairs and apart
    else:
        met = pairs >= 10 and ahead >= 0.9 * pairs and apart
    return Verdict(ahead, behind, parent_median, change_median, third - first, worse, met)


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
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="seconds per run (default: BENCHMARK.json's run_seconds)",
    )  # fmt: skip
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    clock_free = is_clock_free(metrics[args.metric])

    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    flagged: dict[str, set[str]] = {}
    with tempfile.TemporaryDirectory(prefix="ab_pairs_") as scratch:
        parent_root = Path(scratch) / "parent"
        export_revision(args.parent, parent_root)
        roots = {"parent": parent_root, "change": ROOT}
        for pair in range(args.pairs):
            seed = args.first_seed + pair
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                values = run_once(
                    spec, roots[side], args.workload, seed, args.trace, args.seconds
                )
                runs[side].append(values)
                print(
                    f"pair {pair + 1:2d} seed {seed:3d} {side:6s} "
                    f"{args.metric}={values[args.metric]:.6g}  {values}",
                    flush=True,
                )
            parent, change = runs["parent"][-1], runs["change"][-1]
            for name, flag in seed_flags(metrics, parent, change, clock_free).items():
                flagged.setdefault(name, set()).add(flag)
                print(f"  {flag} at seed {seed}: {name} {parent[name]!r} -> {change[name]!r}")

    print(
        f"\n{args.workload}, {args.pairs} pairs, parent {args.parent}, "
        f"trace {args.trace}, {args.seconds:g} s per run"
    )
    print(
        f"{'metric':20s} {'parent q1':>11s} {'median':>11s} {'q3':>11s} "
        f"{'change q1':>11s} {'median':>11s} {'q3':>11s} {'worse_by':>9s} {'bound':>6s}  verdict"
    )
    failed = 0
    for name, metric in metrics.items():
        parent = quartiles([values[name] for values in runs["parent"]])
        change = quartiles([values[name] for values in runs["change"]])
        worse = worse_by(parent[1], change[1], metric["better"])
        failing = sorted(flagged.get(name, set()) & set(FAILING))
        if failing:
            verdict = "/".join(failing)
        elif worse > metric["bound"]:
            verdict = REGRESSED
        else:
            verdict = "moved" if name in flagged else "ok"
        failed += verdict not in ("ok", "moved")
        print(
            f"{name:20s} " + " ".join(f"{value:11.6g}" for value in (*parent, *change))
            + f" {worse:9.4f} {metric['bound']:6.2f}  {verdict}"
        )

    verdict = claim_verdict(
        [values[args.metric] for values in runs["parent"]],
        [values[args.metric] for values in runs["change"]],
        metrics[args.metric]["better"],
        clock_free,
    )
    print(
        f"\n{args.metric} on {args.workload}: change ahead in {verdict.ahead}/{args.pairs} "
        f"pairs (behind in {verdict.behind}), medians {verdict.parent_median:.6g} -> "
        f"{verdict.change_median:.6g} ({verdict.worse:+.1%}), parent IQR "
        f"{verdict.parent_iqr:.6g}: gain {'MET' if verdict.met else 'NOT MET'}"
        + ("" if clock_free or args.pairs >= 10 else " (fewer than 10 pairs can claim nothing)")
    )
    print(f"failed_metrics={failed}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
