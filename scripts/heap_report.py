"""pymalloc's block counts per size class after one ledger workload's set-up.

    python scripts/heap_report.py --workload lubm_crossing
    python scripts/heap_report.py --workload lubm_local --seed 2 --classes 32,48,64

Builds the workload the way ``benchmarks/ledger/run.py`` does (same
seed, same scale; ``--smoke`` for the tiny one) and prints, after a full
collection, pymalloc's blocks in use and free ("avail": free blocks in
pools that hold some in use) per size class, read from
``sys._debugmallocstats()``: once after set-up and once more after one
round.  Free blocks scattered through used pools after set-up are where
a round's first small objects land; ``docs/architecture.md``
("Collector") says why their number moves round times.

One process, one set-up and one round: ~3 s for ``lubm_crossing`` and
``lubm_local``, ~1.5 s for ``largerdf_cold`` and ``serve_churn`` on 2
vCPUs.  Not part of ``scripts/check.sh``.  Reads nothing but the program
and the ledger's workload definitions; writes nothing.
"""

from __future__ import annotations

import argparse
import gc
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pymalloc_classes() -> dict[int, tuple[int, int]]:
    """Block size -> ``(blocks in use, free blocks)`` from
    ``sys._debugmallocstats()``, which writes to the C-level stderr."""
    sys.stderr.flush()
    saved = os.dup(2)
    with tempfile.TemporaryFile() as capture:
        os.dup2(capture.fileno(), 2)
        try:
            sys._debugmallocstats()
        finally:
            os.dup2(saved, 2)
            os.close(saved)
        capture.seek(0)
        text = capture.read().decode()
    classes = {}
    lines = iter(text.splitlines())
    for line in lines:
        if line.startswith("-----"):
            break
    for line in lines:
        fields = line.split()
        if len(fields) != 5 or not fields[0].isdigit():
            break
        __, size, __, in_use, free = map(int, fields)
        classes[size] = (in_use, free)
    return classes


def report(title: str, sizes: list[int] | None) -> None:
    gc.collect()
    classes = pymalloc_classes()
    print(f"# {title}")
    print(f"{'size':>6} {'in use':>10} {'free':>10}")
    for size, (in_use, free) in sorted(classes.items()):
        if sizes is None or size in sizes:
            print(f"{size:>6} {in_use:>10} {free:>10}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="lubm_crossing")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--smoke", action="store_true", help="the tiny-scale workload")
    parser.add_argument(
        "--classes",
        default="",
        help="comma-separated block sizes to print (default: every class)",
    )
    args = parser.parse_args(argv)
    sizes = [int(size) for size in args.classes.split(",") if size] or None

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "benchmarks" / "ledger"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}: {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    workload.setup()
    report(f"{args.workload} seed={args.seed} after set-up", sizes)
    workload.run_round(-1)
    report(f"{args.workload} seed={args.seed} after one round", sizes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
