"""Count determinism self-test.

Runs the traced benchmark twice with one seed, under two PYTHONHASHSEED
values, and requires every work count to repeat exactly: each ``*.calls``
metric, ``algebra.MultiPoly.mul.term_products``,
``algebra.poly_try_div.success_ratio`` and ``transfer.repeat_call_frac``.
Counts that pass may be cited as counts when comparing two commits.

Run from the root of a grothpoly checkout:

  python3 perfbench/determinism.py --seed 1 [--workload compute-formal ...]

Exits 1 when any count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

RATIO_COUNTS = (
    "algebra.MultiPoly.mul.term_products",
    "algebra.poly_try_div.success_ratio",
    "transfer.repeat_call_frac",
)


def traced_counts(workload: str, seed: int, hashseed: int) -> dict:
    env = dict(os.environ, PYTHONHASHSEED=str(hashseed))
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, env=env, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"traced run of {workload} failed:\n{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {
        name: m["value"] for name, m in metrics.items()
        if name.endswith(".calls") or name in RATIO_COUNTS
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="traced counts must repeat exactly")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", nargs="*", choices=WORKLOADS, default=list(WORKLOADS))
    args = parser.parse_args(argv)
    bad = 0
    for workload in args.workload:
        first = traced_counts(workload, args.seed, 0)
        second = traced_counts(workload, args.seed, 1)
        diffs = {k: (first[k], second.get(k)) for k in first if first[k] != second.get(k)}
        nonzero = sum(1 for v in first.values() if v)
        print(f"{workload}: {len(first)} counts ({nonzero} nonzero), {len(diffs)} differ")
        for name, (a, b) in sorted(diffs.items()):
            print(f"  {name}: {a} != {b}")
        bad += len(diffs)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
