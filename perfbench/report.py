"""Baseline observations from the files a benchmark run leaves in .bench_out.

  specialization cliff   per G shape served by both compute-formal and
                         compute-specialized, the latency with alpha != 0
                         (and with alpha = 0) over the formal latency
  fixed-cost share       on the smaller half of the traced compute-formal
                         requests, the share of cli.main time spent in
                         FactorRegistry construction and vertex_weight

Needs, from the root of a grothpoly checkout, runs of
  python3 perfbench/run.py --workload compute-formal      --seed S --seconds T --trace 0
  python3 perfbench/run.py --workload compute-specialized --seed S --seconds T --trace 0
  python3 perfbench/run.py --workload compute-formal      --seed S --seconds T --trace 1
and then: python3 perfbench/report.py
"""

from __future__ import annotations

import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
FIXED = ("factored.FactorRegistry.init", "models.vertex_weight")


def read_requests(workload: str) -> list[tuple[dict, float]]:
    """(parsed argv, seconds at nominal speed) per call."""
    rows = []
    with open(os.path.join(OUT_DIR, f"requests-{workload}.tsv")) as f:
        next(f)
        for line in f:
            argv, _, norm = line.rstrip("\n").split("\t")
            words = argv.split(" ")
            opts = {}
            for i, w in enumerate(words):
                if w.startswith("--"):
                    key, eq, val = w[2:].partition("=")
                    opts[key] = val if eq else (words[i + 1] if i + 1 < len(words) else "")
            rows.append((opts, float(norm)))
    return rows


def cliff() -> None:
    formal: dict = {}
    for opts, s in read_requests("compute-formal"):
        if opts["kind"] == "G":
            formal.setdefault((opts["lambda"], opts["nvars"]), []).append(s)
    ratios = {"alpha = 0": [], "alpha != 0": []}
    for opts, s in read_requests("compute-specialized"):
        key = (opts["lambda"], opts["nvars"])
        if opts["kind"] != "G" or key not in formal:
            continue
        cls = "alpha = 0" if opts["alpha"] == "0" else "alpha != 0"
        ratios[cls].append((s / statistics.median(formal[key]), key, s))
    for cls, rows in ratios.items():
        if not rows:
            continue
        worst = max(rows)
        print(
            f"specialized G, {cls}: median {statistics.median(r[0] for r in rows):.2f}x "
            f"the formal latency over {len(rows)} requests; largest {worst[0]:.1f}x "
            f"(lambda={worst[1][0]} nvars={worst[1][1]}, {1000 * worst[2]:.0f} ms)"
        )


def fixed_cost_share() -> None:
    root: list[int] = []  # the cli.main span each span belongs to
    under: list[bool] = []  # the span is, or lies inside, a fixed-cost span
    total: dict = {}
    fixed: dict = {}
    with open(os.path.join(OUT_DIR, "spans-compute-formal.tsv")) as f:
        next(f)
        for line in f:
            sid, parent, name, _, dur = line.rstrip("\n").split("\t")
            sid, parent, dur = int(sid), int(parent), float(dur)
            if parent < 0:
                root.append(sid)
                under.append(name in FIXED)
                total[sid] = dur
                continue
            r = root[parent]
            root.append(r)
            if name in FIXED and not under[parent]:
                fixed[r] = fixed.get(r, 0.0) + dur
            under.append(under[parent] or name in FIXED)
    small = sorted(total, key=total.get)[: len(total) // 2]
    share = sum(fixed.get(r, 0.0) for r in small) / sum(total[r] for r in small)
    print(
        f"fixed cost on the {len(small)} smaller traced compute-formal requests: "
        f"{100 * share:.0f}% of cli.main time in {' + '.join(FIXED)}"
    )


def main() -> int:
    cliff()
    fixed_cost_share()
    return 0


if __name__ == "__main__":
    sys.exit(main())
