"""grothpoly benchmark: one workload, one seed, one closed-loop client.

Run from the root of a grothpoly checkout:

  python3 perfbench/run.py --workload compute-formal --seed 1 --seconds 6 --trace 0

The client sends the workload's generated CLI calls one at a time to a
fresh worker interpreter (perfbench/worker.py), checks every answer outside
the timed window, and prints one JSON result as its last line: with
--trace 0 the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run.  It exits 1 when any answer is wrong or any verification check
fails, and 2 when the checkout holds no grothpoly source.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "grothpoly")
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

from check import Oracle, check_compute, check_verify  # noqa: E402
from workloads import WORKLOADS, Stream  # noqa: E402

# start-up samples per run: the probes plus the workload's own worker
SETUP_PROBES = 10
# Every reported time is scaled to the machine speed at which the worker's
# calibration loop takes REF_NOMINAL_S.  On a shared VM the same request
# drifts by +-20% within a minute while its ratio to the loop moves by ~5%.
REF_NOMINAL_S = 0.005
# latency_tail_ms: a compute pass holds at least 268 requests, so p96
# always has ten or more samples beyond it
TAIL_PERCENTILE = 96
VERIFY_ARGV = ["verify", "--suite", "all"]

# (span name, statistic) pairs reported by a traced run
LAYER_STATS = (
    ("cli.main", "calls"), ("cli.main", "self_s"),
    ("algebra.rf_to_json", "s"),
    ("algebra.RationalFunction.substitute", "calls"), ("algebra.RationalFunction.substitute", "s"),
    ("algebra.poly_gcd", "calls"), ("algebra.poly_gcd", "s"), ("algebra.poly_gcd", "self_s"),
    ("algebra.RationalFunction.normalize", "calls"), ("algebra.RationalFunction.normalize", "s"),
    ("algebra.poly_divexact", "calls"), ("algebra.poly_divexact", "s"),
    ("algebra.MultiPoly.mul", "calls"), ("algebra.MultiPoly.mul", "s"),
    ("algebra.MultiPoly.add", "calls"), ("algebra.MultiPoly.add", "s"),
    ("algebra.series_from_rf", "calls"), ("algebra.series_from_rf", "s"),
    ("algebra.TruncatedSeries.mul", "calls"), ("algebra.TruncatedSeries.mul", "s"),
    ("factored.FactorRegistry.init", "calls"), ("factored.FactorRegistry.init", "s"),
    ("factored.FactorRegistry.from_rf", "calls"), ("factored.FactorRegistry.from_rf", "s"),
    ("factored.FFrac.add", "calls"), ("factored.FFrac.add", "s"),
    ("factored.FFrac.mul", "calls"), ("factored.FFrac.mul", "s"),
    ("factored.FFrac.to_rf", "s"),
    ("models.vertex_weight", "calls"), ("models.vertex_weight", "s"),
    ("models.rmatrix_entry", "calls"), ("models.rmatrix_entry", "s"),
    ("transfer.groth_poly", "calls"), ("transfer.groth_poly", "s"),
    ("transfer.groth_poly_dual_route", "calls"), ("transfer.groth_poly_dual_route", "s"),
    ("transfer.dual_groth_poly", "calls"), ("transfer.dual_groth_poly", "s"),
    ("transfer.j_poly", "calls"), ("transfer.j_poly", "s"),
    ("transfer.transfer_element", "calls"), ("transfer.transfer_element", "s"),
    ("transfer.row_configuration_weight", "calls"), ("transfer.row_configuration_weight", "s"),
    ("partitions.steps", "calls"), ("partitions.steps", "s"),
    ("identities.rll", "s"), ("identities.eigenvector", "s"), ("identities.unitarity", "s"),
    ("identities.inversion", "s"), ("identities.commutation", "s"), ("identities.cauchy", "s"),
)
_UNITS = {"calls": "count", "s": "s", "self_s": "s"}


class Worker:
    """One worker interpreter.  setup_s runs from spawn to its ready line;
    ref is the latest calibration time, taken after start-up and after
    every call."""

    def __init__(self, *flags: str):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "worker.py"), *flags],
            cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready = self.proc.stdout.readline()
        self.setup_s = time.perf_counter() - t0
        if not ready.startswith('{"ready": true}'):
            self.close()
            raise RuntimeError("worker did not start")
        self.ref = json.loads(self.proc.stdout.readline())["ref"]
        self.setup_norm_s = self.setup_s * REF_NOMINAL_S / self.ref

    def _send(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"worker exited with code {self.proc.wait()}")
        return json.loads(line)

    def call(self, argv) -> dict:
        """Reply to one CLI call; "norm_s" is "s" at nominal machine speed,
        each stretch of it scaled by the calibration runs at its two ends."""
        reply = self._send({"argv": argv})
        refs = [self.ref]
        norm = rest = 0.0
        for s, ref in reply.get("segments", ()):
            norm += s * REF_NOMINAL_S / ((refs[-1] + ref) / 2)
            rest -= s
            refs.append(ref)
        rest += reply["s"]
        norm += rest * REF_NOMINAL_S / ((refs[-1] + reply["ref"]) / 2)
        reply["norm_s"] = norm
        self.ref = reply["ref"]
        return reply

    def finish(self, spans: str | None = None) -> dict:
        reply = self._send({"quit": True, "spans": spans})
        self.close()
        return reply

    def close(self) -> None:
        """Close the pipes and wait for the worker, killing it after 10 s."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def setup_samples(n: int) -> list[Worker]:
    probes = []
    for _ in range(n):
        w = Worker("--probe")
        w.close()
        probes.append(w)
    return probes


class Tally:
    """Latencies, pass times and failures of one worker's requests."""

    def __init__(self):
        self.argvs: list[list[str]] = []
        self.latencies: list[float] = []
        self.raw_latencies: list[float] = []
        self.batches: list[float] = []
        self.attempted = 0
        self.failed = 0

    def timed(self, argv, reply: dict) -> None:
        self.argvs.append(argv)
        self.latencies.append(reply["norm_s"])
        self.raw_latencies.append(reply["s"])

    def record(self, argv, reply: dict, problem: str | None) -> None:
        self.timed(argv, reply)
        self.attempted += 1
        if reply["rc"] != 0:
            problem = f"exit code {reply['rc']}: {reply['err'].strip()[-300:]}"
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"# FAILED {argv}: {problem}", file=sys.stderr)

    def write(self, path: str) -> None:
        """One tab-separated line per call: argv, seconds as measured, and
        seconds at nominal machine speed."""
        with open(path, "w") as f:
            f.write("argv\ts\tnorm_s\n")
            for argv, s, norm in zip(self.argvs, self.raw_latencies, self.latencies):
                f.write(f"{' '.join(argv)}\t{s:.9f}\t{norm:.9f}\n")


def serve_compute(worker, stream, oracle, seed, seconds, one_pass) -> Tally:
    """Whole passes while busy time is under `seconds` (one when tracing)."""
    tally = Tally()
    p = 0
    while True:
        batch = 0.0
        for i, req in enumerate(stream.pass_requests(p)):
            reply = worker.call(req.argv())
            problem = None
            if reply["rc"] == 0:
                problem = check_compute(req, reply["out"], oracle, f"{seed}:{p}:{i}")
            tally.record(req.argv(), reply, problem)
            batch += reply["norm_s"]
        tally.batches.append(batch)
        p += 1
        if one_pass or sum(tally.batches) >= seconds:
            break
        if stream.max_passes is not None and p >= stream.max_passes:
            break
    return tally


def serve_verify(worker, seconds, once) -> Tally:
    """verify --suite all until busy time reaches `seconds` (once when tracing);
    attempted and failed count checks, not calls."""
    tally = Tally()
    while True:
        reply = worker.call(VERIFY_ARGV)
        attempted, failed, names = check_verify(reply["out"])
        if reply["rc"] != 0 and failed == 0:
            attempted, failed, names = attempted + 1, failed + 1, [reply["err"].strip()[-300:]]
        tally.attempted += attempted
        tally.failed += failed
        for name in names[:5]:
            print(f"# FAILED verify check {name}", file=sys.stderr)
        tally.timed(VERIFY_ARGV, reply)
        tally.batches.append(reply["norm_s"])
        if once or sum(tally.batches) >= seconds:
            return tally


def serve(workload, seed, seconds, trace: bool, worker: Worker, oracle) -> Tally:
    if workload == "verify-all":
        return serve_verify(worker, seconds, once=trace)
    tally = serve_compute(worker, Stream(workload, seed), oracle, seed, seconds, one_pass=trace)
    oracle.save()
    return tally


def percentile(values, pct: int) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def end_to_end(workload, seed, seconds) -> tuple[int, int, dict]:
    """(attempted, failed, end-to-end metrics) of one untraced run."""
    probes = setup_samples(SETUP_PROBES - 1)
    oracle = None if workload == "verify-all" else Oracle(PACKAGE, OUT_DIR)
    worker = Worker()
    probes.append(worker)
    try:
        tally = serve(workload, seed, seconds, False, worker, oracle)
        peak_kb = worker.finish()["peak_rss_kb"]
    finally:
        worker.close()
    os.makedirs(OUT_DIR, exist_ok=True)
    tally.write(os.path.join(OUT_DIR, f"requests-{workload}.tsv"))
    busy = sum(tally.batches)
    lat = tally.latencies
    raw = tally.raw_latencies
    print(
        f"# {workload} seed={seed}: {tally.attempted} attempted, {len(lat)} calls in "
        f"{len(tally.batches)} batch(es); tail = p{TAIL_PERCENTILE}, "
        f"{len(lat) - math.ceil(TAIL_PERCENTILE / 100 * len(lat))} samples beyond"
    )
    print(
        f"# as measured, before the speed correction: busy {sum(raw):.3f} s, "
        f"throughput {len(raw) / sum(raw):.4f} req/s, p50 {1000 * statistics.median(raw):.4f} ms, "
        f"setup {statistics.median(p.setup_s for p in probes):.4f} s"
    )
    metrics = {
        "setup_s": (statistics.median(p.setup_norm_s for p in probes), "s"),
        "throughput_rps": (len(lat) / busy, "req/s"),
        "latency_p50_ms": (1000 * statistics.median(lat), "ms"),
        "latency_tail_ms": (1000 * percentile(lat, TAIL_PERCENTILE), "ms"),
        "verdict_s": (statistics.median(tally.batches), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    return tally.attempted, tally.failed, metrics


def traced(workload, seed, seconds) -> tuple[int, int, dict]:
    """(attempted, failed, per-layer metrics): one batch untraced, then the
    same batch in a traced worker; the gap between the two is the tracing
    overhead."""
    oracle = None if workload == "verify-all" else Oracle(PACKAGE, OUT_DIR)
    plain_worker = Worker()
    try:
        plain = serve(workload, seed, seconds, True, plain_worker, oracle)
        plain_worker.finish()
    finally:
        plain_worker.close()
    os.makedirs(OUT_DIR, exist_ok=True)
    spans = os.path.join(OUT_DIR, f"spans-{workload}.tsv")
    trace_worker = Worker("--trace")
    try:
        tally = serve(workload, seed, seconds, True, trace_worker, oracle)
        stats = trace_worker.finish(spans)["trace"]
    finally:
        trace_worker.close()
    print(f"# {workload} seed={seed}: spans written to {os.path.relpath(spans, ROOT)}")

    metrics = {}
    for name, stat in LAYER_STATS:
        metrics[f"{name}.{stat}"] = (stats[stat].get(name, 0), _UNITS[stat])
    metrics["algebra.MultiPoly.mul.term_products"] = (stats["term_products"], "count")
    metrics["algebra.poly_try_div.success_ratio"] = (
        stats["try_div_hits"] / max(1, stats["try_div_calls"]), "ratio")
    metrics["transfer.repeat_call_frac"] = (
        stats["constructor_repeats"] / max(1, stats["constructor_calls"]), "ratio")
    plain_busy, traced_busy = sum(plain.batches), sum(tally.batches)
    metrics["tracing.throughput_rps_gap"] = (
        1 - (len(tally.latencies) / traced_busy) / (len(plain.latencies) / plain_busy), "ratio")
    metrics["tracing.verdict_s_gap"] = (traced_busy / plain_busy - 1, "ratio")
    attempted = plain.attempted + tally.attempted
    failed = plain.failed + tally.failed
    metrics["failed_frac"] = (failed / attempted, "ratio")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(PACKAGE, "cli.py")):
        print(f"error: no grothpoly source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    run = traced if args.trace else end_to_end
    attempted, failed, metrics = run(args.workload, args.seed, args.seconds)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
