"""The workload process: a fresh interpreter that imports grothpoly, answers
one warm-up request, and then serves CLI calls sent by the benchmark.

Protocol, one JSON object per line:
  worker -> {"ready": true}                    after the warm-up
  worker -> {"ref": float}
  bench  -> {"argv": [...]}                    one call of grothpoly.cli.main
  worker -> {"rc": int|null, "out": str, "err": str, "s": float, "ref": float,
             "segments": [[seconds, ref], ...]}
  bench  -> {"quit": true, "spans": path|null}
  worker -> {"peak_rss_kb": int, "trace": {...}|null}

"s" is the time from entry to exit of cli.main, with stdout and stderr
captured.  "ref" is the time of one run of the calibration loop, taken
right after start-up and after every call, so the benchmark can correct
each timing for the machine's speed at that moment.  Calls longer than
SAMPLE_EVERY_S also run the loop from a timer signal while they run:
"segments" holds the stretch of the call before each such run with that
run's time, and "s" leaves the loop runs out.  A traced worker takes no
samples inside calls, so spans hold only the program's own time.  With
--probe the worker exits after its first "ref", so the benchmark can time
interpreter start-up alone.

Run from the root of a grothpoly checkout:
  python3 perfbench/worker.py [--probe | --trace]
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import signal
import sys
import time
import traceback
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

WARMUP = ["compute", "--kind", "g", "--lambda", "1", "--nvars", "1"]
SAMPLE_EVERY_S = 0.05


def calibrate() -> float:
    """Seconds for a fixed loop of exact rational and dictionary work, the
    same kind of work grothpoly does; about 5 ms on a 2.1 GHz x86 core."""
    t0 = time.perf_counter()
    table: dict = {}
    acc = Fraction(0)
    for i in range(1, 750):
        acc += Fraction(i, i % 13 + 1)
        key = (i % 37, i % 11)
        table[key] = table.get(key, Fraction(0)) + acc
    return time.perf_counter() - t0


def peak_rss_kb() -> int:
    """Peak resident memory of this process since its exec.  Linux carries
    ru_maxrss over from the parent across fork and exec, so it would report
    the benchmark client's memory when that is larger; VmHWM does not."""
    try:
        with open("/proc/self/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def send(channel, msg: dict) -> None:
    channel.write(json.dumps(msg) + "\n")
    channel.flush()


class SpeedSampler:
    """While a call runs, a SIGALRM handler runs the calibration loop every
    SAMPLE_EVERY_S, splitting the call into stretches that each end at a
    calibration.  Handler time is kept out of the call's time."""

    def __init__(self):
        self.segments: list = []
        self.paused = 0.0
        self.mark = 0.0
        signal.signal(signal.SIGALRM, self._tick)

    def start(self) -> None:
        self.segments = []
        self.paused = 0.0
        self.mark = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)

    def _tick(self, signum, frame) -> None:
        now = time.perf_counter()
        self.segments.append((now - self.mark, calibrate()))
        self.mark = time.perf_counter()
        self.paused += self.mark - now


def call(cli, argv, sampler=None):
    out, err = io.StringIO(), io.StringIO()
    rc = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if sampler is not None:
            sampler.start()
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except Exception:  # reported to the benchmark as a failed request
            err.write(traceback.format_exc())
        if sampler is not None:
            sampler.stop()
        s = time.perf_counter() - t0
    reply = {"rc": rc, "out": out.getvalue(), "err": err.getvalue(), "s": s}
    if sampler is not None:
        reply["s"] -= sampler.paused
        reply["segments"] = sampler.segments
    return reply


def main() -> int:
    channel = sys.stdout
    from grothpoly import cli

    warm = call(cli, WARMUP)
    if warm["rc"] != 0:
        sys.stderr.write(f"warm-up request failed: {warm}\n")
        return 1
    sampler = tracer = None
    if "--trace" in sys.argv:
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    elif "--probe" not in sys.argv:
        sampler = SpeedSampler()
    send(channel, {"ready": True})
    send(channel, {"ref": calibrate()})
    if "--probe" in sys.argv:
        return 0

    for line in sys.stdin:
        msg = json.loads(line)
        if msg.get("quit"):
            stats = None
            if tracer is not None:
                stats = tracer.stats()
                if msg.get("spans"):
                    tracer.write_spans(msg["spans"])
            send(channel, {"peak_rss_kb": peak_rss_kb(), "trace": stats})
            return 0
        if tracer is not None:
            tracer.active = True
        reply = call(cli, msg["argv"], sampler)
        if tracer is not None:
            tracer.active = False
        reply["ref"] = calibrate()
        send(channel, reply)
    return 0


if __name__ == "__main__":
    sys.exit(main())
