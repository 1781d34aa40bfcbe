"""One workload process: set-up, a warm-up pass, timed passes, checks.

Started by run.py with BELLMAN_THREADS=1; prints one JSON line.  With
--probe it stops after the warm-up pass (a set-up sample).  With --trace it
alternates untraced and traced passes, so that the traced ones give the
per-layer figures and the pair of them gives the tracing overhead.

A timed pass is cut into stretches of whole operations, each at least
GAUGE_EVERY_S long, with a speed gauge at both ends of every stretch: a
fixed pure-Python loop that takes GAUGE_REF_S at the machine's usual
speed.  A stretch's time is reported at that speed, wall time x
GAUGE_REF_S / (mean of its two gauge times), and a pass's time is the sum
over its stretches.  The shared machine's speed moves by 20-40% for
seconds to tens of seconds at a time, and that move, not the program, set
most of the spread between runs of the plain wall time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
MIN_PASSES = 3
MAX_TRACED_PASSES = 10
THREAD_PROBE_SAMPLES = 200_000
THREAD_PROBE_REPEATS = 5
GAUGE_ROUNDS = 200_000
GAUGE_REF_S = 0.020
GAUGE_EVERY_S = 0.25


def _import_package():
    sys.path[:0] = [str(SRC), str(HERE)]
    import a1embed
    if Path(a1embed.__file__).resolve().parent != SRC / "a1embed":
        raise SystemExit(f"a1embed imported from {a1embed.__file__}, "
                         f"not from {SRC}")


def _thread_probe(seed: int) -> tuple[float, list[str]]:
    """main-M time at BELLMAN_THREADS=1 over its time at 2, and whether the
    verify-suites reports agree between the two thread counts."""
    from a1embed import params, verify
    from workloads import VerifySuites

    def at_threads(n, fn):
        os.environ["BELLMAN_THREADS"] = str(n)
        try:
            t = time.perf_counter()
            out = fn()
            return time.perf_counter() - t, out
        finally:
            os.environ["BELLMAN_THREADS"] = "1"

    errs = []
    suites = VerifySuites(seed)
    for label, thunk in suites.ops:
        one, two = at_threads(1, thunk)[1], at_threads(2, thunk)[1]
        if (one.rc, one.out, one.err) != (two.rc, two.out, two.err):
            errs.append(f"{label}: reports differ between 1 and 2 threads")
    p = params.new_params(10, 2)

    def main_m():
        return verify.check_main_inequality_M(p, THREAD_PROBE_SAMPLES, seed)

    ratios = []
    for _ in range(THREAD_PROBE_REPEATS):
        t1, r1 = at_threads(1, main_m)
        t2, r2 = at_threads(2, main_m)
        ratios.append(t1 / t2)
        if r1 != r2:
            errs.append("main-M report differs between 1 and 2 threads")
    return statistics.median(ratios), errs


def _speed_gauge() -> float:
    """Time of a fixed integer loop; it calls nothing of a1embed."""
    t = time.perf_counter()
    acc = 0
    for i in range(GAUGE_ROUNDS):
        acc += i * i % 7
    return time.perf_counter() - t


def _timed_pass(wl) -> tuple[list, float, float]:
    """Run one pass; return its results, wall time and time at the usual
    speed.  The gauges themselves are not timed."""
    results, wall, scaled = [], 0.0, 0.0
    before = _speed_gauge()
    t = time.perf_counter()
    for i, (_, thunk) in enumerate(wl.ops):
        results.append(thunk())
        dt = time.perf_counter() - t
        if dt >= GAUGE_EVERY_S or i == len(wl.ops) - 1:
            after = _speed_gauge()
            wall += dt
            scaled += dt * GAUGE_REF_S / ((before + after) / 2)
            before = after
            t = time.perf_counter()
    return results, wall, scaled


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args(argv)
    first_gauge = _speed_gauge()

    _import_package()
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload](args.seed % 2**31)
    results = wl.run_pass()                       # warm-up, untimed
    fingerprint = wl.fingerprint(results)
    # set-up time runs from process start; run.py scales it like a stretch
    ready = time.monotonic() - first_gauge
    speed = GAUGE_REF_S / ((first_gauge + _speed_gauge()) / 2)
    if args.probe:
        print(json.dumps({"ready": ready, "speed": speed}))
        return 0

    tracer = None
    if args.trace:
        from spans import Tracer
        tracer = Tracer()
    plain, traced, per_pass, wall = [], [], [], []
    failed = passes = 0
    differs = False
    end = time.perf_counter() + args.seconds
    while True:
        use_trace = tracer is not None and len(traced) < len(plain)
        if use_trace:
            tracer.install()
            lo = tracer.mark()
        results, dt, scaled = _timed_pass(wl)
        if use_trace:
            tracer.uninstall()
            per_pass.append(tracer.layer_metrics(lo, tracer.mark()))
            traced.append(scaled)
        else:
            plain.append(scaled)
            wall.append(dt)
        passes += 1
        failed += wl.failed(results)
        differs |= wl.fingerprint(results) != fingerprint
        if time.perf_counter() >= end and len(plain) >= MIN_PASSES and \
                (tracer is None or len(traced) >= MIN_PASSES):
            break
        if tracer is not None and len(traced) >= MAX_TRACED_PASSES:
            break
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    errors = wl.check(results)
    if differs:
        errors.append("a pass gave output different from the warm-up pass")
    out = {"ready": ready, "speed": speed, "pass_s": plain, "wall_s": wall, "attempted": passes * len(wl.ops),
           "failed": failed, "peak_rss_kb": peak_rss_kb}
    if tracer is not None:
        from a1embed import verify
        layers = {k: statistics.median(p[k] for p in per_pass)
                  for k in per_pass[0]}
        layers.update(wl.counts(results))
        chunks = tracer.main_m_chunks
        layers["verify.main_m_admitted_per_draw"] = (
            tracer.main_m_admitted / (chunks * verify.CHUNK) if chunks else 0.0)
        # one figure for the machine, measured where the samplers run
        layers["verify.threads2_speedup"] = 0.0
        if args.workload == "verify-suites":
            layers["verify.threads2_speedup"], probe_errs = _thread_probe(
                args.seed % 2**31)
            errors += probe_errs
        layers["trace.overhead_pct"] = 100 * (statistics.median(traced)
                                              / statistics.median(plain) - 1)
        out["layers"] = layers
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        tracer.write(out_dir / f"trace-{args.workload}.csv.gz")
    out["errors"] = errors
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
