"""Benchmark entry point: one workload, one run, one JSON line.

    python3 a1bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Untraced (--trace 0): starts the workload process SETUP_SAMPLES - 1 times
up to its first timed pass only, half of them before and half after the
one process that makes the timed passes, and reports setup_s (median over
all SETUP_SAMPLES starts), pass_s (median pass) and peak_rss_mb of the
timed process.  Set-up and pass times are reported at the machine's usual
speed, as measured by the speed gauges of worker.py.  Spreading the set-up
samples over the run keeps a burst of machine load at its start from
moving setup_s.  Traced (--trace 1): one process that reports the
per-layer metrics of BENCHMARK.json.  Every process runs with
BELLMAN_THREADS=1 and imports a1embed from src/ next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
DEADLINE_S = 170


class RunError(Exception):
    pass


def _worker(args: list, deadline: float) -> tuple[float, dict]:
    """Run worker.py; return (its start time, its JSON result)."""
    env = dict(os.environ, BELLMAN_THREADS="1")
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, "-I", str(HERE / "worker.py"), *args],
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
            timeout=max(1.0, deadline - start))
    except subprocess.TimeoutExpired as exc:
        raise RunError(f"worker {args} ran past the deadline") from exc
    if proc.returncode != 0:
        raise RunError(f"worker {args} exited with {proc.returncode}")
    return start, json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "a1embed" / "__init__.py").is_file():
        print(f"error: no a1embed sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    setups = []

    def probe():
        start, res = _worker(common + ["--probe"], deadline)
        setups.append((res["ready"] - start) * res["speed"])

    try:
        for _ in range(probes // 2):
            probe()
        start, res = _worker(common + ["--seconds", str(args.seconds)]
                             + (["--trace"] if args.trace else []), deadline)
        setups.append((res["ready"] - start) * res["speed"])
        for _ in range(probes - probes // 2):
            probe()
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for e in res["errors"]:
        print(f"check failed: {e}", file=sys.stderr)
    if args.trace:
        values = res["layers"]
    else:
        values = {"setup_s": statistics.median(setups),
                  "pass_s": statistics.median(res["pass_s"]),
                  "peak_rss_mb": res["peak_rss_kb"] / 1024}
    # floats throughout: an exact count such as dyadic.expanded_nodes
    # (about 1e22) does not fit a 64-bit integer
    metrics = {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(f"{args.workload}: {len(res['pass_s'])} untraced passes, median "
          f"wall time {statistics.median(res['wall_s']):.4f} s, "
          f"scaled setups {['%.4f' % s for s in setups]}", file=sys.stderr)
    print(json.dumps({"correct": not res["errors"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
