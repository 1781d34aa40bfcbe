"""Spread command: two sets of untraced runs of the same code, on fresh seeds.

    python3 a1bench/spread.py

Two sets of RUNS runs per workload.  Within a set, each run uses a new seed
(FIRST_SEED onwards) and the workloads take turns, so a change in machine
load falls on all of them alike.  For each workload and end-to-end metric
it prints, per set, the median and the quartile spread (q3 - q1) / median,
and the drift of the second set's median from the first's.  A metric is
"ok" when both spreads and the drift, in either direction, are within its
bound in BENCHMARK.json.  The table also goes to
a1bench/out/spread-<time>.txt.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETS = 2
RUNS = 10
FIRST_SEED = 1000


def spread(values: list) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT,
        timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]

    # results[set][workload] -> list of run results
    results = [{w: [] for w in names} for _ in range(SETS)]
    started = []
    seed = FIRST_SEED
    for s in range(SETS):
        started.append(time.strftime("%H:%M:%S"))
        for _ in range(RUNS):
            for w in names:
                r = one_run(w, seed, spec["run_seconds"])
                results[s][w].append(r)
                print(f"set {s + 1} {w} seed {seed}: correct={r['correct']} "
                      f"failed={r['failed']}/{r['attempted']} "
                      + " ".join(f"{k}={v['value']:.4f}"
                                 for k, v in r["metrics"].items()),
                      file=sys.stderr, flush=True)
                seed += 1

    lines = [f"{SETS} sets of {RUNS} runs per workload, "
             f"run_seconds={spec['run_seconds']}, sets started at "
             + ", ".join(started),
             f"{'workload':<20} {'metric':<12} "
             + " ".join(f"{'median' + str(s + 1):>10} {'spread' + str(s + 1):>8}"
                        for s in range(SETS))
             + f" {'drift':>8} {'bound':>6}  verdict"]
    ok = True
    for w in names:
        shares = {sum(r["failed"] for r in res[w]) / sum(r["attempted"] for r in res[w])
                  for res in results}
        correct = all(r["correct"] for res in results for r in res[w])
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            meds, spreads = [], []
            for res in results:
                vals = [r["metrics"][name]["value"] for r in res[w]]
                meds.append(statistics.median(vals))
                spreads.append(spread(vals))
            drift = meds[1] / meds[0] - 1
            good = (max(spreads) <= bound and abs(drift) <= bound
                    and correct and len(shares) == 1)
            ok &= good
            lines.append(
                f"{w:<20} {name:<12} "
                + " ".join(f"{md:>10.4f} {sp:>8.2%}" for md, sp in zip(meds, spreads))
                + f" {drift:>+8.2%} {bound:>6.0%}  {'ok' if good else 'OUT'}")
    text = "\n".join(lines) + "\n"
    print(text)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"spread-{time.strftime('%Y%m%d-%H%M%S')}.txt").write_text(text)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
