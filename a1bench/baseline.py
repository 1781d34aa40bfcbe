"""Re-measure the rows of ROADMAP's baseline table, layer by layer.

    python3 a1bench/baseline.py

Each row is the median of REPEATS timings (min and max in brackets; half
as many for the main-M and main-B suites, three for the depth-3 oracle), in
one process with BELLMAN_THREADS=1 except the thread-scaling row.  Q=10 and
d=2 unless the row says otherwise.  The depth-3 oracle row of the table
(7-value grid, 5.76M assignments, about ten minutes) is replaced by the
3-value grid the oracle-sandwich workload uses.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 5


def timed(fn, repeats: int) -> tuple[float, float, float]:
    ts = []
    for _ in range(repeats):
        t = time.perf_counter()
        fn()
        ts.append(time.perf_counter() - t)
    return statistics.median(ts), min(ts), max(ts)


def main() -> int:
    os.environ["BELLMAN_THREADS"] = "1"
    sys.path.insert(0, str(SRC))
    import numpy as np
    from a1embed import bellman, extremize, params, verify

    p = params.new_params(10, 2)
    rng = np.random.default_rng(0)
    xs = rng.uniform(0, 1, 1_000_000)
    ys = rng.uniform(1, 10, 1_000_000)
    pts = list(zip(xs[:100_000].tolist(), ys[:100_000].tolist()))

    def scalar():
        for x, y in pts:
            bellman.eval_M(p, x, y)

    rows = []

    def row(layer, case, fn, per=1.0, unit="ms", reps=REPEATS):
        med, lo, hi = timed(fn, reps)
        scale = {"ms": 1e3, "s": 1.0, "us": 1e6}[unit] / per
        rows.append((layer, case, f"{med * scale:.3g} {unit} "
                                  f"[{lo * scale:.3g}, {hi * scale:.3g}]"))

    row("scalar eval_M", "per call", scalar, per=len(pts), unit="us")
    row("_M_vec", "1e6 points", lambda: bellman._M_vec(p, xs, ys))
    row("_f_vec", "1e6 points", lambda: bellman._f_vec(p, xs))
    for exact in (False, True):
        for depth in (12, 20, 32):
            row(f"build_extremizer {'exact' if exact else 'float'}",
                f"depth {depth}, (x, y) = (0.3, 8)",
                lambda d=depth, e=exact: extremize.build_extremizer(p, 0.3, 8.0, d, exact=e))
    row("build_corner exact", "k=32", lambda: extremize.build_corner(p, 32, exact=True))
    slow = ("main-inequality-M", "main-inequality-B")
    for name in verify.SUITES:
        row(f"suite {name}", "1e6 samples",
            lambda n=name: verify.run_suite(p, n, 1_000_000, seed=7), unit="s",
            reps=REPEATS // 2 if name in slow else REPEATS)
    for threads in (1, 2):
        os.environ["BELLMAN_THREADS"] = str(threads)
        row("main-M threads", f"BELLMAN_THREADS={threads}, 1e6 samples",
            lambda: verify.check_main_inequality_M(p, 1_000_000, seed=7), unit="s")
    os.environ["BELLMAN_THREADS"] = "1"
    p2 = params.new_params(2, 1)
    grid8 = verify.default_value_grid(p2, 2)
    row("brute_force_oracle d=1 Q=2", f"depth 2, {len(grid8)}-value grid "
        f"({len(grid8) ** 4} assignments)",
        lambda: verify.brute_force_oracle(p2, 2, grid8), unit="s")
    grid3 = [Fraction(1), Fraction(3, 2), Fraction(3)]
    row("brute_force_oracle d=1 Q=2", "depth 3, 3-value grid (6561 assignments)",
        lambda: verify.brute_force_oracle(p2, 3, grid3), unit="s", reps=3)

    width = max(len(a) + len(b) for a, b, _ in rows) + 3
    print(f"{'layer | case':<{width}} median [min, max] over repeats")
    for layer, case, val in rows:
        print(f"{layer + ' | ' + case:<{width}} {val}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
