"""Acceptance suite: one test per criterion, each printing a summary line.

Budgets are wall-clock ceilings; the substance of each criterion is the
assertion body, the timer only guards against pathological slowdowns.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from a1embed import (
    brute_force_oracle,
    build_corner,
    build_extremizer,
    check_concavity,
    check_main_inequality_B,
    check_main_inequality_M,
    check_smooth_bound,
    check_t_monotonicity,
    check_weak_type,
    check_wedge_inequality,
    eval_B,
    eval_f,
    eval_f_smooth,
    eval_M,
    new_params,
    oracle_vs_closed_form,
    osekowski_p_max,
)
from a1embed.cli import main
from a1embed.verify import check_branch_continuity, check_homogeneity

MAIN_PARAMS = [(10.0, 2), (2.0, 1), (5.0, 3)]


def report(n, label, t0, budget=None):
    dt = time.time() - t0
    print(f"criterion {n} ({label}): PASS in {dt:.2f}s")
    if budget is not None:
        assert dt < budget


def test_criterion_1_corner_exactness():
    t0 = time.time()
    p = new_params(10.0, 2)
    eta = Fraction(37, 40)
    for k in range(9):
        a = build_corner(p, k, exact=True).achieved
        assert a.x == Fraction(1, 4) ** k
        assert a.y == 10
        assert a.m == 1
        assert a.char == 10
        assert a.value == 10 * eta**k
    a3 = build_corner(p, 3, exact=True).achieved
    assert float(a3.value) == 7.91453125
    assert a3.x == Fraction(1, 64)
    report(1, "corner exactness", t0, budget=1.0)


def test_criterion_2_node_identity():
    t0 = time.time()
    for Q, d in [(10.0, 2), (2.0, 1), (100.0, 3)]:
        p = new_params(Q, d)
        for k in range(41):
            x = float(p.N) ** (-k)
            a, b = eval_f(p, x), eval_f_smooth(p, x)
            assert abs(a - b) <= 1e-12 * abs(b)
    report(2, "node identity", t0, budget=1.0)


def test_criterion_3_main_inequality_suites():
    t0 = time.time()
    for Q, d in MAIN_PARAMS:
        p = new_params(Q, d)
        for check in (check_main_inequality_M, check_main_inequality_B):
            r = check(p, n_samples=100000, seed=0)
            assert r.passed and r.samples >= 100000, (Q, d, r)
            assert r.worst_slack >= -1e-9
        r = check_wedge_inequality(p, n_samples=100000, seed=0)
        assert r.passed and r.samples >= 100000
        assert r.worst_slack >= -1e-9
    report(3, "main inequality suites", t0, budget=30.0)


def test_criterion_4_property_suites():
    t0 = time.time()
    for Q, d in MAIN_PARAMS:
        p = new_params(Q, d)
        assert check_concavity(p).passed
        assert check_t_monotonicity(p).passed
        assert check_smooth_bound(p).passed
        assert check_branch_continuity(p).passed
        assert check_homogeneity(p).passed
    report(4, "property suites", t0, budget=10.0)


def test_criterion_5_oracle_sandwich():
    t0 = time.time()
    p = new_params(2.0, 1)
    table = brute_force_oracle(p, 2)
    for (x, y), b in table.buckets.items():
        assert float(b.value) <= eval_B(p, float(x), float(y), 1.0) + 1e-9
    assert table.buckets[(Fraction(1, 2), Fraction(2))].value == Fraction(3, 2)
    assert table.buckets[(Fraction(1, 4), Fraction(2))].value == Fraction(9, 8)
    assert oracle_vs_closed_form(table, p).passed
    report(5, "oracle sandwich", t0, budget=300.0)


def test_criterion_6_extremizer_convergence():
    t0 = time.time()
    p = new_params(10.0, 2)
    rng = np.random.default_rng(2026)
    pts = 0
    while pts < 50:
        x = float(rng.uniform(0.005, 0.995))
        y = float(rng.uniform(1.05, 9.95))
        pts += 1
        target = eval_M(p, x, y)
        prev = None
        for depth in (12, 16, 20):
            a = build_extremizer(p, x, y, depth=depth).achieved
            gap = target - float(a.value)
            assert gap >= -1e-9, (x, y, depth, gap)
            assert gap <= 2 * p.Q * 2.0**-depth, (x, y, depth, gap)
            if prev is not None:
                assert gap <= prev + 1e-12, (x, y, depth, gap, prev)
            prev = gap
    report(6, "extremizer convergence", t0, budget=60.0)


def test_criterion_7_weak_type_endpoint():
    t0 = time.time()
    p = new_params(10.0, 2)
    pm = osekowski_p_max(p)
    for k in range(9):
        r = check_weak_type(build_corner(p, k).w, pm)
        assert r.passed
        assert abs(r.worst_slack) <= 1e-9  # corners are the equality cases
    tested = 0
    for Q, d in [(2.0, 1), (3.0, 1)]:
        po = new_params(Q, d)
        pmo = osekowski_p_max(po)
        table = brute_force_oracle(po, 2)
        for key in sorted(table.buckets):
            if tested >= 100:
                break
            w, _ = table.witness_pair(key)
            assert check_weak_type(w, pmo).passed, (Q, d, key)
            tested += 1
    assert tested >= 100
    rng = np.random.default_rng(7)
    for _ in range(100):
        q = float(rng.uniform(1.001, 1000.0))
        d = int(rng.integers(1, 21))
        pr = new_params(q, d)
        assert abs(1.0 - 1.0 / osekowski_p_max(pr) - pr.epsilon) <= 1e-12
    report(7, "weak-type endpoint", t0)


def test_criterion_8_profile_csv(capsys):
    t0 = time.time()
    argv = ["plot-data", "--Q", "10", "--d", "2"]
    assert main(list(argv)) == 0
    out1 = capsys.readouterr().out
    assert main(list(argv)) == 0
    out2 = capsys.readouterr().out
    assert out1 == out2
    p = new_params(10.0, 2)
    nodes = {float(p.N) ** (-k) for k in range(10)}
    for line in out1.strip().splitlines()[2:]:
        x, f, fs, fq, fsq = map(float, line.split(","))
        assert f <= fs * (1 + 1e-12)
        if x in nodes:
            assert abs(fq - fsq) <= 1e-12 * fsq
    report(8, "profile reproduction", t0)


if __name__ == "__main__":
    import sys

    rc = pytest.main([__file__, "-v", "-s"] + sys.argv[1:])
    sys.exit(rc)
