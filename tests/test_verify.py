"""Samplers, property suites, weak-type endpoint, and the brute-force oracle."""

import gc
import itertools
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from a1embed import (
    DomainError,
    DyadicWeight,
    boundary_weight,
    brute_force_oracle,
    build_corner,
    check_concavity,
    check_main_inequality_B,
    check_main_inequality_M,
    check_smooth_bound,
    check_t_monotonicity,
    check_weak_type,
    check_wedge_inequality,
    default_value_grid,
    eval_B,
    new_params,
    oracle_vs_closed_form,
    osekowski_p_max,
    run_suite,
    stats,
)
from a1embed import verify
from a1embed.bellman import _upper_vec, _wedge_vec
from a1embed.cli import _json_text, main
from a1embed.verify import SUITES


def test_main_inequality_M_passes(p102):
    r = check_main_inequality_M(p102, n_samples=20000, seed=3)
    assert r.passed
    assert r.worst_slack >= -1e-9
    assert r.samples >= 20000
    assert "binds" in r.notes


def test_main_inequality_B_passes(p21):
    r = check_main_inequality_B(p21, n_samples=20000, seed=3)
    assert r.passed
    assert r.worst_slack >= -1e-9
    assert "stratum" in r.worst_witness


def test_wedge_inequality_passes(p102):
    r = check_wedge_inequality(p102, n_samples=20000, seed=3)
    assert r.passed
    assert r.worst_slack >= -1e-9


def test_sampler_determinism(p102):
    a = check_main_inequality_M(p102, n_samples=30000, seed=11)
    b = check_main_inequality_M(p102, n_samples=30000, seed=11)
    assert a.worst_slack == b.worst_slack
    assert a.worst_witness == b.worst_witness
    c = check_main_inequality_M(p102, n_samples=30000, seed=12)
    assert c.worst_slack != a.worst_slack


@pytest.mark.parametrize("c", [1, 7, 65536])
@pytest.mark.parametrize("Q", [1 + 1e-9, 2.0, 10.0, 1e12])
def test_one_random_block_reads_like_four_uniform_calls(Q, c):
    # the main-M sampler reads (x, xt, y, yt) as four uniform(0, 1) rows of
    # one stream, as g.random((4, c)) does, and maps the y rows by
    # 1 + (Q - 1) u, which is how uniform(1, Q) maps them
    g = verify._gen(5, 9)
    want = [g.uniform(0.0, 1.0, c), g.uniform(0.0, 1.0, c),
            g.uniform(1.0, Q, c), g.uniform(1.0, Q, c)]
    x, xt, u_y, u_yt = verify._gen(5, 9).random((4, c))
    got = [x, xt, 1.0 + (Q - 1.0) * u_y, 1.0 + (Q - 1.0) * u_yt]
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


def _four_uniform_chunk(p, g, c):
    """A main-M chunk drawn the direct way: four uniform calls, every
    column on every row, one mask."""
    N, Q = p.N, p.Q
    x, xt = g.uniform(0.0, 1.0, c), g.uniform(0.0, 1.0, c)
    y, yt = g.uniform(1.0, Q, c), g.uniform(1.0, Q, c)
    xhat, yhat = N * x - (N - 1) * xt, N * y - (N - 1) * yt
    keep = (xt <= x) & (xhat <= 1.0) & (yhat >= Q)
    cols = [a[keep] for a in (x, y, xt, yt, xhat, yhat)]
    return cols, np.count_nonzero(xt <= x), np.count_nonzero(xhat >= 0)


@pytest.mark.parametrize("Q, d", [(1 + 1e-9, 1), (2.0, 1), (10.0, 2), (1e8, 5)])
def test_main_M_rows_match_four_uniform_draws(Q, d, monkeypatch):
    # every admitted row of every chunk, and the pass-rate tallies, bit for
    # bit against the direct draw
    p, seen = new_params(Q, d), []
    row = verify._row
    monkeypatch.setattr(verify, "_row", lambda *cols: seen.append(cols) or row(*cols))
    r = check_main_inequality_M(p, n_samples=1000, seed=4)
    n_order = n_hat = 0
    for stream, cols in enumerate(seen):
        want, o, h = _four_uniform_chunk(p, verify._gen(4, stream), verify.CHUNK)
        assert all(np.array_equal(a, b) for a, b in zip(cols, want))
        n_order, n_hat = n_order + o, n_hat + h
    raw = len(seen) * verify.CHUNK
    assert r.samples == sum(c[0].size for c in seen)
    assert r.notes.endswith(f"xt<=x {n_order / raw:.4f}, xhat>=0 {n_hat / raw:.4f}")

@pytest.mark.parametrize("d", [10, 12])
def test_wedge_inequality_tolerates_roundoff(d):
    # the two sides reach about 6e14 (d=10) and 6e17 (d=12); the negative
    # absolute slack is round-off, a few 1e-16 of either side
    r = check_wedge_inequality(new_params(10, d), n_samples=20000)
    assert r.passed
    assert r.worst_slack < -1e-9


def _shrink_first_of(fn, period):
    """fn with the first of every `period` calls shrunk by a relative 1e-6."""
    calls = itertools.count()

    def shrunk(*args):
        out = fn(*args)
        return out * (1 - 1e-6) if next(calls) % period == 0 else out

    return shrunk


@pytest.mark.parametrize("Q", [10, 1e12])
@pytest.mark.parametrize("d", [2, 10])
def test_wedge_inequality_catches_relative_violation(Q, d, monkeypatch):
    # shrink the left side, the first of the three wedge calls per chunk,
    # by a relative 1e-6; the sharp-edge rows then fail by about 1e-6
    monkeypatch.setattr(verify, "_wedge_vec", _shrink_first_of(_wedge_vec, 3))
    r = check_wedge_inequality(new_params(Q, d), n_samples=20000)
    assert not r.passed


@pytest.mark.parametrize("Q", [10, 1e12])
@pytest.mark.parametrize("check, name, period", [
    (check_main_inequality_M, "_M_vec", 3),     # lhs, then the two children
    (check_concavity, "_M_vec", 3),             # the midpoint, then the ends
    (verify.check_wedge_domination, "_wedge_vec", 1),
], ids=["main-M", "concavity", "wedge-domination"])
def test_suites_catch_relative_violation(Q, check, name, period, monkeypatch):
    # the left side shrunk by a relative 1e-6 fails the rows where the
    # inequality is sharp, at any Q: the rule's scale follows the sides
    p = new_params(Q, 2)
    assert check(p, n_samples=20000).passed
    shrunk = _shrink_first_of(getattr(verify, name), period)
    monkeypatch.setattr(verify, name, shrunk)
    r = check(p, n_samples=20000)
    assert not r.passed
    assert r.worst_slack < -1e-7 * Q


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("Q, d", [("1.0000001", "1"), ("1.000000001", "20")])
def test_branch_continuity_passes_near_q_one(capsys, Q, d):
    # y = 1 + (Q-1)x rounded below the line used to clip u above 1 (and, at
    # x = 1e-9, divide by y - 1 = 0): a false FAIL with a RuntimeWarning
    argv = ["verify", "--Q", Q, "--d", d, "--suite", "branch-continuity"]
    assert main(argv) == 0
    out, err = capsys.readouterr()
    assert "branch-continuity: PASS" in out
    assert err == ""


@pytest.mark.parametrize("Q", [10.0, 1.0000001])
def test_branch_continuity_catches_planted_mismatch(Q, monkeypatch):
    monkeypatch.setattr(verify, "_upper_vec",
                        lambda p, x, y: _upper_vec(p, x, y) + 1e-6)
    r = verify.check_branch_continuity(new_params(Q, 1))
    assert not r.passed
    assert r.worst_slack == pytest.approx(-1e-6, rel=1e-3)


def test_main_inequality_M_refuses_short_run(p102, monkeypatch):
    monkeypatch.setattr(verify, "MAX_WAVES", 1)
    with pytest.raises(DomainError, match="of 100000 requested"):
        check_main_inequality_M(p102, n_samples=100_000)
    argv = ["verify", "--Q", "10", "--d", "2", "--suite", "main-inequality-M",
            "--samples", "100000"]
    assert main(argv) == 2
    with pytest.raises(DomainError):
        check_main_inequality_M(p102, n_samples=0)


def test_main_inequality_M_refuses_unreachable_count_up_front(capsys):
    # at d=16 all MAX_WAVES waves admit about 8192 rows; this ran them all
    argv = ["verify", "--Q", "10", "--d", "16", "--suite",
            "main-inequality-M", "--samples", "20000"]
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert "of 20000 requested" in capsys.readouterr().err


@pytest.mark.parametrize("d", [1, 2, 3])
def test_main_inequality_M_admission_rate(d):
    # one wave of draws, admitted with probability (N-1)/(4N^2) each
    p = new_params(10.0, d)
    rate = (p.N - 1) / (4 * p.N ** 2)
    draws = verify.WAVE * verify.CHUNK
    admitted = check_main_inequality_M(p, n_samples=1).samples
    sigma = math.sqrt(draws * rate * (1 - rate))
    assert abs(admitted - draws * rate) < 5 * sigma


@pytest.fixture
def plans(monkeypatch):
    """Every block each _sweep call draws, in the order it draws them, as
    (stream, chunk size, key, first row, end row)."""
    seen = []
    sweep = verify._sweep

    def spy(suite, seed, chunks, draw, *rest, **kw):
        blocks = []
        seen.append(blocks)

        def record(g, key):     # as drawn: main-M's stop reads its tally
            blocks.append((g.stream, g.size, key, g.lo, g.hi))
            return draw(g, key)

        return sweep(suite, seed, chunks, record, *rest, **kw)

    monkeypatch.setattr(verify, "_sweep", spy)
    return seen


def _blocks(stream, size, key, rows):
    return [(stream, size, key, lo, min(size, lo + rows))
            for lo in range(0, size, rows)]


def test_sampler_chunk_plans(p21, p102, plans):
    # a block holds B points (x, y): B rows, B / N of main-B's N-wide rows
    C, B = verify.CHUNK, verify._BLOCK // 2
    # main-B: 2C + 1 rows over N = 2 strata, C + 1 rows each
    check_main_inequality_B(p21, n_samples=2 * C + 1)
    # wedge: 10 rows over the 7 wedges k = 0..6, 2 rows each
    check_wedge_inequality(p102, n_samples=10)
    # concavity and t-monotonicity above one chunk
    check_concavity(p102, n_samples=C + 5)
    check_t_monotonicity(p102, n_samples=C + 5)
    # homogeneity keeps one chunk of all its rows, read in blocks
    verify.check_homogeneity(p102, n_samples=C + 5)
    # the grids: one chunk of blocks, wedge domination's in grid rows
    verify.check_branch_continuity(p102, n_samples=C + 5)
    verify.check_wedge_domination(p102, n_samples=300 ** 2)
    assert plans == [
        [*_blocks(1 << 32, C, 1, B // 2), ((1 << 32) | 1, 1, 1, 0, 1),
         *_blocks(2 << 32, C, 2, B // 2), ((2 << 32) | 1, 1, 2, 0, 1)],
        [(k << 32, 2, k, 0, 2) for k in range(7)],
        [*_blocks(0, C, 0, B), (1, 5, 0, 0, 5)],
        [*_blocks(0, C, 0, B), (1, 5, 0, 0, 5)],
        _blocks(0, C + 5, 0, B),
        _blocks(0, C + 5, 0, B),
        [b for k in range(1, 11) for b in _blocks(0, 300, k, B // 300)],
    ]
    assert len(plans[4]) == 5 and len(plans[6]) == 60


def test_main_inequality_M_draws_whole_waves(p102, plans):
    one_wave = check_main_inequality_M(p102, n_samples=1).samples
    # one row more than the first wave admits: the second wave is drawn
    # whole, each chunk as one block, and the sampler stops at the boundary
    # after it
    r = check_main_inequality_M(p102, n_samples=one_wave + 1)
    C = verify.CHUNK
    two_waves = [(i, C, 0, 0, C) for i in range(2 * verify.WAVE)]
    assert plans == [two_waves[:verify.WAVE], two_waves]
    assert r.samples > one_wave + 1


def test_property_suites_pass(p102, p53):
    for p in (p102, p53):
        assert check_concavity(p, n_samples=4000).passed
        assert check_t_monotonicity(p, n_samples=4000).passed
        assert check_smooth_bound(p, n_samples=20000).passed


def test_run_suite_single_and_all(p102):
    (r,) = run_suite(p102, "homogeneity", n_samples=500)
    assert r.passed
    reports = run_suite(p102, "all", n_samples=4000)
    assert len(reports) == len(SUITES)
    assert all(r.passed for r in reports)
    assert {r.suite for r in reports} >= {"concavity", "weak-type", "wedge"}


@pytest.mark.parametrize("samples", [0, -5])
@pytest.mark.parametrize("name", list(SUITES))
def test_run_suite_refuses_no_samples(p102, name, samples):
    with pytest.raises(DomainError, match="n_samples >= 1"):
        run_suite(p102, name, samples)
    argv = ["verify", "--Q", "10", "--d", "2", "--suite", name, "--samples",
            str(samples)]
    assert main(argv) == 2


def test_run_suite_unknown_name(p102):
    with pytest.raises(ValueError):
        run_suite(p102, "no-such-suite")


# the largest quantity each suite forms is Q * 2^e: N Q in the samplers,
# 4 Q in homogeneity, Q N^10 in wedge domination, Q N^9 in weak-type
GROWTH = {"main-inequality-M": (1, 0), "main-inequality-B": (1, 0),
          "wedge": (1, 0), "homogeneity": (0, 2), "wedge-domination": (10, 0),
          "weak-type": (9, 0)}


@pytest.mark.parametrize("d", [1, 10])
@pytest.mark.parametrize("name", list(GROWTH))
def test_run_suite_refuses_q_past_its_largest_float(monkeypatch, name, d):
    # at the largest Q where Q * 2^e is finite the suite runs clean (a numpy
    # overflow warning is an error here); one float above, it refuses before
    # drawing anything
    a, b = GROWTH[name]
    top = math.ldexp(sys.float_info.max, -(a * d + b))
    report, = run_suite(new_params(top, d), name, 100)
    assert report.passed and math.isfinite(report.worst_slack)

    def refuse(*args):
        raise AssertionError("drew before refusing")

    monkeypatch.setattr(verify, "_gen", refuse)
    with pytest.raises(DomainError, match=f"{name} forms Q \\* 2\\^{a * d + b},"
                                          f" past the largest float"):
        run_suite(new_params(math.nextafter(top, math.inf), d), name, 100)


def test_run_suite_refuses_all_before_any_suite_runs(monkeypatch):
    # wedge domination and weak-type pass the float range at Q = 1e306, d = 1;
    # "all" refuses before any of its suites draws
    monkeypatch.setattr(verify, "_gen", None)
    with pytest.raises(DomainError, match="wedge-domination forms"):
        run_suite(new_params(1e306, 1), "all")


@pytest.mark.parametrize("name", sorted(set(SUITES) - set(GROWTH)))
def test_suites_forming_nothing_past_q_run_at_the_largest_q(name):
    report, = run_suite(new_params(sys.float_info.max, 10), name, 100)
    assert report.passed and math.isfinite(report.worst_slack)


def test_weak_type_refuses_a_leaf_past_the_largest_float():
    # corner k's heavy leaf is near N^(k+1) Q: 2.6e308 at k = 7, 1.3e308 at 6
    p = new_params(1e306, 1)
    with pytest.raises(DomainError, match="a leaf overflows a float"):
        check_weak_type(build_corner(p, 7, exact=True).w, osekowski_p_max(p))
    assert check_weak_type(build_corner(p, 6, exact=True).w,
                           osekowski_p_max(p)).passed


def test_weak_type_sharp_on_corners(p102):
    pm = osekowski_p_max(p102)
    for k in (0, 1, 3, 5):
        r = check_weak_type(build_corner(p102, k).w, pm)
        assert r.passed
        assert abs(r.worst_slack) <= 1e-9  # equality case, not just one-sided


def test_weak_type_boundary_witness(p102):
    # level 37 with tail 1/4: 37 * (1/4)^{1/p_max} = 10 = the average, exactly
    r = check_weak_type(boundary_weight(p102, 10.0).w, osekowski_p_max(p102))
    assert r.passed
    assert abs(r.worst_slack) <= 1e-9
    assert r.worst_witness == (37.0, 0.25)


def test_weak_type_beyond_endpoint(p102):
    r = check_weak_type(build_corner(p102, 2).w, 2.0)
    assert r.passed
    assert "inapplicable" in r.notes


def test_weak_type_needs_unit_minimum():
    with pytest.raises(DomainError):
        check_weak_type(DyadicWeight(4, (2.0, 2.0, 2.0, 2.0)), 1.05)


def test_weak_type_suite_walks_one_corner_chain(p102, monkeypatch):
    # corners k = 0..8 as one chain: 8 T steps and 9 checked pairs,
    # not a fresh build_corner(k) per k
    import a1embed.extremize as ex

    steps, checks = [], []
    real_T, real_stats = ex.apply_T, ex.stats
    monkeypatch.setattr(ex, "apply_T", lambda p, pair: steps.append(1)
                        or real_T(p, pair))
    monkeypatch.setattr(ex, "stats", lambda w, E, known: checks.append(1)
                        or real_stats(w, E, known))
    r = verify._weak_type_suite(p102)
    assert r.passed and r.samples > 0
    assert (len(steps), len(checks)) == (8, 9)


def test_oracle_depth_one(p21):
    table = brute_force_oracle(p21, 1)
    key = (Fraction(1, 2), Fraction(2))
    assert table.buckets[key].value == Fraction(3, 2)
    assert table.buckets[(Fraction(1), Fraction(2))].value == Fraction(2)
    assert table.n == 2 and table.depth == 1


def test_oracle_depth_two_corners(p21):
    table = brute_force_oracle(p21, 2)
    assert table.buckets[(Fraction(1, 2), Fraction(2))].value == Fraction(3, 2)
    assert table.buckets[(Fraction(1, 4), Fraction(2))].value == Fraction(9, 8)


def test_oracle_buckets_sit_under_surface(p21):
    table = brute_force_oracle(p21, 2)
    for (x, y), b in table.buckets.items():
        assert float(b.value) <= eval_B(p21, float(x), float(y), 1.0) + 1e-9


def test_oracle_witness_rebuild(p21):
    table = brute_force_oracle(p21, 2)
    for key, b in table.buckets.items():
        w, E = table.witness_pair(key)
        st = stats(w, E)
        assert st.x == key[0]
        assert st.value == b.value
        assert st.m == 1.0
        # the bucket label rounds the true average up
        assert st.y <= float(key[1]) + 1e-12
        assert float(st.char) <= p21.Q


@pytest.mark.parametrize("Q,d,depth,grid", [
    (2, 1, 4, (1, Fraction(3, 2), 3)),  # 1, N eta and 1 + N(Q-1) at d = 1
    (2, 2, 2, (1, Fraction(3, 2), 3)),  # 16 leaves, 3^16 assignments, each
    (2, 1, 6, (1, Fraction(3, 2))),     # 64 leaves: entries T 2^64 - rank
], ids=["2-1-4", "2-2-2", "2-1-6"])
def test_oracle_witnesses_refold_exactly(Q, d, depth, grid):
    p = new_params(Q, d)
    table = brute_force_oracle(p, depth, grid)
    assert oracle_vs_closed_form(table, p).passed
    ranks = {int("".join(str(grid.index(v)) for v in b.leaves), len(grid))
             for b in table.buckets.values()}     # product-order index
    assert (max(ranks) >= 2**62) == (depth == 6)    # past int64 arithmetic
    h = (Fraction(Q) - 1) / 20
    for key, b in table.buckets.items():
        st = stats(*table.witness_pair(key))
        label = 1 if st.y == 1 else 1 + math.ceil((st.y - 1) / h) * h
        assert (st.x, label) == key and st.value == b.value
        assert st.m == 1 and st.char <= Q


def test_oracle_grid_validation(p21):
    with pytest.raises(ValueError):
        brute_force_oracle(p21, 1, value_grid=[Fraction(2), Fraction(3)])
    with pytest.raises(ValueError):
        brute_force_oracle(p21, 1, value_grid=[Fraction(1), Fraction(1, 2)])


def test_oracle_size_cap(p21, monkeypatch):
    grid = default_value_grid(p21, 2)
    monkeypatch.setattr(verify, "ORACLE_CAP", 10)
    with pytest.raises(DomainError, match="8\\^2 combinations at level 1 "
                                          "exceed the oracle cap 10"):
        brute_force_oracle(p21, 2, value_grid=grid)
    with pytest.raises(DomainError, match="2\\^4 leaves exceed the oracle cap"):
        brute_force_oracle(p21, 4, value_grid=[1])


def test_oracle_bounds_witness_output(p21):
    # one value: a single tree, yet N^depth witnesses of N^depth leaves each
    assert brute_force_oracle(p21, 10, value_grid=[1]).depth == 10
    with pytest.raises(DomainError, match="2\\^22 witness leaves exceed"):
        brute_force_oracle(p21, 11, value_grid=[1])


@pytest.mark.parametrize("depth", [0, -1])
def test_oracle_needs_depth_one(p21, depth):
    with pytest.raises(DomainError, match="depth >= 1"):
        brute_force_oracle(p21, depth, value_grid=[1])
    with pytest.raises(DomainError, match="depth >= 1"):
        default_value_grid(p21, depth)


def test_oracle_folds_no_tree_per_assignment(p21, monkeypatch):
    def refuse(*args):
        raise AssertionError("the oracle built a DyadicWeight")

    want = brute_force_oracle(p21, 2).to_json()
    monkeypatch.setattr(verify, "DyadicWeight", refuse)
    assert brute_force_oracle(p21, 2).to_json() == want


def test_oracle_and_json_writer_leave_no_reference_cycles(p21):
    # as in dyadic's walkers: a nested function that calls itself through its
    # closure cell keeps the JSON writer's pieces alive until the cyclic GC
    # runs; the oracle, which decodes its witnesses without one, leaves none
    doc = brute_force_oracle(p21, 2).to_json()
    gc.collect()
    gc.disable()
    try:
        brute_force_oracle(p21, 2)
        left = [gc.collect()]
        _json_text(doc)
        left.append(gc.collect())
    finally:
        gc.enable()
    assert left == [0, 0]


def test_oracle_serialization(p21):
    table = brute_force_oracle(p21, 1)
    csv = table.to_csv()
    lines = csv.strip().splitlines()
    assert lines[0] == "x,y,m,value,witness_id"
    assert len(lines) == len(table.buckets) + 1
    doc = table.to_json()
    assert doc["depth"] == 1 and doc["n"] == 2
    assert len(doc["buckets"]) == len(table.buckets)


def test_oracle_agrees_with_closed_form(p21):
    table = brute_force_oracle(p21, 2)
    r = oracle_vs_closed_form(table, p21)
    assert r.passed
    assert r.worst_slack >= -1e-9


@pytest.mark.parametrize("Q", [10, 1e12])
def test_bridge_catches_relative_violation(Q):
    # the sharp bucket (the full set at average Q, mass Q) raised by 1e-6
    p = new_params(Q, 1)
    table = brute_force_oracle(p, 1)
    assert oracle_vs_closed_form(table, p).passed
    key = (Fraction(1), Fraction(Q))
    b = table.buckets[key]
    table.buckets[key] = replace(b, value=b.value * (1 + Fraction(1, 10**6)))
    r = oracle_vs_closed_form(table, p)
    assert not r.passed
    assert r.worst_witness["direction"] == "upper"


def test_oracle_determinism(p21):
    a = brute_force_oracle(p21, 2).to_csv()
    b = brute_force_oracle(p21, 2).to_csv()
    assert a == b
