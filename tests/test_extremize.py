"""Constructive near-extremizers: boundary pairs, corner iteration, mixing."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from a1embed import (
    DegenerateParamsError,
    DomainError,
    DyadicSet,
    DyadicWeight,
    InvariantError,
    apply_S,
    apply_T,
    boundary_weight,
    build_corner,
    build_extremizer,
    concatenate,
    eval_M,
    measure,
    new_params,
    stats,
)


def test_boundary_pair_stats(p102):
    pair = boundary_weight(p102, 7.0)
    a = pair.achieved
    assert (float(a.x), a.y, a.m, a.char, a.value) == (1.0, 7.0, 1.0, 7.0, 7.0)
    assert pair.w.tree == (1.0, 1.0, 1.0, 25.0)


def test_boundary_rejects_bad_average(p102):
    with pytest.raises(DomainError):
        boundary_weight(p102, 0.5)
    with pytest.raises(DomainError):
        boundary_weight(p102, 10.5)


def test_apply_T_reaches_first_corner(p102):
    pair = apply_T(p102, boundary_weight(p102, 10.0, exact=True))
    a = pair.achieved
    assert a.x == Fraction(1, 4)
    assert a.value == Fraction(37, 4)
    assert a.m == 1
    assert a.char == 10


def test_apply_T_requires_saturated_average(p102):
    with pytest.raises(DomainError):
        apply_T(p102, boundary_weight(p102, 7.0))


def test_apply_S_shrinks_measure():
    E = DyadicSet(4, (True, False, True, True))
    S = apply_S(E)
    assert measure(S) == measure(E) / 4
    assert apply_S(DyadicSet(4, False)).tree is False


def test_corner_iteration_exact(p102):
    eta = Fraction(37, 40)
    for k in range(9):
        a = build_corner(p102, k, exact=True).achieved
        assert a.x == Fraction(1, 4) ** k
        assert a.y == 10
        assert a.m == 1
        assert a.char == 10
        assert a.value == 10 * eta**k
    assert build_corner(p102, 3, exact=True).achieved.value == Fraction(50653, 6400)
    assert float(Fraction(50653, 6400)) == 7.91453125


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("d", [1, 2, 10])
def test_corner_is_the_k_fold_T_chain(d, exact):
    # one T step per corner: build_corner(k) is apply_T applied k times,
    # tree for tree (==) and statistic for statistic, in either arithmetic
    p = new_params(10.0, d)
    pair = boundary_weight(p, p.Q, exact=exact)
    assert pair == build_corner(p, 0, exact=exact)
    for k in range(1, 9):
        pair = apply_T(p, pair)
        corner = build_corner(p, k, exact=exact)
        assert corner.w == pair.w and corner.E == pair.E
        assert corner.achieved == pair.achieved
        assert isinstance(corner.achieved.value, Fraction) == exact


def test_corner_checks_once(p102, monkeypatch):
    import a1embed.extremize as ex

    calls = []
    monkeypatch.setattr(ex, "stats", lambda w, E: calls.append(1) or stats(w, E))
    for k in (0, 1, 8, 32):
        for exact in (False, True):
            calls.clear()
            build_corner(p102, k, exact=exact)
            assert len(calls) == 1, (k, exact)


@pytest.mark.parametrize("Q", [10, 1e12])
@pytest.mark.parametrize("raise_by", [1, Fraction(1, 10**6)])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("k", [1, 2, 5])
def test_corner_check_catches_a_faulty_step(monkeypatch, k, exact, raise_by,
                                            Q):
    # the heavy leaf raised (doubled, or by a relative 1e-6) in the first
    # push-down only: the one final check must still see it, since the
    # characteristic is a max over subtrees, and at any Q
    import a1embed.extremize as ex

    p = new_params(Q, 2)
    build_corner(p, k, exact=exact)
    real = ex.scale_weight
    seen = []

    def faulty(w, c):
        out = real(w, c)
        if seen:
            return out
        seen.append(1)
        heavy = out.tree[-1] * (1 + type(out.tree[-1])(raise_by))
        return DyadicWeight(out.n, out.tree[:-1] + (heavy,))

    monkeypatch.setattr(ex, "scale_weight", faulty)
    with pytest.raises(InvariantError, match="characteristic"):
        build_corner(p, k, exact=exact)
    assert seen


def test_apply_T_and_concatenate_take_exactness_from_inputs(p102):
    exact, flt = build_corner(p102, 1, exact=True), build_corner(p102, 1)
    assert isinstance(apply_T(p102, exact).w.tree[1], Fraction)
    assert isinstance(apply_T(p102, flt).w.tree[1], float)
    mix = concatenate(p102, 0.5, build_corner(p102, 2, exact=True), exact, 4)
    assert isinstance(mix.achieved.value, Fraction)
    assert isinstance(concatenate(p102, 0.5, flt, flt, 4).achieved.value, float)


def test_corner_matches_surface(p102):
    # the corner value is the closed form at (N^-k, Q)
    for k in range(6):
        a = build_corner(p102, k).achieved
        assert a.value == pytest.approx(eval_M(p102, float(a.x), 10.0), rel=1e-12)


def test_corner_validation(p102):
    with pytest.raises(DomainError):
        build_corner(p102, -1)
    with pytest.raises(DomainError):
        build_corner(p102, 33)
    with pytest.raises(DegenerateParamsError):
        build_corner(new_params(1.0, 2), 1)


def test_concatenate_endpoint_shortcut(p102):
    c1 = build_corner(p102, 1)
    c2 = build_corner(p102, 2)
    out = concatenate(p102, 1.0, c2, c1, depth=10)
    assert out.achieved.value == c1.achieved.value
    assert out.achieved.x == c1.achieved.x


def test_concatenate_converges_to_mixture(p102):
    c1 = build_corner(p102, 1)
    c2 = build_corner(p102, 2)
    lam = 1 / 3
    want_x = (1 - lam) * float(c2.achieved.x) + lam * float(c1.achieved.x)
    want_v = (1 - lam) * c2.achieved.value + lam * c1.achieved.value
    prev = None
    for depth in (8, 16, 24):
        a = concatenate(p102, lam, c2, c1, depth=depth).achieved
        err = abs(float(a.x) - want_x) + abs(a.value - want_v)
        assert err <= 2.0 * p102.Q * 2.0**-depth
        if prev is not None:
            assert err <= prev + 1e-12
        prev = err


def test_concatenate_invariants(p102):
    c0 = build_corner(p102, 0)
    c3 = build_corner(p102, 3)
    a = concatenate(p102, 0.4, c3, c0, depth=20).achieved
    assert a.m == 1.0
    assert a.char <= p102.Q + 1e-9
    assert a.value <= eval_M(p102, float(a.x), min(a.y, p102.Q)) + 1e-9


def test_concatenate_validation(p102):
    c0 = build_corner(p102, 0)
    with pytest.raises(DomainError):
        concatenate(p102, 1.2, c0, c0, depth=10)
    with pytest.raises(DomainError):
        concatenate(p102, 0.5, c0, c0, depth=0)
    with pytest.raises(DomainError):
        concatenate(p102, 0.5, c0, c0, depth=64)


def test_extremizer_node_point_exact(p102):
    a = build_extremizer(p102, 0.0625, 10.0, depth=8).achieved
    assert float(a.x) == 0.0625
    assert a.value == pytest.approx(8.55625, rel=1e-12)
    assert a.value == pytest.approx(eval_M(p102, 0.0625, 10.0), rel=1e-12)


def test_extremizer_lower_branch_exact(p102):
    # dyadic x on the lower branch mixes the empty pair with a boundary pair
    # and lands on the surface exactly
    a = build_extremizer(p102, 0.5, 4.0, depth=20).achieved
    assert float(a.x) == 0.5
    assert a.y == pytest.approx(4.0, rel=1e-12)
    assert a.value == pytest.approx(3.5, rel=1e-12)


def test_extremizer_obstacle_edge(p102):
    a = build_extremizer(p102, 1.0, 7.0, depth=8).achieved
    assert float(a.x) == 1.0
    assert a.value == pytest.approx(7.0, rel=1e-12)


def test_extremizer_empty_set(p102):
    a = build_extremizer(p102, 0.0, 5.0, depth=8).achieved
    assert a.x == 0
    assert a.value == 0


def test_extremizer_gap_shrinks(p102):
    pts = [(0.3, 8.0), (0.37, 9.9), (0.11, 3.3), (0.52, 6.1)]
    for x, y in pts:
        target = eval_M(p102, x, y)
        prev = math.inf
        for depth in (12, 16, 20):
            a = build_extremizer(p102, x, y, depth=depth).achieved
            gap = target - a.value
            assert -1e-9 <= gap <= 2 * p102.Q * 2.0**-depth
            assert gap <= prev + 1e-12
            prev = gap


def test_extremizer_respects_characteristic(p102, p53):
    for p in (p102, p53):
        for x, y in [(0.2, 1.5), (0.7, float(p.Q)), (0.05, 0.6 * p.Q + 0.4)]:
            pair = build_extremizer(p, x, y, depth=12)
            st = stats(pair.w, pair.E)
            assert st.m == 1.0
            assert float(st.char) <= p.Q + 1e-9


def test_extremizer_validation(p102):
    with pytest.raises(DomainError):
        build_extremizer(p102, 0.5, 5.5, depth=40)
    with pytest.raises(DomainError):
        build_extremizer(p102, 1.5, 5.0, depth=8)
    with pytest.raises(DomainError):
        build_extremizer(p102, 0.5, 11.0, depth=8)
    with pytest.raises(DegenerateParamsError):
        build_extremizer(new_params(1.0, 3), 0.5, 1.0, depth=8)


def test_extremizer_exact_mode_on_corner(p102):
    # (1/4, 10) resolves to the first corner with rational bookkeeping
    pair = build_extremizer(p102, 0.25, 10.0, depth=8, exact=True)
    assert pair.achieved.value == Fraction(37, 4)


BAD_FINALIZE = """
import sys
from a1embed import DyadicSet, DyadicWeight, InvariantError, new_params
from a1embed.extremize import _finalize
p = new_params(10.0, 2)
cases = [
    (1.0, 1.0, 1.0, 100.0),   # characteristic 25.75 > Q
    (2.0, 2.0, 2.0, 20.0),    # minimum 2, not normalized
]
for leaves in cases:
    try:
        _finalize(p, DyadicWeight(4, leaves), DyadicSet(4, True))
    except InvariantError as exc:
        print(type(exc).__name__, exc)
    else:
        sys.exit("no error")
"""


def test_finalize_invariants_survive_optimize_flag():
    # python -O strips assert statements; the invariant checks must not be
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    r = subprocess.run([sys.executable, "-O", "-c", BAD_FINALIZE],
                       capture_output=True, text=True, env=env, timeout=120)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("InvariantError characteristic 25.75 > Q")
    assert lines[1].startswith("InvariantError minimum 2.0 not normalized")


def test_finalize_rejects_mass_above_bound(p102, monkeypatch, capsys):
    import a1embed.extremize as ex
    from a1embed.cli import main

    monkeypatch.setattr(ex, "eval_B", lambda p, x, y, m: 1.0)
    with pytest.raises(InvariantError, match="captured mass"):
        boundary_weight(p102, 7.0)
    # the command line reports a broken invariant as an error, exit code 2
    assert main(["extremize", "--Q", "10", "--d", "2", "--x", "0.3",
                 "--y", "8", "--depth", "6"]) == 2
    assert "error: captured mass" in capsys.readouterr().err
