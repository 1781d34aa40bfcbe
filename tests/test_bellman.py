"""Closed-form evaluation: profile, smooth majorant, two-branch surface, wedges."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from a1embed import (
    DomainError,
    classify_point,
    eval_B,
    eval_M,
    eval_f,
    eval_f_smooth,
    in_omega,
    new_params,
    wedge_Mk,
    wedge_coeffs,
)
from a1embed.bellman import _B_vec, _f_vec, _interval_index, _M_vec, _wedge_vec
from a1embed.params import BOUNDARY_TOL

# independently recomputed at 40 digits
F_SMOOTH_HALF_10_2 = 9.617692030835672
F_SMOOTH_TENTH_10_2 = 8.785422163571299


def test_profile_reference_points(p102):
    assert eval_f(p102, 1.0) == 10.0
    assert eval_f(p102, 0.625) == pytest.approx(9.625, rel=1e-15)
    assert eval_f(p102, 0.5) == pytest.approx(9.5, rel=1e-15)
    assert eval_f_smooth(p102, 0.5) == pytest.approx(F_SMOOTH_HALF_10_2, rel=1e-14)
    assert eval_f_smooth(p102, 0.1) == pytest.approx(F_SMOOTH_TENTH_10_2, rel=1e-14)


def test_profile_nodes(p102):
    for k in range(9):
        x = p102.N ** (-k)
        want = p102.Q * p102.eta**k
        assert eval_f(p102, x) == pytest.approx(want, rel=1e-14)
        assert eval_f_smooth(p102, x) == pytest.approx(want, rel=1e-14)


def test_node_identity_deep():
    # the piecewise-linear profile touches Q x^eps exactly at every node
    for Q, d in [(10.0, 2), (2.0, 1), (100.0, 3)]:
        p = new_params(Q, d)
        for k in range(41):
            x = float(p.N) ** (-k)
            a = eval_f(p, x)
            b = eval_f_smooth(p, x)
            assert abs(a - b) <= 1e-12 * abs(b)


def test_profile_below_smooth(p102):
    xs = np.geomspace(1e-9, 1.0, 2000)
    f = _f_vec(p102, xs)
    fs = p102.Q * xs**p102.epsilon
    assert np.all(f <= fs * (1 + 1e-12))


def test_profile_monotone(p102):
    xs = np.geomspace(1e-9, 1.0, 2000)
    f = _f_vec(p102, xs)
    assert np.all(np.diff(f) >= -1e-15)


def test_surface_reference_points(p102):
    assert eval_M(p102, 0.1, 4.6) == pytest.approx(3.7, rel=1e-14)
    assert eval_M(p102, 1.0, 7.0) == 7.0
    assert eval_M(p102, 0.5, 5.5) == 5.0
    assert eval_M(p102, 0.25, 10.0) == pytest.approx(9.25, rel=1e-14)
    assert eval_M(p102, 0.0625, 10.0) == pytest.approx(8.55625, rel=1e-14)


def test_branch_classification(p102):
    assert classify_point(p102, 0.5, 5.5).describe() == "lower branch (y <= 1 + (Q-1)x)"
    assert classify_point(p102, 0.25, 10.0).describe() == "upper branch, node k=1"
    assert classify_point(p102, 0.1, 4.6).describe() == "upper branch, interval k=0"


@pytest.mark.parametrize("x, y", [(-1e-12, 1 - 1e-12), (1 + 1e-12, 10 + 1e-12),
                                  (0.5, 10 + 5e-13)])
def test_classify_point_names_the_branch_eval_M_takes(p102, monkeypatch, x, y):
    # just outside the box, inside the tolerance: both clamp the same way, so
    # the upper branch is reported exactly when eval_M evaluates f, at the
    # interval of the u it evaluates f at
    import a1embed.bellman as bm

    us = []
    monkeypatch.setattr(bm, "eval_f", lambda p, u: us.append(u) or eval_f(p, u))
    eval_M(p102, x, y)
    info = classify_point(p102, x, y)
    assert info.branch == ("upper" if us else "lower")
    if us:
        assert info.k == _interval_index(p102, us[0])[0]


def test_surface_domain_errors(p102):
    with pytest.raises(DomainError):
        eval_M(p102, 1.5, 5.0)
    with pytest.raises(DomainError):
        eval_M(p102, 0.5, 10.5)
    with pytest.raises(DomainError):
        eval_M(p102, 0.5, 0.5)
    with pytest.raises(DomainError):
        eval_B(p102, 0.5, 5.0, -1.0)
    with pytest.raises(DomainError):
        eval_B(p102, 0.5, 21.0, 2.0)


def test_unnormalized_scaling(p102):
    assert eval_B(p102, 0.5, 11.0, 2.0) == pytest.approx(10.0, rel=1e-14)
    assert eval_B(p102, 0.25, 10.0, 1.0) == pytest.approx(9.25, rel=1e-14)


@settings(max_examples=300, deadline=None)
@given(
    x=st.floats(min_value=1e-6, max_value=1.0),
    u=st.floats(min_value=1.0, max_value=10.0),
    m=st.floats(min_value=1e-4, max_value=1e4),
)
def test_homogeneity(p102, x, u, m):
    # B(x, m*u, m) = m * M(x, u)
    a = eval_B(p102, x, m * u, m)
    b = m * eval_M(p102, x, min(u, p102.Q))
    assert abs(a - b) <= 1e-9 * max(1.0, abs(b))


def test_degenerate_surface():
    p = new_params(1.0, 2)
    assert eval_B(p, 0.5, 3.0, 3.0) == 1.5
    assert eval_M(p, 0.25, 1.0) == 0.25


def test_wedge_reference_value(p102):
    assert wedge_Mk(p102, 1, 0.01, 10.0) == pytest.approx(8.362, rel=1e-12)
    with pytest.raises(ValueError):
        wedge_Mk(p102, -1, 0.5, 5.0)


def test_wedge_scalar_is_the_vector_kernel(p102):
    # same planes, same plane choice, same bits
    rng = np.random.default_rng(3)
    x = rng.uniform(0.0, 1.0, 200)
    y = rng.uniform(1.0, p102.Q, 200)
    for k in (0, 1, 2, 5):
        v = _wedge_vec(p102, k, x, y)
        assert [wedge_Mk(p102, k, a, b) for a, b in zip(x, y)] == v.tolist()


def test_wedge_planes(p102):
    ne = p102.N * p102.eta
    for k in (0, 1, 2):
        c = wedge_coeffs(p102, k)
        assert c.a == pytest.approx(ne**k, rel=1e-14)
        assert c.b == pytest.approx(p102.eta**k, rel=1e-14)


def test_wedge_continuity_across_region_boundary(p102):
    # the two planes agree on the dividing line y = 1 + (Q-1) N^k x
    for k in (1, 2, 3):
        x = 0.7 * p102.N ** (-k)
        y = 1 + (p102.Q - 1) * p102.N**k * x
        lo = wedge_Mk(p102, k, x, y * (1 - 1e-9))
        hi = wedge_Mk(p102, k, x, y * (1 + 1e-9))
        assert abs(lo - hi) <= 1e-6


def test_wedge_dominates_surface(p102):
    rng = np.random.default_rng(5)
    for k in (1, 2, 4):
        x = p102.N ** (-k) * rng.uniform(0.02, 1.0, 300)
        y = rng.uniform(1.0, p102.Q, 300)
        m = np.array([eval_M(p102, a, b) for a, b in zip(x, y)])
        w = np.array([wedge_Mk(p102, k, a, b) for a, b in zip(x, y)])
        assert np.all(w >= m - 1e-9)


WEDGE_CALLS = {
    "wedge_coeffs": lambda p, k: wedge_coeffs(p, k),
    "wedge_Mk": lambda p, k: wedge_Mk(p, k, 0.5, 1.0),
    "_wedge_vec": lambda p, k: _wedge_vec(p, k, np.array([0.5]), np.array([1.0])),
}


@pytest.mark.parametrize("Q, d, k", [(10.0, 20, 60), (10.0, 10, 200),
                                     (1.0001, 20, 60)])
@pytest.mark.parametrize("name", sorted(WEDGE_CALLS))
def test_wedge_overflow_is_a_domain_error(name, Q, d, k):
    # (N eta)^k or N^k beyond the float range: a typed error, not OverflowError;
    # at Q = 1.0001 the slope (N eta)^60 is finite and only N^60 overflows
    p = new_params(Q, d)
    if name == "wedge_coeffs" and Q < 2:
        assert math.isfinite(wedge_coeffs(p, k).a)
        return
    with pytest.raises(DomainError, match="overflows a float"):
        WEDGE_CALLS[name](p, k)


def test_vectorized_matches_scalar(p102):
    rng = np.random.default_rng(11)
    x = rng.uniform(1e-6, 1.0, 500)
    y = rng.uniform(1.0, p102.Q, 500)
    f_s = np.array([eval_f(p102, v) for v in x])
    assert np.allclose(_f_vec(p102, x), f_s, rtol=1e-13, atol=0)
    m_s = np.array([eval_M(p102, a, b) for a, b in zip(x, y)])
    assert np.allclose(_M_vec(p102, x, y), m_s, rtol=1e-13, atol=0)
    m = rng.uniform(0.5, 2.0, 500)
    b_s = np.array([eval_B(p102, a, bb * mm, mm) for a, bb, mm in zip(x, y, m)])
    assert np.allclose(_B_vec(p102, x, y * m, m), b_s, rtol=1e-13, atol=0)


# Adversarial points for the interval index and the two kernels: every
# normal breakpoint N^-k with its float neighbours in (0, 1], one subnormal,
# and y one ulp either side of the dividing line y = 1 + (Q-1)x.
EDGE_QS = (1 + 1e-9, 1.0001, 2.0, 10.0, 1e12)


def _edge_xs(d: int) -> np.ndarray:
    xs = {5e-324 * 3}
    k = 0
    while math.ldexp(1.0, -d * k) >= 2.0**-1022:
        node = math.ldexp(1.0, -d * k)
        xs.update((math.nextafter(node, 0.0), node, math.nextafter(node, 2.0)))
        k += 1
    return np.array(sorted(x for x in xs if 0 < x <= 1))


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # both non-negative, so the integer views are ordered like the floats
    return np.abs(a.view(np.int64) - b.view(np.int64))


@pytest.mark.parametrize("d", range(1, 21))
def test_interval_index_and_kernels_at_breakpoints(d):
    xs = _edge_xs(d)
    p = new_params(2.0, d)
    for x in xs.tolist():
        k, s = _interval_index(p, x)
        assert 1.0 / p.N < s <= 1.0 and math.ldexp(s, -d * k) == x
    for Q in EDGE_QS:
        p = new_params(Q, d)
        f_s = np.array([eval_f(p, x) for x in xs.tolist()])
        assert _ulps(_f_vec(p, xs), f_s).max() <= 2
        line = 1 + (p.Q - 1) * xs
        pts = [(x, y) for x, l in zip(xs.tolist(), line.tolist())
               for y in (math.nextafter(l, 0.0), l, math.nextafter(l, math.inf))
               if 1.0 <= y <= p.Q and in_omega(p, x, y)]
        x, y = np.array(pts).T
        m_s = np.array([eval_M(p, a, b) for a, b in pts])
        assert _ulps(_M_vec(p, x, y), m_s).max() <= 2


# The vector kernels as they were written with boolean masks and a pow per
# element, frozen: _f_vec and _M_vec must keep their bits exactly, since
# every sampler report prints values and witnesses computed by them.

def _masked_f_vec(p, x):
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    pos = x > 0
    if not pos.any():
        return out
    xp = x[pos]
    _, e = np.frexp(xp)
    k = np.maximum(0, -(e.astype(np.int64)) // p.d)
    s = np.ldexp(xp, (p.d * k).astype(np.int32))
    low = s <= 1.0 / p.N
    if low.any():
        k = np.where(low, k + 1, k)
        s = np.ldexp(xp, (p.d * k).astype(np.int32))
    out[pos] = np.power(p.eta, k) * (p.Q - 1 + s)
    np.minimum(out, p.Q, out=out)
    return out


def _masked_M_vec(p, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    lower = y <= 1 + (p.Q - 1) * x + BOUNDARY_TOL
    out = np.empty_like(x)
    out[lower] = x[lower] + y[lower] - 1
    up = ~lower
    if up.any():
        xu, yu = x[up], y[up]
        u = np.minimum(xu * (p.Q - 1) / (yu - 1), 1.0)
        out[up] = (yu - 1) / (p.Q - 1) * _masked_f_vec(p, u)
    return out


def _kernel_points(p, seed: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """xs for f; (x, y) for M: random, every breakpoint N^-k and its float
    neighbours, subnormals, 0 and 1, with y on the line y = 1 + (Q-1)x and
    one ulp either side of it, and y = 1, Q."""
    rng = np.random.default_rng(seed)
    xs = np.concatenate([_edge_xs(p.d), rng.random(200),
                         [0.0, 5e-324, 2.0**-1030, 2.0**-1022, 1.0]])
    line = 1 + (p.Q - 1) * xs
    ys = np.stack([np.nextafter(line, 0.0), line, np.nextafter(line, np.inf),
                   np.ones_like(xs), np.full_like(xs, p.Q),
                   1 + (p.Q - 1) * rng.random(xs.size)])
    x, y = np.broadcast_to(xs, ys.shape).ravel(), np.clip(ys, 1.0, p.Q).ravel()
    return rng.permutation(xs), x, y


@pytest.mark.parametrize("d", range(1, 21))
def test_kernels_match_masked_reference_bit_for_bit(d):
    for Q in EDGE_QS:
        p = new_params(Q, d)
        xs, x, y = _kernel_points(p, d)
        assert np.array_equal(_f_vec(p, xs), _masked_f_vec(p, xs))
        assert np.array_equal(_M_vec(p, x, y), _masked_M_vec(p, x, y))


@settings(max_examples=200, deadline=None)
@given(Q=st.floats(1 + 1e-9, 1e12), d=st.integers(1, 20),
       xs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40),
       ts=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=40))
def test_kernels_match_masked_reference_hypothesis(Q, d, xs, ts):
    p = new_params(Q, d)
    n = min(len(xs), len(ts))
    x = np.array(xs[:n])
    y = 1 + (p.Q - 1) * np.array(ts[:n])
    assert np.array_equal(_f_vec(p, x), _masked_f_vec(p, x))
    assert np.array_equal(_M_vec(p, x, y), _masked_M_vec(p, x, y))


@pytest.mark.parametrize("Q, d", [(1 + 1e-9, 1), (2.0, 1), (10.0, 2), (1e12, 20)])
def test_eta_power_table_matches_elementwise_power(Q, d):
    # _f_vec looks eta^k up in np.power(eta, arange(max k + 1)); the lengths
    # 1..17 put k in the vector body and the remainder of numpy's SIMD loops
    p = new_params(Q, d)
    rng = np.random.default_rng(17)
    for n in range(1, 18):
        for top in (n - 1, 60, 1074):
            k = rng.permutation(np.arange(top + 1))[:n].astype(np.int32)
            table = np.power(p.eta, np.arange(k.max() + 1))
            assert np.array_equal(table[k], np.power(p.eta, k.astype(np.int64)))
