"""Every sampled and gridded suite in row blocks against whole chunks, bit for bit.

`verify._sweep` reads each chunk of a suite's plan in blocks of at most
`bellman._BLOCK // 2` points (x, y): a block of a chunk's j-th draw comes
from a generator placed where the whole-chunk draw reaches those rows, and
the grid suites take each block from one n-long grid.  The `ref_*` functions
below are the suites as they drew whole chunks (homogeneity all its rows,
the grids whole), with the fold they went through, frozen.  Every report
must match them to the last bit: the worst slack, its witness, the row
count, the verdict and the notes.  The sample counts sit one row under, at
and over a block boundary, and past three blocks.
"""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from a1embed import new_params
from a1embed import verify
from a1embed.bellman import _BLOCK, _B_vec, _M_vec, _f_vec, _upper_vec, \
    _wedge_vec
from a1embed.params import at_least
from a1embed.verify import CHUNK, CheckReport, MAX_WAVES, WAVE, _gen, _quota, \
    _row


def ref_sweep(suite, seed, chunks, draw, tol, notes=""):
    worst, witness, rows, ok = math.inf, None, 0, True
    for stream, size, key in chunks:
        slacks, row, lhs, rhs = draw(_gen(seed, stream), size, key)
        if slacks.size == 0:
            continue
        rows += slacks.size
        i = int(np.argmin(slacks))
        if slacks[i] < worst:
            worst, witness = float(slacks[i]), row(i)
        lhs, rhs = (np.broadcast_to(a, slacks.shape) for a in (lhs, rhs))
        for lo in range(0, slacks.size, _BLOCK):
            cut = slice(lo, lo + _BLOCK)
            ok = ok and bool(at_least(lhs[cut], rhs[cut], tol, slacks[cut]).all())
        del slacks, row, lhs, rhs
    return CheckReport(suite, rows, worst, witness, ok, notes)


def ref_main_M(p, n_samples, seed, tol=1e-9):
    N, Q = p.N, p.Q
    tally = [0, 0, 0, 0]

    def draw(g, c, _):
        x, xt, u_y, u_yt = g.random((4, c))
        xhat = N * x - (N - 1) * xt
        ok_order = xt <= x
        near = np.flatnonzero(ok_order & (xhat <= 1.0))
        y = 1.0 + (Q - 1.0) * u_y[near]
        yt = 1.0 + (Q - 1.0) * u_yt[near]
        yhat = N * y - (N - 1) * yt
        keep = yhat >= Q
        i = near[keep]
        cols = [x[i], y[keep], xt[i], yt[keep], xhat[i], yhat[keep]]
        lhs = _M_vec(p, cols[0], cols[1])
        rhs = ((N - 1) / N * _M_vec(p, cols[2], cols[3])
               + cols[5] / (N * Q) * _M_vec(p, cols[4], np.full_like(cols[4], Q)))
        tally[0] += i.size
        tally[1] += c
        tally[2] += np.count_nonzero(ok_order)
        tally[3] += np.count_nonzero(xhat >= 0)
        return lhs - rhs, _row(*cols), lhs, rhs

    plan = itertools.takewhile(lambda c: c[0] % WAVE or tally[0] < n_samples,
                               _quota(MAX_WAVES * WAVE * CHUNK))
    report = ref_sweep("main-inequality-M", seed, plan, draw, tol)
    _, raw, n_order, n_hat = tally
    return replace(report, notes=(
        f"constraint xt<=x implies xhat>=0 and is the one that binds: "
        f"raw pass rates xt<=x {n_order / raw:.4f}, xhat>=0 {n_hat / raw:.4f}"))


def ref_main_B(p, n_samples, seed, tol=1e-9):
    N, Q = p.N, p.Q

    def draw(g, c, n_low):
        n_hi = N - n_low
        xs = g.uniform(0.0, 1.0, (c, N))
        y_lo = g.uniform(1.0, Q, (c, n_low))
        slack_budget = N * Q - y_lo.sum(axis=1) - n_hi * Q
        y_hi = Q + slack_budget[:, None] * g.uniform(0.0, 1.0, (c, n_hi)) / n_hi
        ybar = np.concatenate([y_lo, y_hi], axis=1).mean(axis=1)
        child = np.empty((c, N))
        child[:, :n_low] = _B_vec(p, xs[:, :n_low], y_lo, 1.0)
        child[:, n_low:] = _B_vec(p, xs[:, n_low:], y_hi, y_hi / Q)
        lhs, rhs = _B_vec(p, xs.mean(axis=1), ybar, 1.0), child.mean(axis=1)
        return lhs - rhs, lambda i: {
            "stratum": n_low, "x": [float(v) for v in xs[i]],
            "y": [float(v) for v in (*y_lo[i], *y_hi[i])],
            "m": [1.0] * n_low + [float(v) for v in y_hi[i] / Q]}, lhs, rhs

    return ref_sweep("main-inequality-B", seed,
                     _quota(n_samples, range(1, N + 1)), draw, tol,
                     f"strata n_low=1..{N}")


def ref_wedge(p, n_samples, seed, tol=1e-9):
    N, Q = p.N, p.Q

    def draw(g, c, k):
        nodek = N ** (-k)
        x_lo = N ** (-k - 1.0)
        x_hi = (N - 1 + nodek) / N
        y_lo = (Q + N - 1) / N
        x = x_lo + (x_hi - x_lo) * g.uniform(0.0, 1.0, c)
        y_cap = np.minimum(Q, 1 + (Q - 1) * N**k * x)
        y = y_lo + (y_cap - y_lo) * g.uniform(0.0, 1.0, c)
        xh_lo = np.maximum(0.0, N * x - (N - 1))
        xhat = xh_lo + (nodek - xh_lo) * g.uniform(0.0, 1.0, c)
        yh_lo = np.maximum(Q, N * y - (N - 1) * Q)
        yh_hi = N * y - (N - 1)
        yhat = yh_lo + (yh_hi - yh_lo) * g.uniform(0.0, 1.0, c)
        pin = min(64, c // 2)
        xhat[:pin] = nodek
        yhat[pin:2 * pin] = Q
        xt = (N * x - xhat) / (N - 1)
        yt = (N * y - yhat) / (N - 1)
        lhs = _wedge_vec(p, k, x, y)
        rhs = ((N - 1) / N * _wedge_vec(p, k, xt, yt)
               + yhat / (N * Q) * _wedge_vec(p, k, xhat, np.full(c, Q)))
        return lhs - rhs, lambda i: {
            "k": k, "x": float(x[i]), "y": float(y[i]), "xt": float(xt[i]),
            "yt": float(yt[i]), "xhat": float(xhat[i]),
            "yhat": float(yhat[i])}, lhs, rhs

    return ref_sweep("wedge", seed, _quota(n_samples, range(7)), draw, tol,
                     "k=0..6, xhat capped at N^-k")


def ref_concavity(p, n_samples, seed, tol=1e-9):
    def draw(g, c, _):
        x1 = g.uniform(0.0, 1.0, c)
        x2 = g.uniform(0.0, 1.0, c)
        y1 = g.uniform(1.0, p.Q, c)
        y2 = g.uniform(1.0, p.Q, c)
        lam = g.uniform(0.0, 1.0, c)
        xm = lam * x1 + (1 - lam) * x2
        ym = lam * y1 + (1 - lam) * y2
        lhs = _M_vec(p, xm, ym)
        a, b = lam * _M_vec(p, x1, y1), (1 - lam) * _M_vec(p, x2, y2)
        return lhs - a - b, _row(x1, y1, x2, y2, lam), lhs, a + b

    return ref_sweep("concavity", seed, _quota(n_samples), draw, tol)


def ref_t_monotonicity(p, n_samples, seed, tol=1e-9):
    def draw(g, c, _):
        x = g.uniform(0.0, 1.0, c)
        y = g.uniform(1.0, p.Q, c)
        t2 = 1 + (y - 1) * g.uniform(0.0, 1.0, c)
        t1 = 1 + (t2 - 1) * g.uniform(0.0, 1.0, c)
        lhs, rhs = t1 * _M_vec(p, x, y / t1), t2 * _M_vec(p, x, y / t2)
        return lhs - rhs, _row(x, y, t1, t2), lhs, rhs

    return ref_sweep("t-monotonicity", seed, _quota(n_samples), draw, tol)


def ref_smooth_bound(p, n_samples, seed, tol=1e-9):
    half = n_samples // 2
    xs = np.concatenate([np.linspace(0.0, 1.0, half),
                         np.geomspace(1e-12, 1.0, n_samples - half)])

    def draw(g, c, _):
        lhs, rhs = p.Q * np.power(xs, p.epsilon), _f_vec(p, xs)
        return lhs - rhs, lambda i: float(xs[i]), lhs, rhs

    nodes = np.power(float(p.N), -np.arange(41.0))
    fs = p.Q * np.power(nodes, p.epsilon)
    rel = np.max(np.abs(_f_vec(p, nodes) - fs) / fs)
    notes = f"node agreement max rel err {rel:.3e} (k<=40)"
    r = ref_sweep("smooth-bound", seed, [(0, n_samples, 0)], draw, tol, notes)
    if rel > 1e-12:
        r = replace(r, worst_slack=-math.inf, passed=False,
                    notes=notes + "; node identity violated")
    return replace(r, samples=n_samples + 41)


def ref_branch_continuity(p, n_samples, seed, tol=1e-9):
    x = np.linspace(1e-9, 1.0, n_samples)
    y = 1 + (p.Q - 1) * x
    y = np.where(y - 1 < (p.Q - 1) * x, np.nextafter(y, p.Q), y)

    def draw(g, c, _):
        lhs, rhs = x + y - 1, _upper_vec(p, x, y)
        return -np.abs(lhs - rhs), lambda i: float(x[i]), lhs, rhs

    return ref_sweep("branch-continuity", seed, [(0, n_samples, 0)], draw, tol)


def ref_homogeneity(p, n_samples, seed, tol=1e-12):
    def draw(g, c, _):
        x = g.uniform(0.0, 1.0, c)
        m = g.uniform(0.5, 2.0, c)
        y = m * (1 + (p.Q - 1) * g.uniform(0.0, 1.0, c))
        t = g.uniform(0.5, 2.0, c)
        b1 = _B_vec(p, x, t * y, t * m)
        b2 = t * _B_vec(p, x, y, m)
        rel = np.abs(b1 - b2) / np.maximum(np.abs(b2), 1e-300)
        return -rel, _row(x, y, m, t), 0.0, 0.0

    return ref_sweep("homogeneity", seed, [(0, n_samples, 0)], draw, tol)


def ref_wedge_domination(p, n_samples, seed, tol=1e-9):
    side = max(2, int(math.isqrt(n_samples)))
    x = np.linspace(0.0, 1.0, side)
    y = np.linspace(1.0, p.Q, side)
    X, Y = (a.ravel() for a in np.meshgrid(x, y))
    m = _M_vec(p, X, Y)

    def draw(g, c, k):
        wedge = _wedge_vec(p, k, X, Y)
        return wedge - m, lambda i: {"k": k, "x": float(X[i]),
                                     "y": float(Y[i])}, wedge, m

    plan = ((0, X.size, k) for k in range(1, 11))
    return ref_sweep("wedge-domination", seed, plan, draw, tol,
                     f"k=1..10 on a {side}x{side} grid")


def _counts(j, keys=1):
    """Sample counts giving each of `keys` keys j - 1, j, j + 1 and 3 j + 1
    rows, j the rows of one block."""
    return [keys * r - (keys - 1) for r in (j - 1, j, j + 1, 3 * j + 1)]


B = _BLOCK // 2     # points (x, y) per block: rows, or N-wide main-B rows


# suite -> (the check, its frozen reference, sample counts at (Q, d))
SUITES = {
    "main-inequality-M": (verify.check_main_inequality_M, ref_main_M,
                          lambda p: [1, 5000]),
    "main-inequality-B": (verify.check_main_inequality_B, ref_main_B,
                          lambda p: _counts(B // p.N, p.N)),
    "wedge": (verify.check_wedge_inequality, ref_wedge,
              lambda p: _counts(B, 7)),
    "concavity": (verify.check_concavity, ref_concavity,
                  lambda p: _counts(B)),
    "t-monotonicity": (verify.check_t_monotonicity, ref_t_monotonicity,
                       lambda p: _counts(B)),
    "smooth-bound": (verify.check_smooth_bound, ref_smooth_bound,
                     lambda p: _counts(B)),
    "branch-continuity": (verify.check_branch_continuity,
                          ref_branch_continuity, lambda p: _counts(B)),
    "homogeneity": (verify.check_homogeneity, ref_homogeneity,
                    lambda p: [*_counts(B), 5 * B + 3]),
    # grid rows per block are B // side: 129, 128 and 127 at sides 127, 128
    # and 129, so one block short of, at and past the side; 40 at 400
    "wedge-domination": (verify.check_wedge_domination, ref_wedge_domination,
                         lambda p: [s * s for s in (127, 128, 129, 400)]),
}
CASES = [(10.0, 2), (5.0, 3), (1.0001, 1)]


@pytest.mark.parametrize("Q, d", CASES)
@pytest.mark.parametrize("name", list(SUITES))
def test_blocked_suite_matches_whole_chunks(name, Q, d):
    p = new_params(Q, d)
    check, ref, counts = SUITES[name]
    for n in counts(p):
        got, want = check(p, n_samples=n, seed=7), ref(p, n, seed=7)
        assert repr(got) == repr(want), (name, n)


def test_counts_straddle_the_blocks():
    # the counts give each key a block less one row, one block, one block
    # and a row, and past three blocks
    for Q, d in CASES:
        p = new_params(Q, d)
        rows = B // p.N
        assert [-(-n // p.N) for n in SUITES["main-inequality-B"][2](p)] == \
            [rows - 1, rows, rows + 1, 3 * rows + 1]
    assert [-(-n // 7) for n in SUITES["wedge"][2](p)] == \
        [B - 1, B, B + 1, 3 * B + 1]
    assert [B // s for s in (127, 128, 129)] == [129, 128, 127]
