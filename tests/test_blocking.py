"""The vector kernels in row blocks against the whole-array kernels, bit for bit.

`_f_vec`, `_M_vec`, `_B_vec` and `_wedge_vec` run on consecutive blocks
of at most `bellman._BLOCK` elements (`_upper_vec` through `_f_vec`).  The
`ref_*` kernels below are the same kernels as they ran on a whole array at
once, frozen: every step is elementwise, so blocking must move no bit.  The one
step that sees the whole input is `_f_vec`'s eta^k table, power(eta,
0..max k), whose length now follows each block's largest k; the last test
pins that np.power's table does not depend on its length.  The tracemalloc
bounds hold the kernels' temporaries to the block, not to the input, and
every verify suite's peak to its row blocks, not to its sample count.
"""

import math
import tracemalloc

import numpy as np
import pytest

from a1embed import new_params, wedge_coeffs
from a1embed.bellman import (
    _BLOCK,
    _B_vec,
    _M_vec,
    _f_vec,
    _upper_vec,
    _wedge_vec,
)
from a1embed.params import BOUNDARY_TOL, node_scale
from a1embed.verify import SUITES, run_suite


def ref_f_vec(p, x, power=np.power):
    x = np.asarray(x, dtype=float)
    e = np.frexp(x)[1]
    k = np.maximum(0, -e) // p.d
    s = np.ldexp(x, p.d * k)
    low = s <= 1.0 / p.N
    if low.any():
        k += low
        s = np.ldexp(x, p.d * k)
    s += p.Q - 1
    s *= power(p.eta, np.arange(k.max(initial=0) + 1))[k]
    s[~(x > 0)] = 0.0
    s[x >= 1] = p.Q
    return s


def ref_upper_vec(p, x, y, power=np.power):
    u = np.minimum(x * (p.Q - 1) / (y - 1), 1.0)
    return (y - 1) / (p.Q - 1) * ref_f_vec(p, u, power)


def ref_M_vec(p, x, y, power=np.power):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    out = x + y - 1
    up = np.nonzero(~(y <= 1 + (p.Q - 1) * x + BOUNDARY_TOL))
    out[up] = ref_upper_vec(p, x[up], y[up], power)
    return out


def ref_B_vec(p, x, y, m):
    m = np.asarray(m, dtype=float)
    yy = np.clip(np.asarray(y, dtype=float) / m, 1.0, p.Q)
    return m * ref_M_vec(p, np.asarray(x, dtype=float), yy)


def ref_wedge_vec(p, k, x, y):
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if k == 0:
        return x + (y - 1)
    ca = wedge_coeffs(p, k - 1)
    cb = wedge_coeffs(p, k)
    inside = y <= 1 + (p.Q - 1) * node_scale(p, k) * x + BOUNDARY_TOL
    return np.where(inside, ca.a * x + ca.b * (y - 1), cb.a * x + cb.b * (y - 1))


MATH_POW = np.vectorize(math.pow, otypes=[float])
SIZES = (_BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 7)
CASES = [(10.0, 2), (5.0, 3), (1.0001, 1), (1e12, 20)]


def _points(p, n: int, seed: int):
    """x = N^-u, u uniform on [0, 40], sorted, so each block spans its own
    run of intervals and builds an eta^k table of its own length; 0, 1 and
    the nodes N^-k sit among them.  y uniform on [1, Q]."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(1.0, -p.d * 40) ** rng.random(n)
    x[rng.integers(0, n, 41)] = [math.ldexp(1.0, -p.d * k) for k in range(40)] + [0.0]
    x = np.sort(x)
    return x, 1 + (p.Q - 1) * rng.random(n)


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("Q, d", CASES)
def test_blocks_change_no_bit(Q, d, n):
    p = new_params(Q, d)
    x, y = _points(p, n, n + d)
    assert _same(_f_vec(p, x), ref_f_vec(p, x))
    assert _same(_f_vec(p, x, MATH_POW), ref_f_vec(p, x, MATH_POW))
    assert _same(_upper_vec(p, x, y), ref_upper_vec(p, x, y))
    for power in (None, np.power, MATH_POW):
        want = ref_M_vec(p, x, y, power or np.power)
        assert _same(_M_vec(p, x, y, power), want)
    m = np.random.default_rng(n).uniform(0.5, 2.0, n)
    assert _same(_B_vec(p, x, m * y, m), ref_B_vec(p, x, m * y, m))
    assert _same(_B_vec(p, x, y, 1.0), ref_B_vec(p, x, y, 1.0))
    yq = Q * y      # main-B's upper children: y >= Q and m = y / Q
    assert _same(_B_vec(p, x, yq, yq / Q), ref_B_vec(p, x, yq, yq / Q))
    for k in (0, 1, 4):
        assert _same(_wedge_vec(p, k, x, y), ref_wedge_vec(p, k, x, y))


@pytest.mark.parametrize("rows", [64, _BLOCK])
@pytest.mark.parametrize("Q, d", CASES)
def test_row_blocks_of_a_column_slice(Q, d, rows):
    # main-B hands the kernel (rows, columns) slices of its (c, N) draws,
    # the upper group empty at n_low = N
    p = new_params(Q, d)
    x, y = (a.reshape(-1, 8)[:, :5] for a in _points(p, 8 * rows, d))
    assert not x.flags.c_contiguous
    assert _same(_M_vec(p, x, y), ref_M_vec(p, x, y))
    assert _same(_B_vec(p, x, y, 1.0), ref_B_vec(p, x, y, 1.0))
    assert _same(_B_vec(p, x, Q * y, y), ref_B_vec(p, x, Q * y, y))
    assert _B_vec(p, x[:, :0], y[:, :0], y[:, :0]).shape == (rows, 0)


def test_each_block_builds_its_own_table(p53):
    lengths = []

    def power(eta, ks):
        lengths.append(ks.size)
        return np.power(eta, ks)

    x, _ = _points(p53, 3 * _BLOCK + 7, 0)
    _f_vec(p53, x, power)
    assert len(lengths) == 4 and len(set(lengths)) == 4
    lengths.clear()
    _f_vec(p53, x[:_BLOCK], power)      # one block: the kernel as it is
    assert len(lengths) == 1


@pytest.mark.parametrize("Q, d", [(1 + 1e-9, 1), (1.0001, 1), (2.0, 1),
                                  (10.0, 2), (5.0, 3), (1e12, 20)])
def test_power_table_does_not_depend_on_its_length(Q, d):
    # eta^j from np.power(eta, arange(n)) has the same bits for every n > j,
    # in the SIMD body and in the remainder of numpy's loops alike
    eta = new_params(Q, d).eta
    full = np.power(eta, np.arange(1200))
    for n in (*range(1, 200), 511, 1075):
        assert np.power(eta, np.arange(n)).tobytes() == full[:n].tobytes()


def _peak(fn) -> int:
    """Bytes tracemalloc saw fn allocate above what was live at its call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def test_B_vec_temporaries_stay_in_the_block(p53):
    # a whole-array _B_vec peaked 46 MiB above its 1e6-point inputs
    rng = np.random.default_rng(1)
    x, t = rng.random(10**6), rng.random(10**6)
    m = rng.uniform(0.5, 2.0, 10**6)
    y = m * (1 + (p53.Q - 1) * t)
    _B_vec(p53, x[:10], y[:10], m[:10])
    assert _peak(lambda: _B_vec(p53, x, y, m)) < x.nbytes + 4 * 2**20


# at 1e5 samples every suite, at 1e6 the two that drew most per row
PEAK_CASES = [*(((Q, d), 100_000, 3.5, list(SUITES))
                for Q, d in [(10.0, 2), (2.0, 1), (5.0, 3)]),
              ((5.0, 3), 1_000_000, 4.0, ["homogeneity", "main-inequality-B"])]


def test_main_B_peak_is_set_by_its_draws():
    # every suite reads its stream in row blocks, so no peak follows the
    # sample count.  With whole chunks, at 1e5 samples homogeneity peaked
    # at 6.94 MiB, concavity 6.84, main-B 6.67, branch continuity 5.43 and
    # wedge domination 4.31; at 1e6 and (5, 3) homogeneity 68.7 and main-B
    # 22.9 (12.9 at 1e5 while its child values went through concatenated
    # copies)
    for (Q, d), n, mib, names in PEAK_CASES:
        p = new_params(Q, d)
        for name in names:
            run_suite(p, name, 100)
            peak = _peak(lambda: run_suite(p, name, n))
            assert peak < mib * 2**20, (Q, d, n, name, peak / 2**20)
