"""The vector kernels bit for bit at any length, and the callers' blocks.

The vector kernels `_f_vec`, `_M_vec`, `_B_vec`, `_wedge_vec` and
`_upper_vec` are plain elementwise functions of arrays of any shape; they
do not block.  Their callers do: every verify suite (`verify._sweep`'s row
blocks) and the `table` and `plot-data` writers hand a kernel call at most
`bellman._BLOCK // 2` points, main-B's N-wide rows counted as rows x N; a
`table` row wider than that is one call of one row.  The
`ref_*` kernels below are the kernels as they ran on one whole array,
frozen: every step is elementwise, so no block size may move a bit.  The
one step that sees the whole input is `_f_vec`'s eta^k table, power(eta,
0..max k), whose length follows each call's largest k; a test pins that
np.power's table does not depend on its length.  The spy test holds the
callers to their bound.  The tracemalloc bounds hold every verify suite's
peak to its row blocks and the grids it keeps whole, and the `table` and
`plot-data` writers' peaks to their row blocks, not to their output.
"""

import math
import tracemalloc

import numpy as np
import pytest

from a1embed import cli, new_params, verify, wedge_coeffs
from a1embed.bellman import (
    _BLOCK,
    _B_vec,
    _M_vec,
    _f_vec,
    _upper_vec,
    _wedge_vec,
)
from a1embed.cli import main
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
    # the kernels are elementwise on any shape: (rows, columns) slices of
    # (c, N) draws, the upper group empty at n_low = N, give the reference's
    # bits
    p = new_params(Q, d)
    x, y = (a.reshape(-1, 8)[:, :5] for a in _points(p, 8 * rows, d))
    assert not x.flags.c_contiguous
    assert _same(_M_vec(p, x, y), ref_M_vec(p, x, y))
    assert _same(_B_vec(p, x, y, 1.0), ref_B_vec(p, x, y, 1.0))
    assert _same(_B_vec(p, x, Q * y, y), ref_B_vec(p, x, Q * y, y))
    assert _B_vec(p, x[:, :0], y[:, :0], y[:, :0]).shape == (rows, 0)


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


# at 1e5 samples every suite, at 1e6 the two that drew most per row, and
# wedge-domination, whose M grid (8 bytes a point) stays whole
PEAK_CASES = [*(((Q, d), 100_000, 3.5, list(SUITES))
                for Q, d in [(10.0, 2), (2.0, 1), (5.0, 3)]),
              ((5.0, 3), 1_000_000, 4.0, ["homogeneity", "main-inequality-B"]),
              ((5.0, 3), 1_000_000, 9.5, ["wedge-domination"])]


def test_main_B_peak_is_set_by_its_draws():
    # every suite reads its stream in row blocks, so no draw follows the
    # sample count; only the grids kept whole do, 8 bytes a point
    # (wedge-domination's M peaked at 10.4 MiB at 1e6 while it went to the
    # kernel as one array).  With whole chunks, at 1e5 samples homogeneity
    # peaked at 6.94 MiB, concavity 6.84, main-B 6.67, branch continuity
    # 5.43 and wedge domination 4.31; at 1e6 and (5, 3) homogeneity 68.7
    # and main-B 22.9 (12.9 at 1e5 while its child values went through
    # concatenated copies)
    for (Q, d), n, mib, names in PEAK_CASES:
        p = new_params(Q, d)
        for name in names:
            run_suite(p, name, 100)
            peak = _peak(lambda: run_suite(p, name, n))
            assert peak < mib * 2**20, (Q, d, n, name, peak / 2**20)


@pytest.mark.parametrize("n", [1, 2, _BLOCK // 2 + 1, _BLOCK + 3, 3 * _BLOCK + 5])
def test_smooth_bound_blocks_are_its_joined_grid(monkeypatch, n):
    # smooth-bound reads each block from its linspace and geomspace halves,
    # where it once sliced one joined copy: its blocks, in order, must be
    # that copy's rows.  A report would not show a row read twice, since
    # its witness is an x, not a row number
    p = new_params(10.0, 2)
    seen = []

    def spy(p, x, power=None):
        seen.append(x.copy())
        return _f_vec(p, x, power)

    monkeypatch.setattr(verify, "_f_vec", spy)
    verify.check_smooth_bound(p, n)
    grid = np.concatenate([np.linspace(0.0, 1.0, n // 2),
                           np.geomspace(1e-12, 1.0, n - n // 2)])
    blocks = seen[1:]       # seen[0] is the nodes N^-k
    assert max(b.size for b in blocks) <= _BLOCK // 2
    assert _same(np.concatenate(blocks), grid)


def test_csv_writers_stream_their_rows(tmp_path):
    # table and plot-data write each block of rows as it is formatted.  When
    # they joined every line into one string, table --nx 2001 --ny 201
    # peaked at 82 MiB and plot-data --n-points 200000 at 72 MiB; plot-data
    # still holds its profile grid (8 bytes a point) whole, for np.unique
    out = str(tmp_path / "out.csv")

    def peak(*argv):
        return _peak(lambda: main([*argv, "--Q", "10", "--d", "2", "--out", out]))

    peak("table", "--nx", "3", "--ny", "3")
    peak("plot-data", "--n-points", "3")
    small = peak("table", "--nx", "401", "--ny", "201")
    large = peak("table", "--nx", "2001", "--ny", "201")
    assert large < 3 * 2**20 and large - small < 2**20, (small, large)
    plot = peak("plot-data", "--n-points", "200000")
    assert plot < 6 * 2**20, plot / 2**20


def test_callers_hand_the_kernels_blocks(monkeypatch, tmp_path):
    # the kernels do not block, so their callers must: no kernel call from a
    # suite or a CSV writer gets more than _BLOCK // 2 points (main-B's
    # N-wide rows count rows x N), whatever the sample count or grid, save
    # a `table` row wider than that: it is one call of exactly one row
    kernels = ("_f_vec", "_M_vec", "_B_vec", "_wedge_vec", "_upper_vec")
    largest, sizes = {}, []

    def spy(name, kernel):
        def run(*args, **kw):
            n = max([a.size for a in args if isinstance(a, np.ndarray)] or [1])
            largest[name] = max(largest.get(name, 0), n)
            sizes.append(n)
            return kernel(*args, **kw)
        return run

    for module in (verify, cli):
        for name in kernels:
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    for Q, d in [(10.0, 2), (2.0, 1), (5.0, 3)]:
        run_suite(new_params(Q, d), "all", 100_000)
    for name in ["wedge-domination", "main-inequality-B", "homogeneity"]:
        run_suite(new_params(5.0, 3), name, 1_000_000)
    out, opts = str(tmp_path / "out.csv"), ["--Q", "10", "--d", "2"]
    assert main(["table", *opts, "--nx", "2001", "--ny", "201", "--out", out]) == 0
    assert main(["plot-data", *opts, "--n-points", "200000", "--out", out]) == 0
    assert sorted(largest) == sorted(kernels)
    assert max(largest.values()) <= _BLOCK // 2, largest
    sizes.clear()
    assert main(["table", *opts, "--nx", "3", "--ny", "40000", "--out", out]) == 0
    assert sizes == [40000] * 3
