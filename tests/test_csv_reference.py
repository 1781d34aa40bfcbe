"""`table` and `plot-data` in row blocks against their whole-output writers.

`ref_table` and `ref_plot_data` below are the two CSV writers as they were
before they streamed, frozen: `table` called `_M_vec` once per x row with
an `np.vectorize(math.pow)` eta^k table and formatted every cell on its
own, `plot-data` computed its five columns over the whole profile grid, and
both joined every line into one string.  The streaming writers must print
the same bytes at grids whose rows fall one short of, on and one past a
block: `table` runs the kernel on `_BLOCK // 2 // ny` x rows at a time
(at least one), `plot-data` formats 1024 rows at a time.  `_texts`, which
formats each distinct bit pattern of a block once, must give `"%.17g" % v`
for every float64, signed zeros and NaN payloads included.
"""

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from a1embed import new_params
from a1embed.bellman import _BLOCK, _M_vec, _f_vec
from a1embed.cli import _fmt, _header, _profile_grid, _texts, main


def ref_table(Q: float, d: int, nx: int, ny: int) -> str:
    p = new_params(Q, d)
    xs = np.linspace(0.0, 1.0, nx)
    ys = np.linspace(1.0, p.Q, ny)
    power = np.vectorize(math.pow, otypes=[float])
    y_texts = list(map(_fmt, ys.tolist()))
    lines = [_header("table", Q=Q, d=d, nx=nx, ny=ny), "x,y,M"]
    for x in xs.tolist():
        row = np.full(ny, x)
        row = row if p.degenerate else _M_vec(p, row, ys, power)
        x = _fmt(x)
        lines += [f"{x},{y},{v:.17g}" for y, v in zip(y_texts, row.tolist())]
    lines.append("")
    return "\n".join(lines)


def ref_plot_data(Q: float, d: int, n_points: int) -> str:
    p = new_params(Q, d)
    xs = set(np.geomspace(1e-6, 1.0, n_points).tolist())
    node = 1.0
    while node >= 1e-6:
        xs.add(node)
        node /= p.N
    xs = np.array(sorted(xs))
    f = _f_vec(p, xs)
    fs = p.Q * np.power(xs, p.epsilon)
    lines = [_header("plot-data", Q=Q, d=d, n_points=n_points),
             "x,f,f_smooth,f_over_Q,f_smooth_over_Q"]
    cols = (c.tolist() for c in (xs, f, fs, f / p.Q, fs / p.Q))
    lines += ["%.17g,%.17g,%.17g,%.17g,%.17g" % row for row in zip(*cols)]
    lines.append("")
    return "\n".join(lines)


def _stdout(argv) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert main(argv) == 0
    return buf.getvalue()


def _same_on_stdout_and_out(argv, tmp_path) -> str:
    text = _stdout(argv)
    out = tmp_path / "out.csv"
    assert _stdout([*argv, "--out", str(out)]) == ""
    assert out.read_bytes() == text.encode()
    return text


# every Q and every d of the list, at no more pairs than it takes
TABLE_PARAMS = [(1.0, 1), (1.0, 20), (1 + 2**-52, 1), (1 + 2**-52, 2),
                (10.0, 1), (10.0, 2), (10.0, 20), (1e300, 2), (1e300, 20)]
HALF = _BLOCK // 2               # grid points per kernel call
ROWS_201 = HALF // 201           # x rows per kernel call at ny = 201
TABLE_GRIDS = [(1, 1), (1, 201), (ROWS_201 - 1, 201), (ROWS_201 + 1, 201),
               (1, HALF + 1), (2, HALF + 1), (1, _BLOCK + 1), (2, _BLOCK + 1)]


@pytest.mark.parametrize("nx, ny", TABLE_GRIDS)
@pytest.mark.parametrize("Q, d", TABLE_PARAMS)
def test_table_matches_the_whole_output_writer(Q, d, nx, ny, tmp_path):
    argv = ["table", "--Q", repr(Q), "--d", str(d), "--nx", str(nx),
            "--ny", str(ny)]
    assert _same_on_stdout_and_out(argv, tmp_path) == ref_table(Q, d, nx, ny)


# a one-column grid takes HALF rows a block; the old writer made one
# kernel call per row, so only two parameter pairs run here
@pytest.mark.parametrize("nx", [HALF - 1, HALF + 1])
@pytest.mark.parametrize("Q, d", [(1.0, 1), (10.0, 2)])
def test_one_column_table_matches_the_whole_output_writer(Q, d, nx, tmp_path):
    argv = ["table", "--Q", repr(Q), "--d", str(d), "--nx", str(nx),
            "--ny", "1"]
    assert _same_on_stdout_and_out(argv, tmp_path) == ref_table(Q, d, nx, 1)


PLOT_PARAMS = [(10.0, 2), (1.0001, 1), (2.0, 1), (1e300, 20)]


def _points_for_rows(p, rows: int) -> int:
    """The --n-points at which the profile grid, nodes included, has rows."""
    n = rows - (len(_profile_grid(p, rows)) - rows)
    assert len(_profile_grid(p, n)) == rows
    return n


def _plot_data_matches(Q, d, n, tmp_path):
    argv = ["plot-data", "--Q", repr(Q), "--d", str(d), "--n-points", str(n)]
    assert _same_on_stdout_and_out(argv, tmp_path) == ref_plot_data(Q, d, n)


@pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 70001])
@pytest.mark.parametrize("Q, d", PLOT_PARAMS)
def test_plot_data_matches_the_whole_output_writer(Q, d, n, tmp_path):
    _plot_data_matches(Q, d, n, tmp_path)


@pytest.mark.parametrize("rows", [1023, 1024, 1025, 2049])
@pytest.mark.parametrize("Q, d", PLOT_PARAMS)
def test_plot_data_rows_around_a_block_match(Q, d, rows, tmp_path):
    # the nodes N^-k join the geometric grid, so --n-points counts fewer rows
    _plot_data_matches(Q, d, _points_for_rows(new_params(Q, d), rows), tmp_path)


SPECIAL = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -5e-324,
           2.2250738585072009e-308, 1.0, 1.0 + 2**-52]


def _bits(v: float) -> int:
    return int(np.array(v).view(np.uint64))


# every float64 bit pattern, NaN payloads and signed NaNs included, and the
# special values often enough to repeat within one block
BIT_PATTERNS = st.one_of(st.integers(0, 2**64 - 1),
                         st.floats(width=64).map(_bits),
                         st.sampled_from(SPECIAL).map(_bits))


@settings(max_examples=300, deadline=None)
@given(st.lists(BIT_PATTERNS, max_size=200))
@example([_bits(0.0), _bits(-0.0), _bits(0.0), _bits(math.nan),
          _bits(-math.nan), 0x7FF0000000000001, 1, 0x8000000000000001])
def test_texts_format_every_value_as_percent_17g(bits):
    block = np.array(bits, dtype=np.uint64).view(np.float64)
    assert _texts(block) == ["%.17g" % v for v in block.tolist()]
