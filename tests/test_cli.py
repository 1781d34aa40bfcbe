"""End-to-end runs of the command-line front end (in-process)."""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import a1embed
from a1embed import bellman, cli, eval_M, new_params, pair_from_json, stats
from a1embed.cli import _fmt, _header, _json_text, main


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_eval_upper_branch(capsys):
    rc, out, _ = run(capsys, "eval", "--Q", "10", "--d", "2", "--x", "0.25",
                     "--y", "10")
    assert rc == 0
    assert out.startswith("# a1embed")
    assert "cmd=eval" in out
    assert "= 9.25" in out
    assert "upper branch, node k=1" in out


def test_eval_lower_branch(capsys):
    rc, out, _ = run(capsys, "eval", "--Q", "10", "--d", "2", "--x", "1",
                     "--y", "7")
    assert rc == 0
    assert "= 7" in out
    assert "lower branch" in out


def test_eval_domain_error(capsys):
    rc, _, err = run(capsys, "eval", "--Q", "10", "--d", "2", "--x", "2",
                     "--y", "7")
    assert rc == 2
    assert "error:" in err


def test_eval_unnormalized(capsys):
    rc, out, _ = run(capsys, "eval", "--Q", "10", "--d", "2", "--x", "0.5",
                     "--y", "11", "--m", "2")
    assert rc == 0
    assert "= 10" in out


def test_table(capsys):
    rc, out, _ = run(capsys, "table", "--Q", "10", "--d", "2", "--nx", "3",
                     "--ny", "3")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1] == "x,y,M"
    assert len(lines) == 2 + 9


def test_plot_data_shape_and_order(capsys):
    rc, out, _ = run(capsys, "plot-data", "--Q", "10", "--d", "2",
                     "--n-points", "50")
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[1] == "x,f,f_smooth,f_over_Q,f_smooth_over_Q"
    rows = [list(map(float, ln.split(","))) for ln in lines[2:]]
    xs = [r[0] for r in rows]
    assert xs == sorted(xs)
    assert xs[0] == 1e-6 and xs[-1] == 1.0
    for x, f, fs, fq, fsq in rows:
        assert f <= fs * (1 + 1e-12)
        assert fq == pytest.approx(f / 10.0, rel=1e-15)
        assert fsq == pytest.approx(fs / 10.0, rel=1e-15)
    node_rows = {r[0]: r for r in rows}
    assert node_rows[0.25][1] == pytest.approx(9.25, rel=1e-14)
    assert node_rows[0.25][2] == pytest.approx(9.25, rel=1e-14)


def test_plot_data_always_includes_nodes(capsys):
    # even a two-point request carries every node of the profile
    rc, out, _ = run(capsys, "plot-data", "--Q", "10", "--d", "2",
                     "--n-points", "2")
    assert rc == 0
    xs = [float(ln.split(",")[0]) for ln in out.strip().splitlines()[2:]]
    assert 1e-6 in xs and 1.0 in xs and 0.25 in xs and 0.0625 in xs


def test_plot_data_byte_identical(capsys):
    rc1, out1, _ = run(capsys, "plot-data", "--Q", "10", "--d", "2")
    rc2, out2, _ = run(capsys, "plot-data", "--Q", "10", "--d", "2")
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_extremize_writes_loadable_pair(capsys, tmp_path):
    out_file = tmp_path / "pair.json"
    rc, out, _ = run(capsys, "extremize", "--Q", "10", "--d", "2", "--x", "0.3",
                     "--y", "8", "--depth", "16", "--out", str(out_file))
    assert rc == 0
    assert "gap to closed form" in out
    doc = json.loads(out_file.read_text())
    assert doc["depth"] == 16
    assert doc["target"] == {"x": 0.3, "y": 8.0, "m": 1.0}
    Q, d, w, E = pair_from_json(doc, max_depth=80)
    st = stats(w, E)
    assert float(st.value) == pytest.approx(doc["achieved"]["value"], abs=1e-12)


def test_extremize_corner_has_zero_gap(capsys, tmp_path):
    out_file = tmp_path / "corner.json"
    rc, out, _ = run(capsys, "extremize", "--Q", "10", "--d", "2", "--x",
                     "0.0625", "--y", "10", "--depth", "8", "--out",
                     str(out_file))
    assert rc == 0
    doc = json.loads(out_file.read_text())
    assert doc["achieved"]["value"] == pytest.approx(8.55625, rel=1e-12)
    gap_line = [ln for ln in out.splitlines() if "gap" in ln][0]
    assert abs(float(gap_line.rsplit(" ", 1)[1])) <= 1e-9


def test_extremize_depth_cap(capsys):
    rc, _, err = run(capsys, "extremize", "--Q", "10", "--d", "2", "--x", "0.5",
                     "--y", "5.5", "--depth", "40")
    assert rc == 2
    assert "error:" in err


def test_verify_single_suite(capsys):
    rc, out, _ = run(capsys, "verify", "--Q", "10", "--d", "2", "--suite",
                     "concavity", "--samples", "2000")
    assert rc == 0
    assert "concavity: PASS" in out


def test_verify_all_json(capsys):
    rc, out, _ = run(capsys, "verify", "--Q", "10", "--d", "2", "--samples",
                     "4000", "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert "header" in doc
    assert len(doc["reports"]) >= 10
    assert all(r["passed"] for r in doc["reports"])


def test_verify_byte_identical(capsys):
    args = ("verify", "--Q", "5", "--d", "3", "--suite", "main-inequality-M",
            "--samples", "5000", "--seed", "7", "--format", "json")
    rc1, out1, _ = run(capsys, *args)
    rc2, out2, _ = run(capsys, *args)
    assert rc1 == rc2 == 0
    assert out1 == out2


def test_verify_unknown_suite(capsys):
    rc, _, err = run(capsys, "verify", "--Q", "10", "--d", "2", "--suite",
                     "bogus")
    assert rc == 2
    assert "error:" in err


def test_verify_bad_format_flag(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--Q", "10", "--d", "2", "--format", "xml"])


def test_oracle_csv(capsys, tmp_path):
    out_file = tmp_path / "oracle.csv"
    rc, out, _ = run(capsys, "oracle", "--Q", "2", "--d", "1", "--depth", "2",
                     "--out", str(out_file))
    assert rc == 0
    assert "oracle-vs-closed-form: PASS" in out
    lines = out_file.read_text().strip().splitlines()
    assert lines[0].startswith("# a1embed")
    assert lines[1] == "x,y,m,value,witness_id"
    assert len(lines) > 10


def test_oracle_json(capsys):
    rc, out, err = run(capsys, "oracle", "--Q", "2", "--d", "1", "--depth", "1",
                       "--format", "json")
    assert rc == 0
    doc = json.loads(out)
    assert doc["depth"] == 1
    assert doc["bridge"]["passed"] is True
    assert "oracle-vs-closed-form: PASS" in err


def test_oracle_default_grid_at_depth_three(capsys):
    # the default grid's 10 values: 10^8 leaf assignments, 4 corners
    rc, out, err = run(capsys, "oracle", "--Q", "2", "--d", "1", "--depth", "3")
    assert rc == 0
    assert out.splitlines()[1] == "x,y,m,value,witness_id"
    assert err.startswith("oracle-vs-closed-form: PASS")
    assert "4 corner checks" in err


@pytest.mark.parametrize("depth", ["0", "-1"])
def test_oracle_depth_below_one(capsys, depth):
    rc, out, err = run(capsys, "oracle", "--Q", "2", "--d", "1", "--depth",
                       depth)
    assert rc == 2
    assert out == ""
    assert err == f"error: oracle needs depth >= 1, got {depth}\n"


@pytest.mark.parametrize("argv", [
    ("--Q", "2", "--d", "4", "--depth", "4"),     # 10^16 pairs at level 1
    ("--Q", "2", "--d", "10", "--depth", "3"),    # 2^30 leaves
    ("--Q", "1", "--d", "1", "--depth", "40"),    # one value, 2^40 leaves
    ("--Q", "1", "--d", "1", "--depth", "12", "--format", "json"),  # 2^24 out
    ("--Q", "2", "--d", "1", "--depth", "3000"),  # refused before the grid
    ("--Q", "2", "--d", "1", "--depth", "1", "--grid", "100000"),  # likewise
], ids=" ".join)
def test_oracle_size_refusal_is_fast(capsys, argv):
    start = time.perf_counter()
    rc, out, err = run(capsys, "oracle", *argv)
    assert time.perf_counter() - start < 1.0
    assert rc == 2
    assert out == ""
    assert err.startswith("error: ") and "exceed the oracle cap" in err
    assert len(err) < 200


@pytest.mark.parametrize("grid", ["1", "0", "-2"])
def test_oracle_bad_grid(capsys, grid):
    # each printed the same PASS table as a valid grid, echoing the bad value
    rc, out, err = run(capsys, "oracle", "--Q", "2", "--d", "1", "--depth",
                       "1", "--grid", grid)
    assert rc == 2
    assert out == ""
    assert err == f"error: oracle grid needs grid_size >= 2, got {grid}\n"


@pytest.mark.parametrize("seed, rc", [
    (2**63 - 1, 0),
    (2**63, 2),         # 2^64 - 2 warned on a cast, 2^64 overflowed Philox
    (-1, 2),
])
def test_verify_seed_range(capsys, seed, rc):
    got, out, err = run(capsys, "verify", "--Q", "10", "--d", "2", "--suite",
                        "concavity", "--seed", str(seed))
    assert got == rc
    if rc:
        assert out == ""
        assert err == f"error: suites need a seed in [0, 2^63), got {seed}\n"
    else:
        assert "concavity: PASS" in out


# Above Q ~ 1e7 the rounding of values near Q exceeded an absolute 1e-9 and
# read as a violation; the rule's scale, max(1, |lhs|, |rhs|), absorbs it.
@pytest.mark.parametrize("Q", ["1e7", "1e8", "1e10", "1e12"])
@pytest.mark.parametrize("d", ["1", "2"])
def test_verify_passes_at_large_q(capsys, Q, d):
    rc, out, _ = run(capsys, "verify", "--Q", Q, "--d", d, "--suite", "all",
                     "--samples", "20000")
    assert rc == 0, out
    assert "FAIL" not in out


@pytest.mark.parametrize("Q", ["3e8", "7e9", "1e11"])
def test_oracle_bridge_passes_at_large_q(capsys, Q):
    rc, _, err = run(capsys, "oracle", "--Q", Q, "--d", "1", "--depth", "1")
    assert rc == 0
    assert err.startswith("oracle-vs-closed-form: PASS")


@pytest.mark.parametrize("Q", [3e7, 1e8, 1e9, 1e12])
@pytest.mark.parametrize("x, f", [(0.3, 0.8), (0.05, 0.95), (0.5, 0.2)])
def test_extremize_passes_at_large_q(capsys, Q, x, f):
    y = 1 + f * (Q - 1)
    rc, out, err = run(capsys, "extremize", "--Q", repr(Q), "--d", "2",
                       "--x", repr(x), "--y", repr(y), "--depth", "20")
    assert rc == 0, err
    assert json.loads(out)["achieved"]["char"] <= Q * (1 + 1e-9)


@pytest.mark.parametrize("argv, message", [
    ("verify --Q 1e306 --d 1 --suite weak-type", "weak-type forms Q * 2^9,"),
    ("verify --Q 1e290 --d 10 --suite weak-type", "weak-type forms Q * 2^90,"),
    ("verify --Q 1e306 --d 1", "wedge-domination forms Q * 2^10,"),
    ("verify --Q 1e308 --d 1 --samples 1000", "main-inequality-M forms Q * 2^1,"),
    ("oracle --Q 1.7e308 --d 2 --depth 1 --format json",
     "a grid value overflows a float"),
    ("extremize --Q 1.7e308 --d 1 --x 0.3 --y 1e308 --depth 8 --exact",
     "a weight leaf overflows a float"),
    ("extremize --Q 1.7e308 --d 1 --x 0.3 --y 1e308 --depth 8",
     "characteristic inf > Q"),
])
def test_huge_q_exits_two_with_an_error_line(capsys, argv, message):
    # one error line each: no traceback, no verdict on overflowed arithmetic
    # and no pair with an infinite leaf
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and message in err


def test_oracle_csv_writes_no_leaves_at_huge_q(capsys):
    rc, out, err = run(capsys, "oracle", "--Q", "1.7e308", "--d", "2",
                       "--depth", "1")
    assert rc == 0 and len(out.splitlines()) == 26 and "PASS" in err


def test_extremize_refuses_a_pair_past_the_entry_cap(capsys):
    # 20 nodes of 2^20 children, refused before the build
    t = time.perf_counter()
    rc, out, err = run(capsys, "extremize", "--Q", "10", "--d", "20", "--x",
                       "0.3", "--y", "8", "--depth", "2")
    assert (rc, out) == (2, "")
    assert "may hold 20971520 entries" in err and "cap 5000000" in err
    assert time.perf_counter() - t < 5


@pytest.mark.parametrize("argv", [
    "table --Q 2 --d 1",
    "plot-data --Q 2 --d 1",
    "extremize --Q 2 --d 1 --x 0.3 --y 1.5 --depth 4",
    "oracle --Q 2 --d 1",
])
@pytest.mark.parametrize("target", ["missing/x.out", "."])
def test_unwritable_out_exits_two_with_an_error_line(capsys, tmp_path, argv,
                                                     target):
    # a missing directory (FileNotFoundError) or a directory
    # (IsADirectoryError) ended in a traceback and exit 1
    rc, _, err = run(capsys, *argv.split(), "--out", str(tmp_path / target))
    assert rc == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(tmp_path) in err


def test_out_of_memory_exits_two_with_an_error_line():
    # smooth-bound's 1e9-point grid past a 1.5 GB address space, set in the
    # child only: numpy's MemoryError ended in a traceback and exit 1
    limit = 1_500_000_000

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(a1embed.__file__).parent.parent)
    # one BLAS thread: OpenBLAS reserves a stack per thread at import
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    run = subprocess.run(
        [sys.executable, "-m", "a1embed.cli", "verify", "--Q", "2", "--d", "1",
         "--suite", "smooth-bound", "--samples", "1000000000"],
        env=env, preexec_fn=cap,
        capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stdout) == (2, "")
    assert run.stderr.startswith("error: Unable to allocate")
    assert run.stderr.count("\n") == 1


@pytest.mark.parametrize("tol", ["inf", "nan", "-1"])
def test_verify_bad_tol(capsys, tol):
    # inf passed every suite, nan failed every one, -1 failed concavity
    rc, out, err = run(capsys, "verify", "--Q", "10", "--d", "2", "--suite",
                       "all", "--tol", tol)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: suites need a finite tol >= 0")


def test_missing_required_flag():
    with pytest.raises(SystemExit):
        main(["eval", "--Q", "10", "--d", "2", "--x", "0.5"])


def test_oracle_q1_grid_size_is_not_read(capsys):
    # at Q = 1 every ladder value is 1, so the ladder is never built
    argv = ("oracle", "--Q", "1", "--d", "1", "--depth", "1", "--format",
            "json", "--grid")
    small = run(capsys, *argv, "2")
    start = time.perf_counter()
    large = run(capsys, *argv, "100000")
    assert time.perf_counter() - start < 0.2
    assert large == small
    assert small[0] == 0


@pytest.mark.parametrize("nx, ny", [("0", "-5"), ("0", "3"), ("-1", "3"),
                                    ("3", "0"), ("1", "-1")])
def test_table_refuses_empty_grid(capsys, nx, ny):
    # --nx 0 exited 0 whatever --ny was; --nx -1 exited 2 in numpy's words
    rc, out, err = run(capsys, "table", "--Q", "10", "--d", "2", "--nx", nx,
                       "--ny", ny)
    assert (rc, out) == (2, "")
    assert err == f"error: table needs nx, ny >= 1, got {nx}, {ny}\n"


def _scalar_table(Q: float, d: int, nx: int, ny: int) -> str:
    """`table` as printed point by point: eval_M and _fmt on every cell."""
    p = new_params(Q, d)
    lines = [_header("table", Q=Q, d=d, nx=nx, ny=ny), "x,y,M"]
    for x in np.linspace(0.0, 1.0, nx).tolist():
        for y in np.linspace(1.0, p.Q, ny).tolist():
            v = x if p.degenerate else eval_M(p, x, y)
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(v)}")
    return "\n".join(lines) + "\n"


TABLE_QS = [1.0, 1 + 2**-52, 1.0001, 2.0, 10.0, 2.0**53 + 2, 1e300]


@settings(max_examples=150, deadline=None)
@given(Q=st.one_of(st.sampled_from(TABLE_QS), st.floats(1.0, 100.0),
                   st.floats(1.0, 1e300)),
       d=st.integers(1, 20), nx=st.integers(1, 70), ny=st.integers(1, 70),
       k=st.integers(0, 6))
# np.power's eta^k would move bytes in these three: eta^1..6 at d = 1, 2 and
# eta^3 at (5, 3), which the 600-row grid reaches at x = 1/599
@example(Q=2.5, d=1, nx=70, ny=70, k=0)
@example(Q=20.0, d=2, nx=70, ny=70, k=0)
@example(Q=5.0, d=3, nx=600, ny=2, k=0)
# nx = N^k + 1 puts x, and u = x at y = Q, on the breakpoints j N^-k, where
# x = N^-j takes _interval_index's up-step
@example(Q=10.0, d=2, nx=1, ny=1, k=3)
@example(Q=2.0, d=1, nx=1, ny=70, k=6)
@example(Q=2.0**53 + 2, d=1, nx=1, ny=33, k=5)
@example(Q=1 + 2**-52, d=3, nx=1, ny=9, k=2)
def test_table_prints_the_scalar_kernel(Q, d, nx, ny, k):
    if k and 2**(d * k) < 70:
        nx = 2**(d * k) + 1
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = main(["table", "--Q", repr(Q), "--d", str(d), "--nx", str(nx),
                   "--ny", str(ny)])
    assert rc == 0
    assert buf.getvalue() == _scalar_table(Q, d, nx, ny)


# sha256 of the 201 x 201 table as the per-point scalar path printed it
TABLE_201_SHA256 = "f35767add344eb0a41190fbdd02dff582f7f22396fd7bea56dd3dd42d0dc37ba"


def test_table_makes_no_scalar_call(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("table called a scalar kernel")

    for mod, name in ((bellman, "eval_M"), (bellman, "eval_f"), (cli, "eval_M")):
        monkeypatch.setattr(mod, name, refuse)
    rc, out, err = run(capsys, "table", "--Q", "10", "--d", "2", "--nx", "201",
                       "--ny", "201")
    assert (rc, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == TABLE_201_SHA256


@pytest.mark.parametrize("n", ["0", "-1"])
def test_plot_data_refuses_empty_grid(capsys, n):
    # --n-points 0 exited 0 with only the node rows
    rc, out, err = run(capsys, "plot-data", "--Q", "10", "--d", "2",
                       "--n-points", n)
    assert (rc, out) == (2, "")
    assert err == f"error: plot-data needs n_points >= 1, got {n}\n"


def test_main_is_reentrant(capsys, monkeypatch, tmp_path):
    table = ("table", "--Q", "5", "--d", "3", "--nx", "4", "--ny", "3")
    point = ("eval", "--Q", "10", "--d", "2", "--x", "0.25", "--y", "10")
    first = [run(capsys, *table), run(capsys, *point)]
    with pytest.raises(SystemExit):
        main(["eval", "--Q", "10", "--x", "0.5", "--y", "2"])
    capsys.readouterr()
    assert run(capsys, "eval", "--Q", "10", "--d", "2", "--x", "2",
               "--y", "7")[0] == 2
    for argv in [
        ("plot-data", "--Q", "10", "--d", "2", "--n-points", "5"),
        ("extremize", "--Q", "10", "--d", "2", "--x", "0.3", "--y", "8",
         "--depth", "4", "--out", str(tmp_path / "pair.json")),
        ("verify", "--Q", "10", "--d", "2", "--suite", "concavity",
         "--samples", "200"),
        ("oracle", "--Q", "2", "--d", "1", "--depth", "1"),
    ]:
        assert run(capsys, *argv)[0] == 0
    assert [run(capsys, *table), run(capsys, *point)] == first

    monkeypatch.setenv("COLUMNS", "80")
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit):
            main(["table", "--help"])
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert "--nx" in helps[0]


def test_parser_is_built_at_most_once(capsys, monkeypatch):
    progs = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for i in range(20):
        assert run(capsys, "eval", "--Q", "10", "--d", "2", "--x",
                   str(i / 20), "--y", "5")[0] == 0
    assert progs.count("a1embed") <= 1


_ODD_STRINGS = ["", "\"", "\\", "\x00", "\x1f\n\t", "\u00e9", "\u2028",
                "\U0001f600", "a\"b\\c"]
_json_leaves = (
    st.floats()
    | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                       1.7976931348623157e308, math.inf, -math.inf, math.nan])
    | st.integers(-2**256, 2**256) | st.booleans() | st.none()
    | st.text() | st.sampled_from(_ODD_STRINGS))
_json_keys = st.text() | st.sampled_from(_ODD_STRINGS)
_json_docs = st.recursive(
    _json_leaves,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(_json_keys, kids, max_size=4)),
    max_leaves=30)


@settings(max_examples=200, deadline=None)
@given(_json_docs)
def test_json_text_matches_stdlib(doc):
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


def test_json_text_shared_list_at_two_indents():
    leaves = [1.0, -0.0, 2, "x", None]
    pair = (0.5, math.inf)
    doc = {"a": leaves, "b": {"c": leaves, "d": [leaves, pair]},
           "e": [pair, {"f": [leaves]}], "g": leaves}
    assert _json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)


@pytest.mark.parametrize("doc", [{1: "x"}, {"a": {None: 1}},
                                 {"a": [{True: 1}]}, [{0.5: []}]])
def test_json_text_refuses_non_str_keys(doc):
    # the stdlib would write these keys as strings
    json.dumps(doc, indent=2, sort_keys=True)
    with pytest.raises(TypeError):
        _json_text(doc)
