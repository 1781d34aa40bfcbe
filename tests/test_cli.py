"""End-to-end runs of the command-line front end (in-process)."""

import json
import time

import pytest

from a1embed import pair_from_json, stats
from a1embed.cli import main


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
