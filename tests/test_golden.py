"""Golden outputs: SHA-256 of CLI runs whose bytes must not change.

Each case runs `a1embed` in-process and hashes its exit code, stdout and
stderr.  The hashes pin the closed form (`eval` on both branches and at a
breakpoint, `table`, `plot-data`), points just outside the box that are
clamped into it, the JSON of shallow and deep extremal
pairs (float and exact leaves, five dimensions, both branches), the
oracle's JSON and CSV tables (Q = 1 included) and every verify suite, so a
refactor of the kernel, tree, JSON, sampling or oracle code that moves a
single byte fails here.  A change that alters an output on
purpose updates the hash and says why.

plot-data and the samplers print np.power's eta^k, whose bits depend on the
loop numpy dispatches (conftest's `numpy_power_rounding`), so four cases hold
one hash per class.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import a1embed
from a1embed.cli import main

EXTREMIZE_POINTS = [
    # (Q, d, x, y, depth)
    (10, 2, 0.3, 8, 6),
    (10, 2, 0.3, 8, 20),
    (10, 2, 0.3, 8, 32),
    (10, 2, 0.05, 9.5, 32),
    (10, 2, 0.5, 2, 16),
    (10, 1, 0.01, 6, 24),
    (1.0001, 1, 0.3, 1.00005, 32),
    (3, 3, 0.2, 2.5, 12),
    (5, 4, 0.4, 1.5, 10),
    (10, 10, 0.3, 8, 8),
]

CLOSED_FORM = [
    # u = x(Q-1)/(y-1) lands exactly on the breakpoint N^-2
    "eval --Q 10 --d 2 --x 0.0625 --y 10",
    "eval --Q 10 --d 2 --x 0.3 --y 2",
    "eval --Q 5 --d 3 --x 0.2 --y 6 --m 1.5",
    "table --Q 10 --d 2",
    "table --Q 5 --d 3 --nx 21 --ny 21",
    # the last two are where the scalar and vector kernels round apart
    "plot-data --Q 10 --d 2",
    "plot-data --Q 5 --d 3",
    "plot-data --Q 1.0001 --d 1",
    # Q = 1 writes M = x; one x row; a one-node profile at d = 20
    "table --Q 1 --d 1 --nx 5 --ny 3",
    "table --Q 10 --d 2 --nx 1 --ny 2",
    "plot-data --Q 1e8 --d 20 --n-points 2",
]

EDGE = [
    # just outside the box, inside BOUNDARY_TOL: clamped before evaluation
    # (the `=` keeps argparse from reading -1e-13 as an option)
    "eval --Q 10 --d 2 --x=-1e-13 --y 0.9999999999999",
    # x = -0.0 reports target x 0.0; the second point clamps to the corner
    "extremize --Q 10 --d 2 --x -0.0 --y 5 --depth 4",
    "extremize --Q 10 --d 2 --x 1.0000000000001 --y 10.0000000000001 --depth 6",
]

CASES = [argv.split() for argv in CLOSED_FORM + EDGE] + [
    ["extremize", "--Q", str(Q), "--d", str(d), "--x", str(x), "--y", str(y),
     "--depth", str(depth)] + exact
    for Q, d, x, y, depth in EXTREMIZE_POINTS
    for exact in ([], ["--exact"])
] + [
    ["oracle", "--Q", "2", "--d", "1", "--depth", "2", "--format", "json"],
    ["oracle", "--Q", "3", "--d", "2", "--depth", "1", "--grid", "4",
     "--format", "json"],
    ["oracle", "--Q", "2", "--d", "1", "--depth", "2"],
    ["oracle", "--Q", "10", "--d", "2", "--depth", "1"],
    ["oracle", "--Q", "1", "--d", "2", "--depth", "2", "--format", "json"],
    # one value, 256 buckets of 256 leaves: the deep end of the witness output
    ["oracle", "--Q", "1", "--d", "1", "--depth", "8", "--format", "json"],
    ["verify", "--Q", "10", "--d", "2", "--suite", "weak-type"],
    ["verify", "--Q", "10", "--d", "6", "--suite", "weak-type"],
] + [
    # 70000 samples: partial chunks, several strata and wedges per sampler
    ["verify", "--Q", Q, "--d", d, "--suite", "all", "--format", "json",
     "--seed", "7", "--samples", "70000"]
    for Q, d in (("10", "2"), ("5", "3"))
]

GOLDEN = {
    "eval --Q 10 --d 2 --x 0.0625 --y 10":
        "1773cfd6d0ca1b78d60c03601893add48c30504497283302763e03d959aa68bd",
    "eval --Q 10 --d 2 --x 0.3 --y 2":
        "992ca75ce35a90a78269b79be3340401534cefaabbca07e6096df30cb0ae16b2",
    "eval --Q 5 --d 3 --x 0.2 --y 6 --m 1.5":
        "04bfb61c78a29182fb405422283866ecf60edb39a9e2483620fceee703c54de1",
    "table --Q 10 --d 2":
        "282a6e7bc8ec1848824e7199f88da5724ca564089c15d08777c9c5d4f68120b1",
    "table --Q 5 --d 3 --nx 21 --ny 21":
        "f96a6df794e1e0724c79b6677e10f87c252073ad3355ff07c46c7f24fba66cf9",
    "plot-data --Q 10 --d 2": {
        "avx512": "6ff90d8922a8908b6483baf7ca77efaae0c3ca2e6d7b0b0e01026dbb728f4332",
        "libm": "c30a5c8858c6ef727e123a16f3b83db25a12edfe11238749f40308719a6e6197"},
    "plot-data --Q 5 --d 3": {
        "avx512": "0c4aaf38d1b28e06c9fdf51458ed4b2f02e6a2b545f724888b001d4b700ca3e6",
        "libm": "a3cb499009402a0d261e5e723394386d9c0143c93e76365533c19a7a9f7046e8"},
    "plot-data --Q 1.0001 --d 1": {
        "avx512": "a2d93f636d3721cafd19b2c4cba7fc420bfd691e48b6d1d20d153820aa095209",
        "libm": "ec169ccc7e7e70b6546f1d6b61e66644b99396d41e20058393559cc71dc84bba"},
    "table --Q 1 --d 1 --nx 5 --ny 3":
        "c5edbe89c7cbacd78c5f5ff556129e62ed85d5babcc428cabc9a9010dff8aa0e",
    "table --Q 10 --d 2 --nx 1 --ny 2":
        "a9f4110e68f3c0cf2251ec273545b9cff7674677b9ed5a8bcc896c348fc45d68",
    "plot-data --Q 1e8 --d 20 --n-points 2":
        "646aa7fff6c09c469a71ca575effefc7154cda1f844a8f052d97215f39f5b081",
    "eval --Q 10 --d 2 --x=-1e-13 --y 0.9999999999999":
        "05c394ac602e7ffdb920f6a2fc270a25811d754a0f4417fff669d704b8345542",
    "extremize --Q 10 --d 2 --x -0.0 --y 5 --depth 4":
        "b4a1fd4df75225cd1992e527166f9f06e5478826cc125fa8408b9f45fde918f9",
    "extremize --Q 10 --d 2 --x 1.0000000000001 --y 10.0000000000001 --depth 6":
        "640a131555de4038b3cc79a7481ecd56f2bf73cc999d0f0e0c4f70c2e3e97b5b",
    "extremize --Q 10 --d 2 --x 0.3 --y 8 --depth 6":
        "447e7f86a3970f50275d0bd6a986dcc97724528871d93d001e3dc37c693f7c2b",
    "extremize --Q 10 --d 2 --x 0.3 --y 8 --depth 6 --exact":
        "447e7f86a3970f50275d0bd6a986dcc97724528871d93d001e3dc37c693f7c2b",
    "extremize --Q 10 --d 2 --x 0.3 --y 8 --depth 20":
        "d8199ea7ae28840f9e95415d00cf697be39e4d1b6e9fce738e840f8f962fe2e7",
    "extremize --Q 10 --d 2 --x 0.3 --y 8 --depth 20 --exact":
        "d8199ea7ae28840f9e95415d00cf697be39e4d1b6e9fce738e840f8f962fe2e7",
    "extremize --Q 10 --d 2 --x 0.3 --y 8 --depth 32":
        "b49f07984ba63584a8b28340413b01aafb705e3aafbaab6ee8e8f9feaf428427",
    "extremize --Q 10 --d 2 --x 0.3 --y 8 --depth 32 --exact":
        "3b82c5fb8dafe0e6162a7540fc50d5fa6a9b274256d169f03146ed3d0c68725c",
    "extremize --Q 10 --d 2 --x 0.05 --y 9.5 --depth 32":
        "b547462946d9ede2d5dee1ecba22d34080d732c330abe55836fe716cef045e60",
    "extremize --Q 10 --d 2 --x 0.05 --y 9.5 --depth 32 --exact":
        "956395ccdbdb366c90b5abb3e03e9152e593077317dcc8e001a66e5939bddac6",
    "extremize --Q 10 --d 2 --x 0.5 --y 2 --depth 16":
        "6aacbb0a98b6bb7dc3d11ebfa67b2110520868fa35d0fea2f42d03b7d888f229",
    "extremize --Q 10 --d 2 --x 0.5 --y 2 --depth 16 --exact":
        "6aacbb0a98b6bb7dc3d11ebfa67b2110520868fa35d0fea2f42d03b7d888f229",
    "extremize --Q 10 --d 1 --x 0.01 --y 6 --depth 24":
        "44dd71441c4215afde813b1f481a52b1db30719c42bd34eab0131050ab1d5be8",
    "extremize --Q 10 --d 1 --x 0.01 --y 6 --depth 24 --exact":
        "12c32d0d30e74e2fd012092668d6369188ad63eb7919ef2e1a1099339963f75a",
    "extremize --Q 1.0001 --d 1 --x 0.3 --y 1.00005 --depth 32":
        "7e69679f4aedd059dd865873bc3289392daf7fbb59ca1d5c28819bef12653025",
    "extremize --Q 1.0001 --d 1 --x 0.3 --y 1.00005 --depth 32 --exact":
        "7e69679f4aedd059dd865873bc3289392daf7fbb59ca1d5c28819bef12653025",
    "extremize --Q 3 --d 3 --x 0.2 --y 2.5 --depth 12":
        "e64b4ccdd78f2e22b4f8720d28f9d9b9c7d88f32017e4567b692a7b503eb6722",
    "extremize --Q 3 --d 3 --x 0.2 --y 2.5 --depth 12 --exact":
        "6b10afca5375e1e442ab63cb1a2cf87b11fddb1139c20ccd8540114b89551cb4",
    "extremize --Q 5 --d 4 --x 0.4 --y 1.5 --depth 10":
        "6cf1f5e26bdc57c3ffebb4ecc8c6bf4e0d9ae348d275d09eb1a58dce2454a9e6",
    "extremize --Q 5 --d 4 --x 0.4 --y 1.5 --depth 10 --exact":
        "6cf1f5e26bdc57c3ffebb4ecc8c6bf4e0d9ae348d275d09eb1a58dce2454a9e6",
    "extremize --Q 10 --d 10 --x 0.3 --y 8 --depth 8":
        "97ab200729287218ef23daaca1ab030ced3d3deab698d6fb868911f837806837",
    "extremize --Q 10 --d 10 --x 0.3 --y 8 --depth 8 --exact":
        "97ab200729287218ef23daaca1ab030ced3d3deab698d6fb868911f837806837",
    "oracle --Q 2 --d 1 --depth 2 --format json":
        "0f5da43b8d6bc3c2ebaa284de1fbf74a7c2a2c5eaae99ca28d6c0148bb0c3e3e",
    "oracle --Q 3 --d 2 --depth 1 --grid 4 --format json":
        "601c3098916a92e64ef22afce2d0d2d32de60203d3f615c0b1a8a1cb4f690597",
    "oracle --Q 2 --d 1 --depth 2":
        "b92b35a741b570d92ace19c4a9b4b261cdaaa5e747baed3cfdb50220781e4642",
    "oracle --Q 10 --d 2 --depth 1":
        "31736452190bf9cecb0ba525abaaddf2385453c094594eb4d138c2bf493f9b2d",
    "oracle --Q 1 --d 2 --depth 2 --format json":
        "84bbb86ebcc4383b5d890667b37f45c62022c602bb5e63c6a480329368e2d0cb",
    "oracle --Q 1 --d 1 --depth 8 --format json":
        "6ae37063f096eb4eda81a1b13302f0ef6f258e0de2e59ce13a3059639f21775a",
    "verify --Q 10 --d 2 --suite weak-type":
        "e071dd249c0e5927c73497c898f86901e3717a52762e93d4e7c826a1efd61e1c",
    "verify --Q 10 --d 6 --suite weak-type":
        "b3c3960dbe12c75fb1e3f5f44691b45a34504f58f0a2efc372de3f19ec8ba1d6",
    "verify --Q 10 --d 2 --suite all --format json --seed 7 --samples 70000": {
        "avx512": "4076826d080d1a1241d4b1b3d53f28f85cf64cf49a93be6ca748c8fe2365e28c",
        "libm": "9441be4d01a66ddf4ede8949889fecc228fff923cf8107e6f2ffcf086cbffb0b"},
    # branch-continuity's witness moved when y stopped rounding below the line
    "verify --Q 5 --d 3 --suite all --format json --seed 7 --samples 70000":
        "0e488cf6d5548c575ab50608302cb24ceca995ca0d932d57d4964fa14c62bf58",
}


def digest(argv) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    blob = f"{code}\n{out.getvalue()}\0{err.getvalue()}"
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("argv", CASES, ids=" ".join)
def test_cli_output_is_byte_identical(argv, power_rounding):
    want = GOLDEN[" ".join(argv)]
    assert digest(argv) == (want[power_rounding] if isinstance(want, dict)
                            else want)


POWER_TESTS = ["test_default_power_is_numpys",
               "test_kernels_with_math_pow_table_give_scalar_bits",
               "test_eta_power_table_matches_elementwise_power"]


def test_libm_class_passes_where_avx512_is_switched_off(power_rounding):
    # a child run with numpy's AVX512 targets disabled checks the other
    # class's hashes on an AVX512 host; naming a target the build does not
    # dispatch makes numpy warn at import, so the list is the targets found
    if power_rounding != "avx512":
        pytest.skip("numpy dispatches no AVX512 power loop here")
    found = np.__config__.CONFIG["SIMD Extensions"]["found"]
    tests = Path(__file__).parent
    path = [str(Path(a1embed.__file__).parent.parent), str(tests),
            os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path),
               NPY_DISABLE_CPU_FEATURES=" ".join(t for t in found
                                                 if t != "X86_V3"))

    def child(*argv):
        return subprocess.run([sys.executable, *argv], cwd=tests.parent,
                              env=env, capture_output=True, text=True,
                              timeout=600)

    # -W error: numpy's warning for a target it cannot disable is an
    # ImportWarning, which Python hides by default
    probe = child("-W", "error", "-c",
                  "import conftest; print(conftest.numpy_power_rounding())")
    assert (probe.returncode, probe.stdout, probe.stderr) == (0, "libm\n", "")
    # the child skips this test, so it starts no child of its own
    run = child("-m", "pytest", "-q", "-p", "no:cacheprovider",
                "tests/test_golden.py", "tests/test_blocking.py",
                "tests/test_sweep_reference.py",
                *(f"tests/test_bellman.py::{t}" for t in POWER_TESTS))
    assert run.returncode == 0, run.stdout[-3000:] + run.stderr[-3000:]


# Recorded while the pass rule was an absolute 1e-9, under which main-B,
# concavity, branch-continuity and wedge-domination failed here by rounding:
# the relative rule moved the verdicts and no reported number.
LARGE_Q_ARGV = ["verify", "--Q", "1e8", "--d", "2", "--suite", "all",
                "--format", "json", "--samples", "20000"]
LARGE_Q_WITHOUT_VERDICTS = \
    "581e5f0714186e0f6b0659c3dcc817057b450e8e656750cb79e99c3b7deee1d7"


def test_large_q_reports_keep_their_numbers():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(LARGE_Q_ARGV)
    doc = json.loads(out.getvalue())
    assert code == 0
    assert all(r.pop("passed") for r in doc["reports"])
    blob = json.dumps(doc, sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == LARGE_Q_WITHOUT_VERDICTS
