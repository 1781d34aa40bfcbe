"""The four workloads: their cases, made from the run's seed, and the checks
of every output against the exact reference in reference.py.

A workload is a fixed list of operations ("a pass").  Each operation drives
a1embed through `cli.main(argv)` with stdout and stderr captured, or calls
the library where the CLI cannot express the input.  Checks never compare
with a stored copy of earlier output: they recompute from the reference,
or test a property the method must have.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction

from a1embed import cli, dyadic, extremize, params, verify

from reference import Ref, exact, fold, nest, node_counts, recover

REL = 1e-12          # relative tolerance wherever the program rounds to float
SAMPLES = 100_000    # per sampler, in verify-suites
# pair_from_json's default depth cap (32) refuses pairs that build_corner
# (k = 32) and `extremize --depth 20` write; the reload passes its own cap.
RELOAD_MAX_DEPTH = 128


@dataclass
class CliRun:
    argv: list
    rc: int
    out: str
    err: str


def run_cli(argv: list) -> CliRun:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:          # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliRun(argv, rc, out.getvalue(), err.getvalue())


def close(a, b, rel: float = REL) -> bool:
    a, b = float(a), float(b)
    return abs(a - b) <= rel * max(abs(a), abs(b)) or a == b


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)
        self.ops: list = []          # (label, thunk)

    def run_pass(self) -> list:
        return [thunk() for _, thunk in self.ops]

    def failed(self, results) -> int:
        return sum(isinstance(r, CliRun) and r.rc != 0 for r in results)

    def fingerprint(self, results) -> str:
        h = hashlib.sha256()
        for r in results:
            h.update(self._canon(r).encode())
            h.update(b"\0")
        return h.hexdigest()

    def _canon(self, r) -> str:
        return f"{r.rc}\0{r.out}\0{r.err}"

    def check(self, results) -> list[str]:
        raise NotImplementedError

    def counts(self, results) -> dict:
        """Per-pass figures read off the outputs (the same on every pass);
        a workload that has none of a kind reports 0."""
        return {"cli.bytes_out": sum(len(r.out) + len(r.err) for r in
                                     _cli_runs(results)),
                "verify.oracle_assignments": 0, "dyadic.json_bytes": 0,
                "dyadic.unique_nodes": 0, "dyadic.expanded_nodes": 0}


def _cli_runs(results):
    for r in results:
        if isinstance(r, CliRun):
            yield r
        elif isinstance(r, tuple) and r and isinstance(r[0], CliRun):
            yield r[0]


def _argv(*parts) -> list:
    return [str(p) for p in parts]


# ---------------------------------------------------------------------------
# verify-suites: the "<=" evidence

SAMPLERS = ("main-inequality-M", "main-inequality-B", "wedge")
SUITE_NAMES = ("main-inequality-M", "main-inequality-B", "wedge", "concavity",
               "t-monotonicity", "smooth-bound", "branch-continuity",
               "homogeneity", "wedge-domination", "weak-type")


class VerifySuites(Workload):
    name = "verify-suites"
    CASES = [(10, 2), (2, 1), (5, 3)]
    SLACK_TOL = 1e-12

    def __init__(self, seed):
        super().__init__(seed)
        for Q, d in self.CASES:
            argv = _argv("verify", "--Q", Q, "--d", d, "--suite", "all",
                         "--format", "json", "--samples", SAMPLES,
                         "--seed", seed)
            self.ops.append((f"verify Q={Q} d={d}", lambda a=argv: run_cli(a)))

    def check(self, results):
        errs = []
        for (Q, d), r in zip(self.CASES, results):
            tag = f"verify Q={Q} d={d}"
            if r.rc != 0:
                errs.append(f"{tag}: exit {r.rc}: {r.err.strip()}")
                continue
            ref = Ref(Q, d)
            reports = json.loads(r.out)["reports"]
            if tuple(x["suite"] for x in reports) != SUITE_NAMES:
                errs.append(f"{tag}: suites {[x['suite'] for x in reports]}")
            for rep in reports:
                s = rep["suite"]
                if not rep["passed"]:
                    errs.append(f"{tag}: {s} reports FAIL")
                if s in SAMPLERS and rep["samples"] < SAMPLES:
                    errs.append(f"{tag}: {s} drew {rep['samples']} < {SAMPLES}")
                want = float(ref.suite_slack(s, rep["worst_witness"]))
                if abs(want - rep["worst_slack"]) > self.SLACK_TOL * max(1.0, float(ref.Q)):
                    errs.append(f"{tag}: {s} slack {rep['worst_slack']!r}, "
                                f"reference gives {want!r} at its witness")
        return errs


# ---------------------------------------------------------------------------
# oracle-sandwich: the ">=" evidence

class OracleSandwich(Workload):
    name = "oracle-sandwich"
    CLI_CASES = [(2, 1, 2), (3, 1, 2), (2, 2, 1), (10, 2, 1)]
    DEEP = (2, 1, 3)
    DEEP_GRID = (Fraction(1), Fraction(3, 2), Fraction(3))   # 1, N eta, 1 + N(Q-1)

    def __init__(self, seed):
        super().__init__(seed)
        ops = [(f"oracle Q={Q} d={d} depth={k}",
                lambda a=_argv("oracle", "--Q", Q, "--d", d, "--depth", k,
                               "--format", "json"): run_cli(a))
               for Q, d, k in self.CLI_CASES]
        ops.append(("oracle library Q=2 d=1 depth=3", self._deep))
        # the cases are fixed; the seed only orders them within a pass
        self.order = list(range(len(ops)))
        self.rng.shuffle(self.order)
        self.ops = [ops[i] for i in self.order]

    def _deep(self):
        Q, d, depth = self.DEEP
        p = params.new_params(Q, d)
        table = verify.brute_force_oracle(p, depth, list(self.DEEP_GRID))
        return table, verify.oracle_vs_closed_form(table, p)

    def _by_case(self, results) -> list:
        out = [None] * len(results)
        for i, r in zip(self.order, results):
            out[i] = r
        return out

    def _canon(self, r):
        if isinstance(r, CliRun):
            return super()._canon(r)
        table, bridge = r
        return repr((sorted((k, b.value, b.leaves, b.j)
                            for k, b in table.buckets.items()),
                     bridge.to_json()))

    def check(self, results):
        errs = []
        by_case = self._by_case(results)
        for (Q, d, depth), r in zip(self.CLI_CASES, by_case):
            tag = f"oracle Q={Q} d={d} depth={depth}"
            if r.rc != 0:
                errs.append(f"{tag}: exit {r.rc}: {r.err.strip()}")
                continue
            doc = json.loads(r.out)
            if not doc["bridge"]["passed"] or "PASS" not in r.err:
                errs.append(f"{tag}: bridge does not pass")
            grid = [recover(v) for v in doc["grid"]]
            rows = []
            for row in doc["buckets"]:
                rows.append(((row["x"], row["y"]), row["value"],
                             [recover(v) for v in row["leaves"]], row["j"]))
            errs += self._check_buckets(tag, Ref(Q, d), doc["n"], depth, grid,
                                        rows, exact_keys=False)
        table, bridge = by_case[-1]
        Q, d, depth = self.DEEP
        tag = f"oracle library Q={Q} d={d} depth={depth}"
        if not bridge.passed:
            errs.append(f"{tag}: bridge does not pass: {bridge.worst_witness}")
        rows = [(k, b.value, list(b.leaves), b.j) for k, b in table.buckets.items()]
        errs += self._check_buckets(tag, Ref(Q, d), table.n, depth,
                                    list(table.grid), rows, exact_keys=True)
        return errs

    @staticmethod
    def _check_buckets(tag, ref, n, depth, grid, rows, exact_keys):
        """Refold every bucket's witness and test it against the reference."""
        errs = []
        leaves_n = n**depth
        got = {}
        for key, value, leaves, j in rows:
            if len(leaves) != leaves_n or not set(leaves) <= set(grid):
                errs.append(f"{tag}: witness {leaves} off the grid")
                continue
            # the set is the j heaviest leaves, ties to the lower index
            order = sorted(range(leaves_n), key=lambda i: (-leaves[i], i))
            chosen = set(order[:j])
            x, y, m, char, val = fold(nest(leaves, n),
                                      nest([i in chosen for i in range(leaves_n)], n),
                                      n)
            label = ref.bucket_label(y)
            if exact_keys:
                same = key == (x, label) and value == val
            else:
                same = key == (float(x), float(label)) and value == float(val)
            if not same or x != Fraction(j, leaves_n):
                errs.append(f"{tag}: bucket {key} = {value} refolds to "
                            f"({x}, {label}) = {val}")
            if m != 1 or char > ref.Q:
                errs.append(f"{tag}: witness of {key} has m={m}, char={char}")
            if val > ref.B(x, label, 1):
                errs.append(f"{tag}: bucket {key} = {val} above B")
            got[(x, label)] = val
        for k in range(depth + 1):
            if ref.corner_grid_values(k) <= set(grid):
                corner = got.get((Fraction(1, n**k), ref.Q))
                if corner != ref.corner_value(k):
                    errs.append(f"{tag}: corner k={k} bucket {corner}, "
                                f"want {ref.corner_value(k)}")
        if n == 2 and depth == 2 and got != ref.enumerate_buckets(depth, grid):
            errs.append(f"{tag}: buckets differ from the reference enumeration")
        return errs

    def counts(self, results):
        out = super().counts(results)
        total = 0
        for r in results:
            if isinstance(r, CliRun):
                doc = json.loads(r.out)
                total += len(doc["grid"]) ** (doc["n"] ** doc["depth"])
            else:
                total += len(r[0].grid) ** (r[0].n ** r[0].depth)
        out["verify.oracle_assignments"] = total
        return out


# ---------------------------------------------------------------------------
# extremize-roundtrip: constructions, written and read back

class ExtremizeRoundtrip(Workload):
    name = "extremize-roundtrip"
    Q, D = 10, 2
    LOWER = [(0.7, 3.0), (0.2, 2.0), (0.5, 5.0)]     # y <= 1 + (Q-1)x
    UPPER = [(0.3, 8.0), (0.05, 9.5), (0.01, 6.0)]
    DEPTHS = (12, 20, 32)
    CORNERS = [(10, 2, k) for k in (0, 8, 16, 24, 32)] + [(10, 10, 8)]

    def __init__(self, seed):
        super().__init__(seed)
        for x, y in self.LOWER + self.UPPER:
            # a jitter of ±0.5% keeps every point on its branch and interval
            x *= 1 + 0.01 * (self.rng.random() - 0.5)
            y *= 1 + 0.01 * (self.rng.random() - 0.5)
            for depth in self.DEPTHS:
                for flag in ([], ["--exact"]):
                    argv = _argv("extremize", "--Q", self.Q, "--d", self.D,
                                 "--x", repr(x), "--y", repr(y),
                                 "--depth", depth) + flag
                    self.ops.append((" ".join(argv),
                                     lambda a=argv: self._cli_pair(a)))
        for Q, d, k in self.CORNERS:
            self.ops.append((f"corner Q={Q} d={d} k={k}",
                             lambda c=(Q, d, k): self._corner(*c)))
        self.cases = [None] * (len(self.ops) - len(self.CORNERS)) + self.CORNERS

    @staticmethod
    def _reload(text):
        _, _, w, E = dyadic.pair_from_json(json.loads(text), RELOAD_MAX_DEPTH)
        return w, E, dyadic.stats(w, E)

    def _cli_pair(self, argv):
        r = run_cli(argv)
        if r.rc != 0:
            return r
        return (r,) + self._reload(r.out)

    def _corner(self, Q, d, k):
        pair = extremize.build_corner(params.new_params(Q, d), k, exact=True)
        text = json.dumps(dyadic.pair_to_json(Q, d, pair.w, pair.E))
        return (pair, text) + self._reload(text)

    def _canon(self, r):
        if isinstance(r, CliRun):
            return super()._canon(r)
        if isinstance(r[0], CliRun):
            return super()._canon(r[0]) + repr(r[3])
        return r[1] + repr(r[0].achieved) + repr(r[4])

    def check(self, results):
        errs = []
        for (label, _), case, r in zip(self.ops, self.cases, results):
            if isinstance(r, CliRun):
                errs.append(f"{label}: exit {r.rc}: {r.err.strip()}")
            elif case is None:
                errs += self._check_cli_pair(label, *r)
            else:
                errs += self._check_corner(label, case, *r)
        return errs

    def _check_reloaded(self, label, ref, w, E, st):
        """Reference fold of a reloaded pair, and the properties every
        constructed pair has; returns (errors, fold)."""
        errs = []
        got = fold(w.tree, E.tree, ref.N)
        x, y, m, char, value = got
        if m != 1 or char > ref.Q * (1 + REL):
            errs.append(f"{label}: m={m}, char={float(char)!r}")
        if value > ref.B(x, y, 1) * (1 + REL):
            errs.append(f"{label}: value {float(value)!r} above B")
        mine = (st.x, st.y, st.m, st.char, st.value)
        if not all(close(a, b) for a, b in zip(mine, got)):
            errs.append(f"{label}: dyadic.stats {mine} vs reference {got}")
        return errs, got

    def _check_cli_pair(self, label, r, w, E, st):
        ref = Ref(self.Q, self.D)
        errs, (x, y, m, char, value) = self._check_reloaded(label, ref, w, E, st)
        doc = json.loads(r.out)
        depth = doc["depth"]
        target = ref.M(doc["target"]["x"], doc["target"]["y"])
        gap = target - value
        if not (-REL * target <= gap <= 2 * ref.Q / 2**depth):
            errs.append(f"{label}: gap {float(gap)!r} outside [0, 2Q 2^-{depth}]")
        a = doc["achieved"]
        if not all(close(a[k], v) for k, v in
                   zip(("x", "y", "m", "char", "value"), (x, y, m, char, value))):
            errs.append(f"{label}: achieved {a} vs reference fold")
        return errs

    def _check_corner(self, label, case, pair, text, w, E, st):
        Q, d, k = case
        ref = Ref(Q, d)
        want_x, want_v = Fraction(1, ref.N**k), ref.corner_value(k)
        errs = []
        # the in-memory exact pair: every statistic exact
        got = fold(pair.w.tree, pair.E.tree, ref.N)
        a = pair.achieved
        if got != (a.x, a.y, a.m, a.char, a.value):
            errs.append(f"{label}: achieved {a} vs reference fold {got}")
        if got[0] != want_x or got[4] != want_v or got[1] != ref.Q or got[2] != 1 \
                or got[3] > ref.Q:
            errs.append(f"{label}: exact corner {got}, want x={want_x}, "
                        f"value={want_v}")
        # the reloaded pair: leaves come back as floats
        more, (x, _, _, _, value) = self._check_reloaded(label, ref, w, E, st)
        if x != want_x or not close(value, want_v):
            errs.append(f"{label}: reloaded corner x={x}, value={float(value)!r}")
        return errs + more

    def counts(self, results):
        out = super().counts(results)
        json_bytes = unique = expanded = 0
        for r in results:
            if isinstance(r, CliRun):
                continue
            if isinstance(r[0], CliRun):
                json_bytes += len(r[0].out)
                tree = r[1].tree
            else:
                json_bytes += len(r[1])
                tree = r[0].w.tree
            u, e = node_counts(tree)
            unique += u
            expanded += e
        out.update({"dyadic.json_bytes": json_bytes,
                    "dyadic.unique_nodes": unique,
                    "dyadic.expanded_nodes": expanded})
        return out


# ---------------------------------------------------------------------------
# closed-form-cli: the scalar closed form and the CLI's text output

class ClosedFormCli(Workload):
    name = "closed-form-cli"
    Q, D = 10, 2
    GRID = 201
    PLOT_POINTS = 20000
    EVAL_CASES = [(10, 2, 10), (2, 1, 20)]     # (Q, d, deepest node k)
    LINE_POINTS = 8

    def __init__(self, seed):
        super().__init__(seed)
        self.ops.append(("table", lambda a=_argv(
            "table", "--Q", self.Q, "--d", self.D, "--nx", self.GRID,
            "--ny", self.GRID): run_cli(a)))
        self.ops.append(("plot-data", lambda a=_argv(
            "plot-data", "--Q", self.Q, "--d", self.D,
            "--n-points", self.PLOT_POINTS): run_cli(a)))
        self.evals = []
        for Q, d, kmax in self.EVAL_CASES:
            N = 2**d
            pts = []
            for k in range(kmax + 1):
                node = float(N) ** -k
                pts += [(node, Q, None), (node * (1 - 1e-9), Q, None)]
                if k:
                    pts.append((node * (1 + 1e-9), Q, None))
            for _ in range(self.LINE_POINTS):
                x = 0.02 + 0.96 * self.rng.random()
                y = 1 + (Q - 1) * x
                m = 1 + 3 * self.rng.random()
                pts += [(x, y, None), (x, y * (1 + 1e-7), None),
                        (x, y * (1 - 1e-7), None), (x, y * m, m)]
            for x, y, m in pts:
                argv = _argv("eval", "--Q", Q, "--d", d, "--x", repr(x),
                             "--y", repr(y))
                if m is not None:
                    argv += ["--m", repr(m)]
                self.evals.append((Q, d, x, y, 1.0 if m is None else m))
                self.ops.append((" ".join(argv), lambda a=argv: run_cli(a)))

    def check(self, results):
        errs = [f"{label}: exit {r.rc}: {r.err.strip()}"
                for (label, _), r in zip(self.ops, results) if r.rc != 0]
        if errs:
            return errs
        ref = Ref(self.Q, self.D)
        errs += self._check_table(ref, results[0].out)
        errs += self._check_plot(ref, results[1].out)
        for (Q, d, x, y, m), r in zip(self.evals, results[2:]):
            errs += self._check_eval(Ref(Q, d), x, y, m, r)
        return errs

    def _check_table(self, ref, text):
        errs = []
        rows = text.splitlines()[2:]
        if len(rows) != self.GRID**2:
            errs.append(f"table: {len(rows)} rows, want {self.GRID**2}")
        for row in rows:
            x, y, v = map(float, row.split(","))
            want = ref.M(x, y)
            if not close(v, want):
                errs.append(f"table: M({x!r}, {y!r}) = {v!r}, reference {float(want)!r}")
        return errs

    def _check_plot(self, ref, text):
        errs = []
        xs = set()
        nodes = []
        while not nodes or nodes[-1] >= 1e-6:      # the nodes plot-data adds
            nodes.append(Fraction(1, ref.N ** len(nodes)))
        nodes.pop()
        for row in text.splitlines()[2:]:
            x, f, fs, fq, fsq = map(float, row.split(","))
            xs.add(x)
            smooth = ref.smooth(x)
            if not close(f, ref.f(x)) or not close(fs, smooth) \
                    or not close(fq, f / self.Q) or not close(fsq, fs / self.Q):
                errs.append(f"plot-data: row at x={x!r} off the reference")
            if f > smooth * (1 + REL):
                errs.append(f"plot-data: f({x!r}) = {f!r} above Q x^eps")
            if exact(x) in nodes and not close(f, smooth):
                errs.append(f"plot-data: f({x!r}) = {f!r} != Q x^eps at a node")
        missing = [k for k, node in enumerate(nodes) if float(node) not in xs]
        if missing:
            errs.append(f"plot-data: nodes N^-k missing for k in {missing}")
        return errs

    @staticmethod
    def _check_eval(ref, x, y, m, r):
        lines = r.out.splitlines()
        value = float(lines[1].split(" = ")[1])
        want = ref.B(x, y, m)
        errs = []
        if not close(value, want):
            errs.append(f"eval ({x!r}, {y!r}, {m!r}): {value!r}, reference {float(want)!r}")
        desc = ref.describe(x, exact(y) / exact(m))
        if lines[2] != desc:
            errs.append(f"eval ({x!r}, {y!r}, {m!r}): '{lines[2]}', reference '{desc}'")
        return errs


WORKLOADS = {w.name: w for w in
             (VerifySuites, OracleSandwich, ExtremizeRoundtrip, ClosedFormCli)}
