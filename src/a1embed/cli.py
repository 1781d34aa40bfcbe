"""Command-line front end.

Subcommands: eval (one closed-form value with its branch), table (M on
a grid), plot-data (the boundary profile and its smooth majorant as
CSV), extremize (construct a near-extremal pair, write it as JSON),
verify (run check suites), oracle (exhaustive small-tree supremum).

Every output starts with a header line echoing the resolved options, so
identical invocations produce byte-identical files; exit codes are 0 on
success, 1 when a verification suite fails, 2 on usage/domain errors.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import __version__
from .bellman import _f_vec, classify_point, eval_B, eval_M
from .dyadic import pair_to_json
from .extremize import build_extremizer
from .params import DomainError, Params, clamp_omega, new_params
from .verify import SUITES, brute_force_oracle, default_value_grid, \
    oracle_vs_closed_form, run_suite


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _header(cmd: str, **opts) -> str:
    parts = [f"# a1embed {__version__} cmd={cmd}"]
    parts += [f"{k}={opts[k]}" for k in opts]
    return " ".join(parts)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_eval(p: Params, args) -> int:
    m = 1.0 if args.m is None else args.m
    value = eval_B(p, args.x, args.y, m)
    print(_header("eval", Q=args.Q, d=args.d, x=args.x, y=args.y, m=m))
    print(f"B({_fmt(args.x)}, {_fmt(args.y)}, {_fmt(m)}) = {_fmt(value)}")
    if not p.degenerate:
        info = classify_point(p, args.x, min(max(args.y / m, 1.0), p.Q))
        print(info.describe())
    return 0


def cmd_table(p: Params, args) -> int:
    lines = [_header("table", Q=args.Q, d=args.d, nx=args.nx, ny=args.ny),
             "x,y,M"]
    for x in np.linspace(0.0, 1.0, args.nx):
        for y in np.linspace(1.0, p.Q, args.ny):
            v = float(x) if p.degenerate else eval_M(p, float(x), float(y))
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(v)}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _profile_grid(p: Params, n_points: int) -> np.ndarray:
    xs = set(np.geomspace(1e-6, 1.0, n_points).tolist())
    node = 1.0
    while node >= 1e-6:
        xs.add(node)
        node /= p.N
    return np.array(sorted(xs))


def cmd_plot_data(p: Params, args) -> int:
    if p.degenerate:
        raise DomainError("plot-data needs Q > 1")
    xs = _profile_grid(p, args.n_points)
    f = _f_vec(p, xs)
    fs = p.Q * np.power(xs, p.epsilon)
    lines = [_header("plot-data", Q=args.Q, d=args.d, n_points=args.n_points),
             "x,f,f_smooth,f_over_Q,f_smooth_over_Q"]
    for i in range(xs.size):
        lines.append(",".join(_fmt(v) for v in
                              (xs[i], f[i], fs[i], f[i] / p.Q, fs[i] / p.Q)))
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def cmd_extremize(p: Params, args) -> int:
    pair = build_extremizer(p, args.x, args.y, args.depth, exact=args.exact)
    gap = eval_M(p, args.x, args.y) - float(pair.achieved.value)
    doc = pair_to_json(args.Q, args.d, pair.w, pair.E)
    doc["depth"] = args.depth
    x, y = clamp_omega(p, args.x, args.y)
    doc["target"] = {"x": x, "y": y, "m": 1.0}
    st = pair.achieved
    doc["achieved"] = {"x": float(st.x), "y": float(st.y), "m": float(st.m),
                       "char": float(st.char), "value": float(st.value)}
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    info = sys.stderr if args.out is None else sys.stdout
    print(_header("extremize", Q=args.Q, d=args.d, x=args.x, y=args.y,
                  depth=args.depth), file=info)
    print(f"target   x={_fmt(args.x)} y={_fmt(args.y)}", file=info)
    print(f"achieved x={_fmt(st.x)} y={_fmt(st.y)} value={_fmt(st.value)}",
          file=info)
    print(f"gap to closed form {_fmt(gap)}", file=info)
    _emit(text, args.out)
    return 0


def cmd_verify(p: Params, args) -> int:
    reports = run_suite(p, args.suite, args.samples, args.seed, args.tol)
    header = _header("verify", Q=args.Q, d=args.d, suite=args.suite,
                     samples=args.samples, seed=args.seed, tol=args.tol)
    if args.format == "json":
        doc = {"header": header, "reports": [r.to_json() for r in reports]}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(header)
        for r in reports:
            status = "PASS" if r.passed else "FAIL"
            line = (f"{r.suite}: {status} worst_slack={_fmt(r.worst_slack)} "
                    f"samples={r.samples}")
            if r.notes:
                line += f" ({r.notes})"
            print(line)
            if not r.passed:
                print(f"  witness: {r.worst_witness}")
    return 0 if all(r.passed for r in reports) else 1


def cmd_oracle(p: Params, args) -> int:
    grid = default_value_grid(p, args.depth, args.grid)
    table = brute_force_oracle(p, args.depth, grid)
    bridge = oracle_vs_closed_form(table, p)
    if args.format == "json":
        doc = table.to_json()
        doc["bridge"] = bridge.to_json()
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    else:
        text = (_header("oracle", Q=args.Q, d=args.d, depth=args.depth,
                        grid=args.grid) + "\n" + table.to_csv())
    _emit(text, args.out)
    status = "PASS" if bridge.passed else "FAIL"
    print(f"oracle-vs-closed-form: {status} "
          f"worst_slack={_fmt(bridge.worst_slack)} ({bridge.notes})",
          file=sys.stderr if args.out is None else sys.stdout)
    return 0 if bridge.passed else 1


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="a1embed",
        description="Sharp embedding of dyadic A1 weights into A-infinity: "
                    "closed forms, extremizers, verification.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--Q", type=float, required=True,
                        help="A1 characteristic bound, >= 1")
        sp.add_argument("--d", type=int, required=True,
                        help="spatial dimension, 1..20")

    sp = sub.add_parser("eval", help="evaluate the closed form at a point")
    common(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--m", type=float, default=None)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("table", help="tabulate M on a grid, CSV")
    common(sp)
    sp.add_argument("--nx", type=int, default=11)
    sp.add_argument("--ny", type=int, default=11)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_table)

    sp = sub.add_parser("plot-data",
                        help="boundary profile and smooth majorant, CSV")
    common(sp)
    sp.add_argument("--n-points", type=int, default=200)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_plot_data)

    sp = sub.add_parser("extremize", help="construct a near-extremal pair")
    common(sp)
    sp.add_argument("--x", type=float, required=True)
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--depth", type=int, default=20)
    sp.add_argument("--exact", action="store_true",
                    help="rational-arithmetic tree")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_extremize)

    sp = sub.add_parser("verify", help="run verification suites")
    common(sp)
    sp.add_argument("--suite", default="all",
                    help=f"one of {', '.join(SUITES)} or 'all'")
    sp.add_argument("--samples", type=int, default=None)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--tol", type=float, default=None)
    sp.add_argument("--format", choices=("human", "json"), default="human")
    sp.set_defaults(fn=cmd_verify)

    sp = sub.add_parser("oracle", help="brute-force supremum on small trees")
    common(sp)
    sp.add_argument("--depth", type=int, default=2)
    sp.add_argument("--grid", type=int, default=6,
                    help="size of the even part of the value grid")
    sp.add_argument("--format", choices=("csv", "json"), default="csv")
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_oracle)
    return ap


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.fn(new_params(args.Q, args.d), args)
    except ValueError as exc:  # DomainError and the other library errors too
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
