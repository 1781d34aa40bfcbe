"""Command-line front end.

Subcommands: eval (one closed-form value with its branch), table (M on
a grid), plot-data (the boundary profile and its smooth majorant as
CSV), extremize (construct a near-extremal pair, write it as JSON),
verify (run check suites), oracle (exhaustive small-tree supremum).

Every output starts with a header line echoing the resolved options, so
identical invocations produce byte-identical files; exit codes are 0 on
success, 1 when a verification suite fails, 2 on usage/domain errors,
an unwritable --out or no memory left.  numpy is bellman's lazy `np`,
read only by array commands: eval, extremize and oracle never load it.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from . import __version__
from .bellman import _f_vec, _M_vec, classify_point, eval_B, eval_M, np
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


def _json_text(doc) -> str:
    """json.dumps(doc) with a 2-space indent and sorted keys, byte for byte.

    The stdlib never uses its C encoder when indenting: its Python one
    passes every chunk up through one generator per nesting level, and a
    deep pair nests 66 levels.  This walks the document once into one list
    of pieces.  A list that starts with a scalar is written once per indent
    and then reused, since oracle tables share one leaf list among every
    bucket with the same witness; the document keeps each list alive while
    it is written, so its id stays valid for the whole call.  A key that
    is not a str raises TypeError, where the stdlib would convert it.
    """
    out: list[str] = []
    lists: dict[tuple[int, int], str] = {}
    string = json.encoder.encode_basestring_ascii

    def atom(o) -> str | None:
        """The text of o, or None when o is a non-empty container."""
        if isinstance(o, str):
            return string(o)
        if isinstance(o, float):
            return float.__repr__(o) if math.isfinite(o) else json.dumps(o)
        if isinstance(o, int) and not isinstance(o, bool):
            return int.__repr__(o)
        if isinstance(o, (dict, list, tuple)) and o:
            return None
        return json.dumps(o)

    def walk(o, pad: str) -> None:
        inner = pad + "  "
        if isinstance(o, dict):
            sep = "{" + inner
            for k, v in sorted(o.items()):
                head = sep + string(k) + ": "
                text = atom(v)
                if text is None:
                    out.append(head)
                    walk(v, inner)
                else:
                    out.append(head + text)
                sep = "," + inner
            out.append(pad + "}")
            return
        key = None
        if not isinstance(o[0], (dict, list, tuple)):
            key = (id(o), len(pad))
            if key in lists:
                out.append(lists[key])
                return
        start = len(out)
        sep = "[" + inner
        for v in o:
            text = atom(v)
            if text is None:
                out.append(sep)
                walk(v, inner)
            else:
                out.append(sep + text)
            sep = "," + inner
        out.append(pad + "]")
        if key is not None:
            text = lists[key] = "".join(out[start:])
            out[start:] = [text]

    text = atom(doc)
    if text is not None:
        return text
    try:
        walk(doc, "\n")
    finally:
        del walk    # walk calls itself through this cell: free the pieces now
    return "".join(out)


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
    if args.nx < 1 or args.ny < 1:
        raise DomainError(f"table needs nx, ny >= 1, got {args.nx}, {args.ny}")
    xs = np.linspace(0.0, 1.0, args.nx)     # x in [0, 1] and y in [1, Q]:
    ys = np.linspace(1.0, p.Q, args.ny)     # eval_M's clamp changes nothing
    power = np.vectorize(math.pow, otypes=[float])      # eval_f's eta^k
    y_texts = list(map(_fmt, ys.tolist()))
    lines = [_header("table", Q=args.Q, d=args.d, nx=args.nx, ny=args.ny),
             "x,y,M"]
    # eval_M's values bit for bit, one vector-kernel call per x row: whole-grid
    # arrays and 10 KB row strings left holes in the heap that raised the
    # peak RSS of closed-form-cli by up to 5%, so no allocation outgrows a row
    for x in xs.tolist():
        row = np.full(args.ny, x)
        row = row if p.degenerate else _M_vec(p, row, ys, power)
        x = _fmt(x)
        lines += [f"{x},{y},{v:.17g}" for y, v in zip(y_texts, row.tolist())]
    lines.append("")    # the last newline, without a second copy of the text
    _emit("\n".join(lines), args.out)
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
    if args.n_points < 1:
        raise DomainError(f"plot-data needs n_points >= 1, got {args.n_points}")
    xs = _profile_grid(p, args.n_points)
    f = _f_vec(p, xs)
    fs = p.Q * np.power(xs, p.epsilon)
    lines = [_header("plot-data", Q=args.Q, d=args.d, n_points=args.n_points),
             "x,f,f_smooth,f_over_Q,f_smooth_over_Q"]
    cols = (c.tolist() for c in (xs, f, fs, f / p.Q, fs / p.Q))
    lines += ["%.17g,%.17g,%.17g,%.17g,%.17g" % row for row in zip(*cols)]
    lines.append("")
    _emit("\n".join(lines), args.out)
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
    text = _json_text(doc) + "\n"
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
        print(_json_text(doc))
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
        text = _json_text(doc) + "\n"
    else:
        text = (_header("oracle", Q=args.Q, d=args.d, depth=args.depth,
                        grid=args.grid) + "\n" + table.to_csv())
    _emit(text, args.out)
    status = "PASS" if bridge.passed else "FAIL"
    print(f"oracle-vs-closed-form: {status} "
          f"worst_slack={_fmt(bridge.worst_slack)} ({bridge.notes})",
          file=sys.stderr if args.out is None else sys.stdout)
    return 0 if bridge.passed else 1


# Built once: parse_args leaves it unchanged; help width is read when printed
@functools.cache
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
    except (ValueError, OSError, MemoryError) as exc:  # DomainError, --out, memory
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
