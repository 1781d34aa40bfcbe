"""Spans around the package's public functions, recorded from outside it.

`Tracer.install()` replaces every wrapped function, in every a1embed module
namespace and in the verify suite registry, by a wrapper that records a span
(name, start, end, parent).  `uninstall()` puts the originals back.  Spans
live in flat arrays and are written out once, when the run ends.  Layer
self time is a span's duration minus the durations of its child spans.

The tracer keeps one span stack and is meant for single-threaded passes
(BELLMAN_THREADS=1).
"""

from __future__ import annotations

import gzip
import sys
from array import array
from time import perf_counter

import numpy as np

# The public functions of each module, plus the vector kernels, the suite
# that the registry holds as a private name, and the chunk generator, which
# is counted (not timed) to give the samplers' raw draws.  Left out:
# bellman.f_slope and bellman.wedge_coeffs (constant-time helpers that run
# only inside wrapped kernels), dyadic.make_set_node (one call per node of a
# construction), and cli's cmd_* handlers, which run inside cli.main.
WRAPPED = {
    "bellman": ["eval_f", "eval_f_smooth", "eval_M", "eval_B",
                "classify_point", "wedge_Mk",
                "_f_vec", "_M_vec", "_B_vec", "_wedge_vec"],
    "verify": ["check_main_inequality_M", "check_main_inequality_B",
               "check_wedge_inequality", "check_concavity",
               "check_t_monotonicity", "check_smooth_bound",
               "check_branch_continuity", "check_homogeneity",
               "check_wedge_domination", "check_weak_type",
               "_weak_type_suite", "brute_force_oracle",
               "oracle_vs_closed_form", "default_value_grid", "run_suite"],
    "dyadic": ["validate_weight", "validate_set", "tree_depth", "average",
               "ess_inf", "measure", "weight_on_set", "maximal_function",
               "a1_characteristic", "value_distribution", "stats",
               "complement", "scale_weight", "pair_to_json",
               "pair_from_json", "as_fraction_weight"],
    "extremize": ["boundary_weight", "apply_S", "apply_T", "build_corner",
                  "concatenate", "build_extremizer"],
    "cli": ["main"],
}
COUNTED = {"verify": ["_gen"]}

SCALAR = {"bellman." + n for n in
          ("eval_M", "eval_B", "eval_f", "eval_f_smooth", "classify_point",
           "wedge_Mk")}
VECTOR = {"bellman." + n for n in ("_f_vec", "_M_vec", "_B_vec", "_wedge_vec")}
SAMPLERS = {"verify." + n for n in
            ("check_main_inequality_M", "check_main_inequality_B",
             "check_wedge_inequality")}
PROPERTIES = {"verify." + n for n in
              ("check_concavity", "check_t_monotonicity", "check_smooth_bound",
               "check_branch_continuity", "check_homogeneity",
               "check_wedge_domination", "check_weak_type",
               "_weak_type_suite")}
EXTREMIZE = {"extremize." + n for n in WRAPPED["extremize"]}
BUILDS = {"extremize.build_corner", "extremize.build_extremizer"}
JSON_CODEC = {"dyadic.pair_to_json", "dyadic.pair_from_json"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.name = array("q")
        self.parent = array("q")
        self.points = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.main_m_chunks = 0
        self.main_m_admitted = 0
        self._patches: list = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, qual: str, fn):
        nid = self.name_id.setdefault(qual, len(self.names))
        if nid == len(self.names):
            self.names.append(qual)
        name, parent, start, end, stack, points = (
            self.name, self.parent, self.start, self.end, self.stack,
            self.points)
        main_m = qual == "verify.check_main_inequality_M"
        vector = qual in VECTOR

        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            points.append(next((a.size for a in args if isinstance(a, np.ndarray)), 0)
                          if vector else 0)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if main_m:
                self.main_m_admitted += out.samples
            return out

        return wrapper

    def _count_chunks(self, fn):
        main_m = self.name_id.get("verify.check_main_inequality_M")

        def wrapper(*args, **kwargs):
            if self.stack and self.name[self.stack[-1]] == main_m:
                self.main_m_chunks += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "a1embed" or k.startswith("a1embed.")}
        replace = {}
        for short, fns in WRAPPED.items():
            mod = mods["a1embed." + short]
            for fn_name in fns:
                orig = getattr(mod, fn_name)
                replace[id(orig)] = (orig, self._wrap(f"{short}.{fn_name}", orig))
        for short, fns in COUNTED.items():
            for fn_name in fns:
                orig = getattr(mods["a1embed." + short], fn_name)
                replace[id(orig)] = (orig, self._count_chunks(orig))
        containers = [vars(m) for m in mods.values()]
        containers.append(mods["a1embed.verify"].SUITES)
        for ns in containers:
            for key, val in list(ns.items()):
                hit = replace.get(id(val))
                if hit is not None and hit[0] is val:
                    ns[key] = hit[1]
                    self._patches.append((ns, key, val))

    def uninstall(self) -> None:
        for ns, key, val in reversed(self._patches):
            ns[key] = val
        self._patches.clear()

    def mark(self) -> int:
        return len(self.start)

    # -- analysis ------------------------------------------------------------

    def layer_metrics(self, lo: int, hi: int) -> dict:
        """Per-layer figures of the spans recorded in [lo, hi)."""
        nid = np.array(self.name[lo:hi], dtype=np.int64)
        par = np.array(self.parent[lo:hi], dtype=np.int64) - lo
        dur = (np.array(self.end[lo:hi], dtype=np.float64)
               - np.array(self.start[lo:hi], dtype=np.float64))
        pts = np.array(self.points[lo:hi], dtype=np.int64)
        has_par = par >= 0
        child = np.bincount(par[has_par], weights=dur[has_par],
                            minlength=len(dur))
        self_t = dur - child
        # name id of each span's parent, or an id past the table for roots
        pid = np.where(has_par, nid[np.where(has_par, par, 0)], len(self.names))

        def member(group):
            lut = np.array([n in group for n in self.names] + [False])
            return lut[nid], lut[pid]

        def named(qual):
            return member({qual})

        scalar, _ = member(SCALAR)
        vector, vector_par = member(VECTOR)
        samplers, _ = member(SAMPLERS)
        props, _ = member(PROPERTIES)
        ext, ext_par = member(EXTREMIZE)
        builds = member(BUILDS)[0] & ~ext_par
        codec, codec_par = member(JSON_CODEC)
        oracle, oracle_par = named("verify.brute_force_oracle")
        char, _ = named("dyadic.a1_characteristic")
        stats_, _ = named("dyadic.stats")
        bridge, _ = named("verify.oracle_vs_closed_form")
        cli, _ = named("cli.main")
        n_builds = int(builds.sum())
        return {
            "bellman.scalar_calls": int(scalar.sum()),
            "bellman.scalar_s": float(self_t[scalar].sum()),
            "bellman.vec_points": int(pts[vector & ~vector_par].sum()),
            "bellman.vec_s": float(self_t[vector].sum()),
            "verify.sampler_s": float(self_t[samplers].sum()),
            "verify.property_s": float(self_t[props].sum()),
            "verify.oracle_s": float(self_t[oracle].sum()),
            "verify.bridge_s": float(dur[bridge].sum()),
            "verify.oracle_char_calls": int((char & oracle_par).sum()),
            "dyadic.char_calls": int(char.sum()),
            "dyadic.char_s": float(self_t[char].sum()),
            "dyadic.stats_calls": int(stats_.sum()),
            "dyadic.stats_s": float(dur[stats_].sum()),
            "dyadic.json_s": float(dur[codec & ~codec_par].sum()),
            "extremize.builds": n_builds,
            "extremize.build_s": float(self_t[ext].sum()),
            "extremize.stats_per_build":
                float((stats_ & ext_par).sum()) / n_builds if n_builds else 0.0,
            "cli.self_s": float(self_t[cli].sum()),
            "trace.spans": int(hi - lo),
        }

    def write(self, path) -> None:
        """All spans as CSV (name, start, end, parent index), gzip'd."""
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("name,start,end,parent\n")
            for i in range(len(self.start)):
                fh.write(f"{self.names[self.name[i]]},{self.start[i]:.9f},"
                         f"{self.end[i]:.9f},{self.parent[i]}\n")
