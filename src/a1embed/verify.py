"""Independent checks on the closed forms.

Three kinds of evidence, none of which trusts the formulas being tested:

  * seeded samplers for the splitting inequalities (the M-form, the
    B-form over all child strata, and the per-wedge form), reporting
    the worst slack and the witness attaining it;
  * property suites: concavity, rescaling monotonicity, the smooth
    majorant, branch continuity, homogeneity, wedge domination, and
    the weak-type bound on explicit weights;
  * an exhaustive oracle over every grid-valued weight of characteristic
    <= Q on a small dyadic tree: a max-plus dynamic program over subtree
    states (leaf sum, min leaf), ranking witnesses in product order,
    tabulates the best mass per (set measure, average), exactly.

Randomness is counter-based (Philox keyed by (seed, stream)) over a
fixed chunk plan, so a report depends only on its arguments.  numpy is
bellman's lazy `np`, loaded by the array code: the oracle never loads it.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import asdict, dataclass, field, replace
from fractions import Fraction
from typing import Any, Callable, Iterable, Optional, Sequence

from .bellman import _BLOCK, _B_vec, _M_vec, _f_vec, _upper_vec, _wedge_vec, \
    eval_B, np
from .dyadic import (
    DyadicSet,
    DyadicWeight,
    _summary,
    make_set_node,
    value_distribution,
)
from .params import DomainError, Params, at_least, endpoint_exponent, \
    osekowski_p_max

CHUNK = 1 << 16
WAVE = 8            # main-M chunks between checks of the admitted count
MAX_WAVES = 4096
ORACLE_CAP = 2_000_000  # leaves N^depth, states^N per level, N^(2 depth)
WEDGE_K_MAX = 6         # the wedge sampler checks wedges k = 0..6
DOMINATION_K_MAX = 10   # wedge-domination checks wedges k = 1..10


@dataclass(frozen=True)
class CheckReport:
    suite: str
    samples: int
    worst_slack: float
    worst_witness: Any
    passed: bool
    notes: str = ""

    def to_json(self) -> dict:
        return asdict(self)


def _gen(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(key=[seed, stream]))


def _quota(rows: int, keys: Sequence[int] = (0,)) -> Iterable[tuple[int, int, int]]:
    """Chunk plan: ceil(rows / len(keys)) rows per key, in key order, each
    key's rows in chunks of CHUNK on the streams (key << 32) | 0, 1, ..."""
    per = -(-rows // len(keys))
    for key in keys:
        for i, start in enumerate(range(0, per, CHUNK)):
            yield (key << 32) | i, min(CHUNK, per - start), key


def _row(*cols: np.ndarray) -> Callable[[int], tuple]:
    return lambda i: tuple(float(c[i]) for c in cols)


class _Rows:
    """Rows lo:hi of a chunk of `size` rows on stream (seed, stream).  Each
    uniform(a, b, w) reads them from the chunk's next uniform(a, b, (size,
    w)) draw, 1-D if w is None: in turn from one generator for a whole
    chunk, else from a generator placed past the doubles before them."""

    def __init__(self, seed: int, stream: int, size: int, lo: int, rows: int):
        self.seed, self.stream, self.size, self.lo = seed, stream, size, lo
        self.hi, self.at = min(size, lo + rows), 0
        self.g = None if self.hi - lo < size else _gen(seed, stream)

    def uniform(self, a: float, b: float, w: Optional[int] = None) -> np.ndarray:
        g, width = self.g, 1 if w is None else w
        if g is None:
            g = _gen(self.seed, self.stream)
            off = self.at + self.lo * width
            g.bit_generator.advance(off // 4)   # one step per 4 doubles
            g.random(off % 4)
            self.at += self.size * width
        shape = self.hi - self.lo if w is None else (self.hi - self.lo, w)
        # a + (b - a) u is u at (0, 1): random() gives those bits, faster
        return g.random(shape) if (a, b) == (0.0, 1.0) else g.uniform(a, b, shape)


def _sweep(suite: str, seed: int, chunks: Iterable[tuple[int, int, int]],
           draw: Callable, tol: float, notes: str = "",
           rows: int = _BLOCK // 2) -> CheckReport:
    """Fold a chunk plan into one report, `rows` rows at a time.

    For each (stream, size, key) of the plan and each block of at most
    `rows` of its rows, draw(_Rows(...), key) returns the block's slacks, a
    function giving block row i's witness, and the two sides the slacks are
    judged against (`at_least`).  The worst slack is the first minimum in
    plan order.  By default a block holds _BLOCK // 2 points (x, y): at
    twice that, glibc gave the kernels' temporaries fresh pages each block.
    """
    worst, witness, n, ok = math.inf, None, 0, True
    for stream, size, key in chunks:
        for lo in range(0, size, rows):
            slacks, row, lhs, rhs = draw(_Rows(seed, stream, size, lo, rows), key)
            if slacks.size == 0:
                continue
            n += slacks.size
            i = int(np.argmin(slacks))
            if slacks[i] < worst:
                worst, witness = float(slacks[i]), row(i)
            ok = ok and bool(at_least(lhs, rhs, tol, slacks).all())
            del slacks, row, lhs, rhs   # freed before the next block's draw
    return CheckReport(suite, n, worst, witness, ok, notes)


# ---------------------------------------------------------------------------
# splitting-inequality samplers

def check_main_inequality_M(p: Params, n_samples: int = 100_000,
                            seed: int = 0, tol: float = 1e-9) -> CheckReport:
    """Sample the N-child splitting inequality for M on its full domain.

    Draws (x, y), (xt, yt) uniformly from the domain square and keeps
    samples satisfying xt <= x (which forces xhat = Nx - (N-1)xt >= 0),
    xhat <= 1, and yhat = Ny - (N-1)yt >= Q.  Slack is
    M(x,y) - [(N-1)/N M(xt,yt) + yhat/(NQ) M(xhat, Q)].  A draw is
    admitted with probability (N-1)/(4N^2): the x-area 1/(2N) times the
    y-area (N-1)/(2N).  Raises DomainError before drawing when n_samples
    exceeds E + 10 sqrt(E), E the expected admissions of MAX_WAVES waves,
    and after, if the waves admit fewer than n_samples rows.
    """
    if p.degenerate:
        raise DomainError("main inequality sampler needs Q > 1")
    if n_samples < 1:
        raise DomainError("main inequality sampler needs n_samples >= 1")
    N, Q = p.N, p.Q
    draws = MAX_WAVES * WAVE * CHUNK
    expected = (N - 1) / (4 * N * N) * draws
    if n_samples > expected + 10 * math.sqrt(expected):
        raise DomainError(f"main inequality sampler expects to admit about "
                          f"{expected:.0f} of {n_samples} requested samples "
                          f"in {draws} draws")
    tally = [0, 0, 0, 0]            # admitted, drawn, xt <= x, xhat >= 0

    def draw(g, _):
        # four uniform draws lo + (hi - lo) u, the y rows once `near` is known
        x, xt = g.uniform(0.0, 1.0), g.uniform(0.0, 1.0)
        xhat = N * x - (N - 1) * xt
        ok_order = xt <= x
        near = np.flatnonzero(ok_order & (xhat <= 1.0))
        y = 1.0 + (Q - 1.0) * g.uniform(0.0, 1.0)[near]
        yt = 1.0 + (Q - 1.0) * g.uniform(0.0, 1.0)[near]
        yhat = N * y - (N - 1) * yt
        keep = yhat >= Q
        i = near[keep]
        cols = [x[i], y[keep], xt[i], yt[keep], xhat[i], yhat[keep]]
        lhs = _M_vec(p, cols[0], cols[1])
        rhs = ((N - 1) / N * _M_vec(p, cols[2], cols[3])
               + cols[5] / (N * Q) * _M_vec(p, cols[4], np.full_like(cols[4], Q)))
        tally[0] += i.size
        tally[1] += g.size
        tally[2] += np.count_nonzero(ok_order)
        tally[3] += np.count_nonzero(xhat >= 0)
        return lhs - rhs, _row(*cols), lhs, rhs

    # whole waves: the admitted count is read only before a wave's first chunk
    plan = itertools.takewhile(lambda c: c[0] % WAVE or tally[0] < n_samples,
                               _quota(draws))
    report = _sweep("main-inequality-M", seed, plan, draw, tol, rows=CHUNK)
    admitted, raw, n_order, n_hat = tally
    if admitted < n_samples:
        raise DomainError(f"main inequality sampler admitted {admitted} of "
                          f"{n_samples} requested samples in {raw} draws")
    return replace(report, notes=(
        f"constraint xt<=x implies xhat>=0 and is the one that binds: "
        f"raw pass rates xt<=x {n_order / raw:.4f}, xhat>=0 {n_hat / raw:.4f}"))


def check_main_inequality_B(p: Params, n_samples: int = 100_000,
                            seed: int = 0, tol: float = 1e-9) -> CheckReport:
    """Sample the averaged splitting inequality for B over child tuples.

    Stratum n_low in 1..N fixes how many children sit in the m = 1 slab
    (y in [1, Q]); the rest take y >= Q with m = y/Q, the total average
    kept <= Q so the parent point stays in the domain.  Slack is
    B(mean x, mean y, 1) - mean_i B(x_i, y_i, m_i).
    """
    if p.degenerate:
        raise DomainError("main inequality sampler needs Q > 1")
    N, Q = p.N, p.Q

    def draw(g, n_low):
        n_hi = N - n_low
        xs = g.uniform(0.0, 1.0, N)
        y_lo = g.uniform(1.0, Q, n_low)
        # at n_hi = 0, y_hi is (rows, 0): its draw takes nothing from the stream
        slack_budget = N * Q - y_lo.sum(axis=1) - n_hi * Q
        y_hi = Q + slack_budget[:, None] * g.uniform(0.0, 1.0, n_hi) / n_hi
        y = np.concatenate([y_lo, y_hi], axis=1)
        m = y / Q
        m[:, :n_low] = 1.0          # the m = 1 slab, then m = y/Q
        lhs = _B_vec(p, xs.mean(axis=1), y.mean(axis=1), 1.0)
        rhs = _B_vec(p, xs, y, m).mean(axis=1)
        return lhs - rhs, lambda i: {
            "stratum": n_low, "x": [float(v) for v in xs[i]],
            "y": [float(v) for v in y[i]], "m": [float(v) for v in m[i]]}, lhs, rhs

    return _sweep("main-inequality-B", seed, _quota(n_samples, range(1, N + 1)),
                  draw, tol, f"strata n_low=1..{N}", max(1, _BLOCK // (2 * N)))


def check_wedge_inequality(p: Params, n_samples: int = 100_000, seed: int = 0,
                           tol: float = 1e-9) -> CheckReport:
    """Sample the per-wedge splitting inequality for k = 0..WEDGE_K_MAX.

    Admissible splits additionally satisfy xhat <= N^-k (the wedge only
    supports the construction when the continuing child keeps its set
    fraction below the next node); a few samples per chunk are pinned
    to the sharp edges xhat = N^-k and yhat = Q.
    """
    if p.degenerate:
        raise DomainError("wedge sampler needs Q > 1")
    N, Q = p.N, p.Q

    def draw(g, k):
        nodek = N ** (-k)
        x_lo = N ** (-k - 1.0)
        x_hi = (N - 1 + nodek) / N
        y_lo = (Q + N - 1) / N
        x = x_lo + (x_hi - x_lo) * g.uniform(0.0, 1.0)
        y_cap = np.minimum(Q, 1 + (Q - 1) * N**k * x)
        y = y_lo + (y_cap - y_lo) * g.uniform(0.0, 1.0)
        xh_lo = np.maximum(0.0, N * x - (N - 1))
        xhat = xh_lo + (nodek - xh_lo) * g.uniform(0.0, 1.0)
        yh_lo = np.maximum(Q, N * y - (N - 1) * Q)
        yh_hi = N * y - (N - 1)
        yhat = yh_lo + (yh_hi - yh_lo) * g.uniform(0.0, 1.0)
        pin = min(64, g.size // 2)      # rows of the chunk, not of the block
        xhat[:max(0, pin - g.lo)] = nodek       # sharp edge: slack 0 expected
        yhat[max(0, pin - g.lo):max(0, 2 * pin - g.lo)] = Q
        xt = (N * x - xhat) / (N - 1)
        yt = (N * y - yhat) / (N - 1)
        lhs = _wedge_vec(p, k, x, y)
        rhs = ((N - 1) / N * _wedge_vec(p, k, xt, yt)
               + yhat / (N * Q) * _wedge_vec(p, k, xhat, np.full_like(x, Q)))
        return lhs - rhs, lambda i: {
            "k": k, "x": float(x[i]), "y": float(y[i]), "xt": float(xt[i]),
            "yt": float(yt[i]), "xhat": float(xhat[i]),
            "yhat": float(yhat[i])}, lhs, rhs

    return _sweep("wedge", seed, _quota(n_samples, range(WEDGE_K_MAX + 1)),
                  draw, tol, f"k=0..{WEDGE_K_MAX}, xhat capped at N^-k")


# ---------------------------------------------------------------------------
# property suites

def check_concavity(p: Params, n_samples: int = 10_000, seed: int = 0,
                    tol: float = 1e-9) -> CheckReport:
    if p.degenerate:
        raise DomainError("concavity check needs Q > 1")

    def draw(g, _):
        x1 = g.uniform(0.0, 1.0)
        x2 = g.uniform(0.0, 1.0)
        y1 = g.uniform(1.0, p.Q)
        y2 = g.uniform(1.0, p.Q)
        lam = g.uniform(0.0, 1.0)
        lhs = _M_vec(p, lam * x1 + (1 - lam) * x2, lam * y1 + (1 - lam) * y2)
        a, b = lam * _M_vec(p, x1, y1), (1 - lam) * _M_vec(p, x2, y2)
        return lhs - a - b, _row(x1, y1, x2, y2, lam), lhs, a + b

    return _sweep("concavity", seed, _quota(n_samples), draw, tol)


def check_t_monotonicity(p: Params, n_samples: int = 10_000, seed: int = 0,
                         tol: float = 1e-9) -> CheckReport:
    if p.degenerate:
        raise DomainError("rescaling check needs Q > 1")

    def draw(g, _):
        x = g.uniform(0.0, 1.0)
        y = g.uniform(1.0, p.Q)
        t2 = 1 + (y - 1) * g.uniform(0.0, 1.0)         # keeps y/t2 >= 1
        t1 = 1 + (t2 - 1) * g.uniform(0.0, 1.0)
        lhs, rhs = t1 * _M_vec(p, x, y / t1), t2 * _M_vec(p, x, y / t2)
        return lhs - rhs, _row(x, y, t1, t2), lhs, rhs

    return _sweep("t-monotonicity", seed, _quota(n_samples), draw, tol)


def check_smooth_bound(p: Params, n_samples: int = 100_000, seed: int = 0,
                       tol: float = 1e-9) -> CheckReport:
    """f <= f_smooth everywhere; exact agreement at the nodes N^-k."""
    if p.degenerate:
        raise DomainError("smooth bound needs Q > 1")
    half = n_samples // 2
    xs = np.concatenate([
        np.linspace(0.0, 1.0, half),
        np.geomspace(1e-12, 1.0, n_samples - half),
    ])

    def draw(g, _):
        x = xs[g.lo:g.hi]
        lhs, rhs = p.Q * np.power(x, p.epsilon), _f_vec(p, x)
        return lhs - rhs, lambda i: float(x[i]), lhs, rhs

    nodes = np.power(float(p.N), -np.arange(41.0))
    fs = p.Q * np.power(nodes, p.epsilon)
    rel = np.max(np.abs(_f_vec(p, nodes) - fs) / fs)
    notes = f"node agreement max rel err {rel:.3e} (k<=40)"
    r = _sweep("smooth-bound", seed, [(0, n_samples, 0)], draw, tol, notes)
    if rel > 1e-12:
        r = replace(r, worst_slack=-math.inf, passed=False,
                    notes=notes + "; node identity violated")
    return replace(r, samples=n_samples + 41)


def check_branch_continuity(p: Params, n_samples: int = 1000, seed: int = 0,
                            tol: float = 1e-9) -> CheckReport:
    """Both closed-form branches agree on the line y = 1 + (Q-1)x."""
    if p.degenerate:
        raise DomainError("branch continuity needs Q > 1")
    xs = np.linspace(1e-9, 1.0, n_samples)

    def draw(g, _):
        x = xs[g.lo:g.hi]
        y = 1 + (p.Q - 1) * x
        # a y rounded below the line steps up to put u = x(Q-1)/(y-1) <= 1;
        # it is below Q, so the step is toward Q, and y = Q stays
        y = np.where(y - 1 < (p.Q - 1) * x, np.nextafter(y, p.Q), y)
        lhs, rhs = x + y - 1, _upper_vec(p, x, y)
        return -np.abs(lhs - rhs), lambda i: float(x[i]), lhs, rhs

    return _sweep("branch-continuity", seed, [(0, n_samples, 0)], draw, tol)


def check_homogeneity(p: Params, n_samples: int = 1000, seed: int = 0,
                      tol: float = 1e-12) -> CheckReport:
    """B(x, ty, tm) = t B(x, y, m), relative error, default tol 1e-12."""
    def draw(g, _):
        x = g.uniform(0.0, 1.0)
        m = g.uniform(0.5, 2.0)
        y = m * (1 + (p.Q - 1) * g.uniform(0.0, 1.0))
        t = g.uniform(0.5, 2.0)
        b1 = _B_vec(p, x, t * y, t * m)
        b2 = t * _B_vec(p, x, y, m)
        rel = np.abs(b1 - b2) / np.maximum(np.abs(b2), 1e-300)
        return -rel, _row(x, y, m, t), 0.0, 0.0     # relative: scale 1

    return _sweep("homogeneity", seed, [(0, n_samples, 0)], draw, tol)


def check_wedge_domination(p: Params, n_samples: int = 10_000, seed: int = 0,
                           tol: float = 1e-9) -> CheckReport:
    """Every wedge M_k, k = 1..DOMINATION_K_MAX, lies above M on the domain."""
    if p.degenerate:
        raise DomainError("wedge domination needs Q > 1")
    side = max(2, int(math.isqrt(n_samples)))
    x, y = np.linspace(0.0, 1.0, side), np.linspace(1.0, p.Q, side)[:, None]
    grid = [np.broadcast_to(a, (side, side)) for a in (x, y)]  # np.meshgrid
    m = _M_vec(p, *grid).ravel()

    def draw(g, k):
        X, Y = (a[g.lo:g.hi].ravel() for a in grid)
        mk, wedge = m[g.lo * side:g.hi * side], _wedge_vec(p, k, X, Y)
        return wedge - mk, lambda i: {"k": k, "x": float(X[i]),
                                      "y": float(Y[i])}, wedge, mk

    plan = ((0, side, k) for k in range(1, DOMINATION_K_MAX + 1))
    return _sweep("wedge-domination", seed, plan, draw, tol,
                  f"k=1..{DOMINATION_K_MAX} on a {side}x{side} grid",
                  max(1, _BLOCK // (2 * side)))


def check_weak_type(w: DyadicWeight, p_exp: float,
                    tol: float = 1e-9) -> CheckReport:
    """sup over levels of lambda |{w > lambda}|^{1/p} against the integral.

    Needs min leaf exactly 1; p_exp beyond the endpoint exponent for the
    weight's own characteristic makes the bound inapplicable, which is
    reported rather than failed.
    """
    average, minimum, char = _summary(w.tree, w.n)
    if minimum != 1:
        raise DomainError("weak-type check needs a weight with min leaf 1")
    dist = value_distribution(w)
    values = sorted(dist, reverse=True)
    if values[0] > sys.float_info.max:      # char and the average are smaller
        raise DomainError("weak-type check: a leaf overflows a float")
    char = float(char)
    p_star = endpoint_exponent(w.n, char) if char > 1 else math.inf
    if p_exp > p_star * (1 + 1e-12):
        return CheckReport("weak-type", 0, math.inf, None, True,
                           f"inapplicable: p={p_exp:.6g} beyond endpoint "
                           f"{p_star:.6g} for characteristic {char:.6g}")
    integral = float(average)
    sup = 0.0
    witness = None
    tail = Fraction(0)
    for v in values:
        tail += dist[v]
        lvl = float(v) * float(tail) ** (1.0 / p_exp)
        if lvl > sup:
            sup = lvl
            witness = (float(v), float(tail))
    return CheckReport("weak-type", len(values), integral - sup, witness,
                       at_least(integral, sup, tol),
                       f"p={p_exp:.6g}, endpoint {p_star:.6g}")


# ---------------------------------------------------------------------------
# brute-force oracle on small trees

@dataclass(frozen=True)
class OracleBucket:
    value: Fraction
    leaves: tuple
    j: int


@dataclass
class OracleTable:
    """Buckets (x, y) -> OracleBucket, in key order; every reader sorts too."""
    depth: int
    n: int
    grid: tuple
    buckets: dict = field(default_factory=dict)

    def witness_pair(self, key) -> tuple[DyadicWeight, DyadicSet]:
        """Rebuild the (weight, set) pair attaining a bucket."""
        b = self.buckets[key]
        order = sorted(range(len(b.leaves)), key=lambda i: (-b.leaves[i], i))
        chosen = set(order[:b.j])
        wtree = _nest(tuple(b.leaves), self.n)
        etree = _nest(tuple(i in chosen for i in range(len(b.leaves))), self.n,
                      is_set=True)
        return DyadicWeight(self.n, wtree), DyadicSet(self.n, etree)

    def to_json(self) -> dict:
        shared = {id(b.leaves): b.leaves for b in self.buckets.values()}
        try:
            floats = {i: [float(v) for v in t] for i, t in shared.items()}
            grid = [float(v) for v in self.grid]
        except OverflowError:
            raise DomainError("a grid value overflows a float; the CSV "
                              "writes no leaves") from None
        rows = [{"x": float(x), "y": float(y), "m": 1.0, "value": float(b.value),
                 "leaves": floats[id(b.leaves)], "j": b.j}
                for (x, y), b in sorted(self.buckets.items())]
        return {"depth": self.depth, "n": self.n, "grid": grid, "buckets": rows}

    def to_csv(self) -> str:
        lines = ["x,y,m,value,witness_id"] + [
            f"{float(x):.17g},{float(y):.17g},1,{float(b.value):.17g},{wid}"
            for wid, ((x, y), b) in enumerate(sorted(self.buckets.items()))]
        return "\n".join(lines) + "\n"


def _nest(flat: tuple, n: int, is_set: bool = False):
    """Fold a flat leaf tuple into a uniform n-ary tree."""
    level: tuple = flat
    node = make_set_node if is_set else tuple
    while len(level) > 1:
        level = tuple(node(level[i:i + n]) for i in range(0, len(level), n))
    return level[0]


def _corner_values(p: Params, k: int) -> set:
    """Leaves of the corner-k tree: (N eta)^a for a < k and (N eta)^(k-1)
    times heavy = 1 + N(Q-1); corner 0 needs corner 1's {1, heavy}."""
    Qf = Fraction(p.Q)
    step = p.N - Fraction(p.N - 1) / Qf      # N*eta, exact
    k = max(k, 1)
    return {step**a for a in range(k)} | {step**(k - 1) * (1 + p.N * (Qf - 1))}


def _cap(base: int, exp: int, what: str) -> None:
    """Refuse base**exp > ORACLE_CAP without building the power."""
    total = 1
    for _ in range(exp):
        total *= base
        if total > ORACLE_CAP:
            raise DomainError(f"{base}^{exp} {what} exceed the oracle cap "
                              f"{ORACLE_CAP}; shrink depth or the grid")


def _check_depth(p: Params, depth: int) -> None:
    if depth < 1:
        raise DomainError(f"oracle needs depth >= 1, got {depth}")
    _cap(p.N, depth, "leaves")


def default_value_grid(p: Params, depth: int, grid_size: int = 6) -> list[Fraction]:
    """{1}, an even ladder to 1 + N(Q-1), and the corner-construction values."""
    _check_depth(p, depth)
    if grid_size < 2:
        raise DomainError(f"oracle grid needs grid_size >= 2, got {grid_size}")
    _cap(grid_size if p.Q > 1 else 1, p.N, "combinations at level 1")
    ladder = {1 + j * (Fraction(p.Q) - 1) * p.N / Fraction(grid_size - 1)
              for j in range(1, grid_size if p.Q > 1 else 1)}
    return sorted(ladder.union({Fraction(1)}, *(_corner_values(p, k)
                                                for k in range(1, depth + 1))))


def _pair(level: dict, bound: Fraction, floor: float, root: bool, shift: int) -> dict:
    """Two subtrees of one level side by side, by max-plus convolution:
    `level` maps (leaf sum, min leaf) to, per j, (best top-j sum T, witness
    rank), and a joined (S, m) stays when S <= bound * min(m, floor) and, with
    `root`, m = floor.  Right states are walked in S order up to the left
    state's own bound, past which none passes.  A rank is its leaf tuple's
    index in itertools.product order, below `shift` on each side, so the
    joined witness's rank is left * shift + right; entries T * shift^2 minus
    that rank make `max` take the largest T, then the first witness."""
    qn, qd = bound.numerator, bound.denominator
    W = shift * shift
    right = sorted((S, m, [t * W - r for t, r in E]) for (S, m), E in level.items())
    out: dict = {}
    for (S, m), E in level.items():
        left = [t * W - r * shift for t, r in E]
        n, top = len(left), qn * min(m, floor)
        for Sr, mr, er in right:
            if (S + Sr) * qd > top:
                break
            state = (S + Sr, min(m, mr))
            if (state[0] * qd <= qn * min(state[1], floor)
                    and (state[1] == floor or not root)):
                acc = out.setdefault(state, [-math.inf] * (2 * n - 1))
                for j, e in enumerate(er):
                    acc[j:j + n] = map(max, acc[j:j + n], map(e.__add__, left))
    return {state: [(-t, r) for t, r in (divmod(-s, W) for s in acc)]
            for state, acc in out.items()}


def brute_force_oracle(p: Params, depth: int, value_grid=None) -> OracleTable:
    """Exhaustive supremum over grid-valued weights on a depth-`depth` tree.

    A node of N = 2^d children is built in d halvings (`_pair`) and kept
    only when sum <= Q * leaves * min, which loses nothing (the
    characteristic is the largest average/minimum over nodes); a half node
    is cut by its node's bound, and the root's last halving keeps min 1.
    Buckets key on (measure j/N^depth, average rounded UP to a step of
    0.05(Q-1)), so the closed form at the label dominates, and come out in
    key order.  Each keeps its largest mass, then its smallest rank: the
    leaf tuple's index in itertools.product(grid, repeat=N^depth) order,
    grid indices read as base-len(grid) digits, first leaf most significant.
    Needs depth >= 1; ORACLE_CAP bounds N^depth, states^N per level and
    N^(2 depth), the size of the witness output.
    """
    _check_depth(p, depth)
    if value_grid is None:
        value_grid = default_value_grid(p, depth)
    grid = sorted({Fraction(v) for v in value_grid})
    if Fraction(1) not in grid or any(v < 1 for v in grid):
        raise ValueError("value grid must contain 1 and only values >= 1")
    N, Qf = p.N, Fraction(p.Q)
    _cap(len(grid), N, "combinations at level 1")
    _cap(N, 2 * depth, "witness leaves")    # N^depth leaves per set size
    D = math.lcm(*(v.denominator for v in grid))    # integer sums over D
    level = {(a, a): [(0, i), (a, i)] for i, a in enumerate(int(v * D) for v in grid)}
    shift = len(grid)       # one side's ranks lie below shift
    for lv in range(1, depth + 1):
        if lv > 1:
            _cap(len(level), N, f"combinations at level {lv}")
        for half in range(p.d):     # the root's min is 1
            level = _pair(level, Qf * N**lv, D if lv == depth else math.inf,
                          lv == depth and half == p.d - 1, shift)
            shift *= shift
    DL, h = D * N**depth, (Qf - 1) / 20     # at Q = 1 every S is DL: c = 0
    best: dict = {}
    for (S, _), E in level.items():     # y = S/DL rounds up to 1 + c h
        c = -((DL - S) * h.denominator // (DL * h.numerator)) if S > DL else 0
        for j, (t, r) in enumerate(E[1:], 1):
            best[j, c] = max(best.get((j, c), (-1, 0)), (t, -r))
    xs = {j: Fraction(j, N**depth) for j, _ in best}
    ys = {c: 1 + c * h for _, c in best}
    places = [len(grid)**k for k in reversed(range(N**depth))]
    leaves = {r: tuple(grid[r // q % len(grid)] for q in places)
              for r in {-r for _, r in best.values()}}  # one tuple per witness
    return OracleTable(depth, N, tuple(grid), {
        (xs[j], ys[c]): OracleBucket(Fraction(t, DL), leaves[-r], j)
        for (j, c), (t, r) in sorted(best.items())})


def oracle_vs_closed_form(table: OracleTable, p: Params,
                          tol: float = 1e-9) -> CheckReport:
    """Two-sided bridge: every bucket below the closed form, and corner
    buckets reaching Q eta^k whenever the grid can express them."""
    worst, witness, ok = math.inf, None, True
    for (x, y), b in sorted(table.buckets.items()):
        bound, value = eval_B(p, float(x), float(y), 1.0), float(b.value)
        s = bound - value
        ok = ok and at_least(bound, value, tol)
        if s < worst:
            worst, witness = s, {"direction": "upper", "x": float(x),
                                 "y": float(y), "value": value}
    corners = 0
    if p.Q > 1:
        Qf = Fraction(p.Q)
        eta = 1 - Fraction(p.N - 1) / (p.N * Qf)
        for k in range(0, table.depth + 1):
            if not _corner_values(p, k) <= set(table.grid):
                continue
            key = (Fraction(1, p.N**k), Qf)
            target = float(Qf * eta**k)
            got = table.buckets.get(key)
            value = float(got.value) if got else None
            s = (value - target) if got else -math.inf
            corners += 1
            ok = ok and got is not None and at_least(value, target, tol)
            if s < worst:
                worst, witness = s, {"direction": "lower", "k": k,
                                     "expected": target, "got": value}
    return CheckReport("oracle-vs-closed-form", len(table.buckets), worst,
                       witness, ok, f"{len(table.buckets)} buckets, "
                       f"{corners} corner checks")


# ---------------------------------------------------------------------------
# suite registry for the CLI

def _weak_type_suite(p: Params, n_samples: Optional[int] = None, seed: int = 0,
                     tol: float = 1e-9) -> CheckReport:
    from .extremize import apply_T, build_corner
    pexp = osekowski_p_max(p)
    worst, witness, total, ok = math.inf, None, 0, True
    pair = build_corner(p, 0, exact=True)
    for k in range(0, 9):
        if k:
            pair = apply_T(p, pair)     # corner k from corner k-1, one T step
        r = check_weak_type(pair.w, pexp, tol)
        total += r.samples
        ok = ok and r.passed
        if r.worst_slack < worst:
            worst, witness = r.worst_slack, {"k": k, "at": r.worst_witness}
    return CheckReport("weak-type", total, worst, witness, ok,
                       f"corner pairs k=0..8 at p={pexp:.6g}")


# The largest quantity a suite forms is Q * 2^(a d + b): N Q in the three
# samplers (N y, y/(N Q)), 4 Q in homogeneity (t y with t, m < 2),
# (Q - 1) N^k x in wedge domination, and in weak-type corner 8's heavy leaf
# (N eta)^8 (1 + N (Q - 1)) < N^9 Q.  The others form nothing past Q.
_GROWTH = {"main-inequality-M": (1, 0), "main-inequality-B": (1, 0),
           "wedge": (1, 0), "homogeneity": (0, 2),
           "wedge-domination": (DOMINATION_K_MAX, 0), "weak-type": (9, 0)}

SUITES: dict[str, Callable[..., CheckReport]] = {
    "main-inequality-M": check_main_inequality_M,
    "main-inequality-B": check_main_inequality_B,
    "wedge": check_wedge_inequality,
    "concavity": check_concavity,
    "t-monotonicity": check_t_monotonicity,
    "smooth-bound": check_smooth_bound,
    "branch-continuity": check_branch_continuity,
    "homogeneity": check_homogeneity,
    "wedge-domination": check_wedge_domination,
    "weak-type": _weak_type_suite,
}


def run_suite(p: Params, name: str, n_samples: Optional[int] = None,
              seed: int = 0, tol: Optional[float] = None) -> list[CheckReport]:
    if not 0 <= seed < 1 << 63:
        raise DomainError(f"suites need a seed in [0, 2^63), got {seed}")
    if n_samples is not None and n_samples < 1:
        raise DomainError(f"suites need n_samples >= 1, got {n_samples}")
    if tol is not None and not (math.isfinite(tol) and tol >= 0):
        raise DomainError(f"suites need a finite tol >= 0, got {tol}")
    names = list(SUITES) if name == "all" else [name]
    for nm in names:
        if nm not in SUITES:
            raise ValueError(f"unknown suite {nm!r}; choose from "
                             f"{', '.join(SUITES)} or 'all'")
        a, b = _GROWTH.get(nm, (0, 0))
        top = math.ldexp(sys.float_info.max, -(a * p.d + b))
        if p.Q > top:
            raise DomainError(f"{nm} forms Q * 2^{a * p.d + b}, past the "
                              f"largest float; it needs Q <= {top:.6g}")
    kw = {k: v for k, v in (("n_samples", n_samples), ("tol", tol))
          if v is not None}
    return [SUITES[nm](p, seed=seed, **kw) for nm in names]
