"""Exact reference for the closed forms, independent of the a1embed package.

Nothing here imports a1embed.  Every formula is written again from the
paper's definitions, in fractions.Fraction:

    N = 2^d,  eta = 1 - (N-1)/(N Q),  eps = -log(eta)/log(N)
    f(N^-k) = Q eta^k, linear between consecutive nodes, f(0) = 0
    M(x, y) = x + y - 1                          if y <= 1 + (Q-1)x
            = (y-1)/(Q-1) f(x (Q-1)/(y-1))       otherwise
    B(x, y, m) = m M(x, y/m)

The interval index of x is found by exact comparison with N^-(k+1); the
smooth majorant Q x^eps is computed with mpmath at 50 digits.  Trees are
the plain nested tuples the package also uses (a weight node is a number
or a tuple of N nodes, a set node is a bool or a tuple), so a pair can be
folded here without importing anything from the package.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from mpmath.ctx_mp import MPContext

# Points within this distance of the line y = 1 + (Q-1)x count as on it,
# and a scaled coordinate within it of 1 counts as a node.  The CLI
# documents the same convention; it decides a branch description only for
# points that lie on the line or on a node up to float rounding.
BOUNDARY_TOL = Fraction(1, 10**12)
# A context of its own, so the precision is not shared with other mpmath users.
MP = MPContext()
MP.dps = 50


def exact(v) -> Fraction:
    """The exact rational value of a float, int or Fraction."""
    return v if isinstance(v, Fraction) else Fraction(v)


def mpf(v):
    """An exact rational as a 50-digit mpmath number."""
    v = exact(v)
    return MP.mpf(v.numerator) / v.denominator


def recover(v: float, max_den: int = 10**6) -> Fraction:
    """The small-denominator rational that a float was rounded from."""
    r = Fraction(v).limit_denominator(max_den)
    if float(r) != v:
        raise ValueError(f"{v!r} is not the rounding of a rational with "
                         f"denominator <= {max_den}")
    return r


class Ref:
    """Closed forms for one (Q, d), exact."""

    def __init__(self, Q, d: int):
        self.Q = exact(Q)
        if self.Q <= 1:
            raise ValueError("the reference needs Q > 1")
        self.d = d
        self.N = 2**d
        self.eta = 1 - Fraction(self.N - 1) / (self.N * self.Q)
        self.step = self.N * self.eta            # N eta, the corner scaling
        self.heavy = 1 + self.N * (self.Q - 1)   # heavy leaf of the k=0 corner

    # -- boundary profile -------------------------------------------------

    def interval(self, x: Fraction) -> int:
        """k with N^-(k+1) < x <= N^-k, for x in (0, 1]."""
        if not 0 < x <= 1:
            raise ValueError(f"x = {x} outside (0, 1]")
        k = 0
        while x <= Fraction(1, self.N ** (k + 1)):
            k += 1
        return k

    def f(self, x) -> Fraction:
        x = exact(x)
        if x <= 0:
            return Fraction(0)
        if x >= 1:
            return self.Q
        k = self.interval(x)
        return self.eta**k * (self.Q - 1 + x * self.N**k)

    def smooth(self, x):
        """Q x^eps, to 50 digits."""
        eps = -MP.log(mpf(self.eta)) / MP.log(self.N)
        return mpf(self.Q) * mpf(x) ** eps

    def p_max(self):
        """Endpoint exponent log N / log(N eta), so that 1 - 1/p_max = eps."""
        return MP.log(self.N) / MP.log(mpf(self.step))

    # -- the surface --------------------------------------------------------

    def _clamp(self, x, y) -> tuple[Fraction, Fraction]:
        return min(max(exact(x), Fraction(0)), Fraction(1)), \
            min(max(exact(y), Fraction(1)), self.Q)

    def M(self, x, y) -> Fraction:
        x, y = self._clamp(x, y)
        if y <= 1 + (self.Q - 1) * x:
            return x + y - 1
        u = min(x * (self.Q - 1) / (y - 1), Fraction(1))
        return (y - 1) / (self.Q - 1) * self.f(u)

    def B(self, x, y, m) -> Fraction:
        m = exact(m)
        return m * self.M(x, exact(y) / m)

    def wedge(self, k: int, x, y) -> Fraction:
        """Plane k-1 inside {y <= 1 + (Q-1) N^k x}, plane k outside."""
        x, y = exact(x), exact(y)
        if k == 0:
            return x + y - 1
        j = k - 1 if y <= 1 + (self.Q - 1) * self.N**k * x else k
        return self.step**j * x + self.eta**j * (y - 1)

    def describe(self, x, y) -> str:
        """Branch description in the CLI's wording, for a point (x, y)."""
        x, y = self._clamp(x, y)
        if y <= 1 + (self.Q - 1) * x + BOUNDARY_TOL:
            return "lower branch (y <= 1 + (Q-1)x)"
        u = min(x * (self.Q - 1) / (y - 1), Fraction(1))
        if u <= 0:
            return "upper branch, interval k=None"
        k = self.interval(u)
        node = abs(u * self.N**k - 1) <= BOUNDARY_TOL
        return f"upper branch, {'node' if node else 'interval'} k={k}"

    # -- slacks of the verification suites, from a reported witness --------

    def suite_slack(self, suite: str, w):
        """The slack a suite's witness attains, recomputed exactly."""
        N, Q = self.N, self.Q
        if suite == "main-inequality-M":
            x, y, xt, yt, xh, yh = map(exact, w)
            return self.M(x, y) - ((N - 1) * self.M(xt, yt) / N
                                   + yh / (N * Q) * self.M(xh, Q))
        if suite == "main-inequality-B":
            xs, ys, ms = ([exact(v) for v in w[c]] for c in ("x", "y", "m"))
            child = sum(self.B(a, b, c) for a, b, c in zip(xs, ys, ms)) / N
            return self.B(sum(xs) / N, sum(ys) / N, 1) - child
        if suite == "wedge":
            k = w["k"]
            x, y, xt, yt, xh, yh = (exact(w[c]) for c in
                                    ("x", "y", "xt", "yt", "xhat", "yhat"))
            return self.wedge(k, x, y) - ((N - 1) * self.wedge(k, xt, yt) / N
                                          + yh / (N * Q) * self.wedge(k, xh, Q))
        if suite == "concavity":
            x1, y1, x2, y2, lam = map(exact, w)
            return (self.M(lam * x1 + (1 - lam) * x2, lam * y1 + (1 - lam) * y2)
                    - lam * self.M(x1, y1) - (1 - lam) * self.M(x2, y2))
        if suite == "t-monotonicity":
            x, y, t1, t2 = map(exact, w)
            return t1 * self.M(x, y / t1) - t2 * self.M(x, y / t2)
        if suite == "smooth-bound":
            return self.smooth(w) - mpf(self.f(w))
        if suite == "branch-continuity":
            x = exact(w)
            y = 1 + (Q - 1) * x
            upper = (y - 1) / (Q - 1) * self.f(min(x * (Q - 1) / (y - 1), 1))
            return -abs((x + y - 1) - upper)
        if suite == "homogeneity":
            x, y, m, t = map(exact, w)
            b = t * self.B(x, y, m)
            return -abs(self.B(x, t * y, t * m) - b) / b
        if suite == "wedge-domination":
            return self.wedge(w["k"], w["x"], w["y"]) - self.M(w["x"], w["y"])
        if suite == "weak-type":
            # every corner pair has average exactly Q
            v, tail = w["at"]
            return mpf(self.Q) - mpf(v) * mpf(tail) ** (1 / self.p_max())
        raise KeyError(suite)

    # -- constructions the paper fixes ---------------------------------------

    def corner_value(self, k: int) -> Fraction:
        return self.Q * self.eta**k

    def corner_grid_values(self, k: int) -> set:
        """Leaf values that reach the corner (N^-k, Q) on a tree of depth k:
        those of corner pair max(k-1, 0), keeping only its heaviest leaf in
        the set (for k >= 1)."""
        return set(_leaves(self.corner_tree(max(k - 1, 0))[0]))

    def corner_tree(self, k: int) -> tuple:
        """(weight, set) of the k-th corner pair, built from the definition:
        the k=0 pair puts 1 + N(Q-1) on one child and 1 on the others, and
        each step scales the pair by N eta into one child and pads with 1."""
        w = (Fraction(1),) * (self.N - 1) + (self.heavy,)
        e = True
        for _ in range(k):
            w = (_scale(w, self.step),) + (Fraction(1),) * (self.N - 1)
            e = (e,) + (False,) * (self.N - 1)
        return w, e

    # -- the oracle -----------------------------------------------------------

    def bucket_label(self, y: Fraction) -> Fraction:
        """The average rounded up to a step of (Q-1)/20."""
        if y == 1:
            return Fraction(1)
        h = (self.Q - 1) / 20
        return 1 + math.ceil((y - 1) / h) * h

    def enumerate_buckets(self, depth: int, grid) -> dict:
        """Best captured mass per (set measure, average label), by trying
        every leaf assignment and every number j of heaviest leaves.
        Exhaustive: for trees of a few leaves only."""
        leaves = self.N**depth
        grid = sorted(exact(v) for v in grid)
        out: dict = {}
        for a in itertools.product(grid, repeat=leaves):
            if min(a) != 1:
                continue
            _, y, _, char, _ = fold(nest(a, self.N), True, self.N)
            if char > self.Q:
                continue
            label = self.bucket_label(y)
            acc = Fraction(0)
            for j, v in enumerate(sorted(a, reverse=True), start=1):
                acc += v
                key = (Fraction(j, leaves), label)
                if out.get(key, -1) < acc / leaves:
                    out[key] = acc / leaves
        return out


def _leaves(node):
    if isinstance(node, tuple):
        for c in node:
            yield from _leaves(c)
    else:
        yield node


def _scale(node, c):
    if isinstance(node, tuple):
        return tuple(_scale(ch, c) for ch in node)
    return node * c


def nest(flat, n: int):
    """A flat leaf sequence as a uniform n-ary tree."""
    level = tuple(flat)
    while len(level) > 1:
        level = tuple(level[i:i + n] for i in range(0, len(level), n))
    return level[0]


def fold(wtree, etree, n: int) -> tuple:
    """(x, y, m, char, value) of a weight/set pair, bottom up and exact.

    x is the set's measure, y the weight's average, m its minimum, char the
    maximum over nodes of average/minimum (the dyadic A1 characteristic)
    and value the weight's integral over the set.  Shared subtrees are
    folded once.
    """
    node_memo: dict = {}

    def wnode(node):
        # (average, minimum, max over nodes below of average/minimum)
        if not isinstance(node, tuple):
            v = exact(node)
            return v, v, Fraction(1)
        r = node_memo.get(id(node))
        if r is None:
            kids = [wnode(c) for c in node]
            avg = sum(k[0] for k in kids) / n
            mn = min(k[1] for k in kids)
            r = (avg, mn, max(avg / mn, max(k[2] for k in kids)))
            node_memo[id(node)] = r
        return r

    set_memo: dict = {}

    def smeasure(node):
        if node is True or node is False:
            return Fraction(int(node))
        r = set_memo.get(id(node))
        if r is None:
            r = sum(smeasure(c) for c in node) / n
            set_memo[id(node)] = r
        return r

    pair_memo: dict = {}

    def value(w, e):
        if e is False:
            return Fraction(0)
        if e is True:
            return wnode(w)[0]
        if not isinstance(w, tuple):
            return exact(w) * smeasure(e)
        key = (id(w), id(e))
        r = pair_memo.get(key)
        if r is None:
            r = sum(value(a, b) for a, b in zip(w, e)) / n
            pair_memo[key] = r
        return r

    avg, mn, char = wnode(wtree)
    return smeasure(etree), avg, mn, char, value(wtree, etree)


def node_counts(tree) -> tuple[int, int]:
    """(distinct interior nodes, interior nodes of the expanded tree)."""
    seen: dict = {}

    def walk(node):
        if not isinstance(node, tuple):
            return 0
        r = seen.get(id(node))
        if r is None:
            r = 1 + sum(walk(c) for c in node)
            seen[id(node)] = r
        return r

    expanded = walk(tree)
    return len(seen), expanded
