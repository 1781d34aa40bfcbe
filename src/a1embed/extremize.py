"""Constructive near-extremizers for the Bellman bound.

Three building blocks, composed:

  * boundary_weight(y): the depth-1 weight with one heavy child,
    realizing M(1, y) = y with the full cube as the set.
  * apply_T / apply_S: push a weight one level down, scaling it by
    N*eta inside the first child and padding the rest with 1.  Each
    application multiplies the captured mass by exactly eta and the
    set measure by exactly 1/N; k-fold iteration from y = Q gives the
    corner pairs sitting on the nodes x = N^-k of the boundary curve.
  * concatenate(lambda, pair0, pair1): mix two pairs with weights
    (1-lambda, lambda) by writing lambda in binary and, at stage j,
    copying pair_{b_j} into the first half of the children while the
    second half carries the construction on.  Truncated after `depth`
    digits; the leftover region (measure 2^-depth) gets weight 1 and
    an empty set, so every statistic sits within O(2^-depth) of the
    ideal mix and the captured mass only ever falls short.

build_extremizer dispatches on the region of (x, y): below the line
y = 1 + (Q-1)x it mixes (1, empty) with a boundary weight; above it,
it mixes (1, empty) with a point on the y = Q edge, itself a mix of
the two corner pairs bracketing u = x(Q-1)/(y-1).

With exact=True all leaves are Fractions and eta enters as an exact
rational, so corner statistics come out exactly Q*eta^k.  apply_T and
concatenate take exactness from their input pairs (the type of the
minimum, which both require to be 1).

An ExtremalPair is the two trees, their statistics and the fold memos
behind them, nothing else: the point asked for and the digit count are the
caller's.  Every pair comes from _finalize, which computes the statistics
and checks them once; build_corner checks only its last pair, which covers
the intermediate ones, and concatenate's check starts from its input pairs'
memos, so it folds only the new spine.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .bellman import _interval_index, _on_lower_branch, eval_B
from .dyadic import (
    DyadicSet,
    DyadicWeight,
    WeightStats,
    fold_memo,
    make_set_node,
    scale_weight,
    stats,
)
from .params import (
    BOUNDARY_TOL,
    CONCAT_DIGITS_MAX,
    CORNER_K_MAX,
    DIGITS_MAX,
    PAIR_ENTRIES_MAX,
    DegenerateParamsError,
    DomainError,
    InvariantError,
    Params,
    at_least,
    clamp_omega,
)


@dataclass(frozen=True, eq=False)
class ExtremalPair:
    w: DyadicWeight
    E: DyadicSet
    achieved: WeightStats
    memo: tuple = field(default_factory=fold_memo, repr=False, compare=False)


def _finalize(p: Params, w: DyadicWeight, E: DyadicSet, *seeds) -> ExtremalPair:
    memo = fold_memo(*seeds)
    st = stats(w, E, memo)
    if not at_least(p.Q, float(st.char)):
        raise InvariantError(f"characteristic {float(st.char)} > Q = {p.Q}")
    if st.m != 1:
        raise InvariantError(f"minimum {st.m!r} not normalized to 1")
    x, y = float(st.x), float(st.y)
    bound = eval_B(p, x, min(y, p.Q), 1.0)
    if not at_least(bound, float(st.value)):
        raise InvariantError(f"captured mass {float(st.value)} > B = {bound}")
    return ExtremalPair(w, E, st, memo)


def _boundary_tree(p: Params, y, one) -> tuple:
    # N-1 children share the one `one` leaf; the heavy child lifts the mean to y
    return (one,) * (p.N - 1) + (1 + p.N * (type(one)(y) - 1),)


def boundary_weight(p: Params, y, exact: bool = False) -> ExtremalPair:
    """Depth-1 pair realizing M(1, y) = y on the right edge of the domain."""
    _, y = clamp_omega(p, 1.0, y)
    one = Fraction(1) if exact else 1.0
    return _finalize(p, DyadicWeight(p.N, _boundary_tree(p, y, one)),
                     DyadicSet(p.N, True))


def apply_S(E: DyadicSet) -> DyadicSet:
    """Shrink the set into child 1; measure divides by exactly N."""
    if E.tree is False:
        return E
    return DyadicSet(E.n, make_set_node((E.tree,) + (False,) * (E.n - 1)))


def _unit(p: Params, pair: ExtremalPair, op: str):
    """Check an input pair (fan-out N, m = 1, char <= Q); return its 1.

    The 1 has the type of the pair's minimum, so an exact pair yields
    Fraction(1) and the operation stays exact.
    """
    if pair.w.n != p.N:
        raise DomainError(f"{op}: pair fan-out does not match params")
    if pair.achieved.m != 1 or not at_least(p.Q, float(pair.achieved.char)):
        raise DomainError(f"{op} inputs must have m = 1 and char <= Q")
    return Fraction(1) if isinstance(pair.achieved.m, Fraction) else 1.0


def _push_down(p: Params, w: DyadicWeight, E: DyadicSet, one):
    """One T step: w scaled by N*eta into child 1, the rest padded with one."""
    scaled = scale_weight(w, p.N - (p.N - 1) / type(one)(p.Q))
    return DyadicWeight(p.N, (scaled.tree,) + (one,) * (p.N - 1)), apply_S(E)


def apply_T(p: Params, pair: ExtremalPair) -> ExtremalPair:
    """Push a y = Q pair one level down; captured mass scales by exactly eta."""
    if not (at_least(p.Q, pair.achieved.y) and at_least(pair.achieved.y, p.Q)):
        raise DomainError("apply_T needs a pair with average exactly Q")
    w, E = _push_down(p, pair.w, pair.E, _unit(p, pair, "apply_T"))
    return _finalize(p, w, E)


def build_corner(p: Params, k: int, exact: bool = False) -> ExtremalPair:
    """k-fold apply_T of boundary_weight(Q): stats (N^-k, Q, 1, Q, Q*eta^k).

    The pair is checked once, at the end: the characteristic is a maximum
    over subtrees and f(x/N) = eta*f(x), so the last check covers the
    pairs of the intermediate steps.
    """
    if p.degenerate:
        raise DegenerateParamsError("corner pairs need Q > 1")
    if not 0 <= k <= CORNER_K_MAX:
        raise DomainError(f"corner index k = {k} outside [0, {CORNER_K_MAX}]")
    one = Fraction(1) if exact else 1.0
    w, E = DyadicWeight(p.N, _boundary_tree(p, p.Q, one)), DyadicSet(p.N, True)
    for _ in range(k):
        w, E = _push_down(p, w, E, one)
    return _finalize(p, w, E)


def concatenate(p: Params, lam, pair0: ExtremalPair, pair1: ExtremalPair,
                depth: int) -> ExtremalPair:
    """Mix pair0 and pair1 with weights (1-lam, lam), truncated binary digits.

    Stage j copies pair_{b_j} into the first N/2 children and continues
    in the (shared) second half; after `depth` stages the residual cell
    gets (1, empty).  Statistics land within max(1, Q)*2^-depth of the
    ideal mix, and the captured mass never overshoots it.
    """
    lamf = Fraction(lam)
    if not 0 <= lamf <= 1:
        raise DomainError(f"mixing weight {lam!r} outside [0, 1]")
    if not 1 <= depth <= CONCAT_DIGITS_MAX:
        raise DomainError(f"digit count {depth} outside [1, {CONCAT_DIGITS_MAX}]")
    for pair in (pair0, pair1):
        one = _unit(p, pair, "concatenate")     # exact when the inputs are
    if lamf == 1:
        # terminating expansion would be 0.111...; take the pair itself
        return pair1

    half = p.N // 2
    wcur = one
    scur = False
    for i in range(depth, 0, -1):       # digit b_i of lam, innermost stage first
        src = pair1 if int(lamf * 2**i) % 2 else pair0
        wcur = (src.w.tree,) * half + (wcur,) * half
        scur = make_set_node((src.E.tree,) * half + (scur,) * half)
    return _finalize(p, DyadicWeight(p.N, wcur), DyadicSet(p.N, scur),
                     pair0.memo, pair1.memo)


def _inner_digits(p: Params, depth: int) -> int:
    # extra digits keep the nested truncation drift within max(1, Q)*2^-depth
    spread = max(p.Q - 1, 1 / (p.Q - 1))
    return min(depth + max(1, math.ceil(math.log2(spread))), CONCAT_DIGITS_MAX)


def _pair_on_q_edge(p: Params, u: float, depth: int, exact: bool) -> ExtremalPair:
    """Pair with average Q and set measure ~u, mass f(u): mix of corners."""
    if u >= 1 - BOUNDARY_TOL:
        return boundary_weight(p, p.Q, exact=exact)
    k, s = _interval_index(p, u)
    if s == 1.0:                      # u is exactly a node N^-k
        return build_corner(p, k, exact=exact)
    if k + 1 > CORNER_K_MAX:
        raise DomainError(f"set fraction {u!r} needs corner index beyond cap")
    mu = (s - 1 / p.N) / (1 - 1 / p.N)
    return concatenate(p, mu, build_corner(p, k + 1, exact=exact),
                       build_corner(p, k, exact=exact), depth)


def _check_entries(p: Params, nodes: int) -> None:
    """Refuse, before building, a pair of up to `nodes` distinct internal
    nodes whose N children each would take the JSON past PAIR_ENTRIES_MAX."""
    if p.N * nodes > PAIR_ENTRIES_MAX:
        raise DomainError(f"the pair may hold {p.N * nodes} entries "
                          f"({nodes} nodes of {p.N} children), past the cap "
                          f"{PAIR_ENTRIES_MAX}; lower d or depth")


def build_extremizer(p: Params, x: float, y: float, depth: int,
                     exact: bool = False) -> ExtremalPair:
    """Near-extremal pair for any (x, y) in the domain.

    The captured mass sits within 2Q*2^-depth below M(x, y), and the
    achieved (set measure, average) within max(1, Q)*2^-depth of
    (x, y).  Deepening `depth` only ever improves the mass.
    """
    if p.degenerate:
        raise DegenerateParamsError("extremizers need Q > 1")
    x, y = clamp_omega(p, x, y)
    if not 1 <= depth <= DIGITS_MAX:
        raise DomainError(f"depth {depth} outside [1, {DIGITS_MAX}]")
    empty = DyadicSet(p.N, False)
    if x == 0:
        # all the average, none of the set: M(0, y) = 0
        return _finalize(p, boundary_weight(p, y, exact=exact).w, empty)

    one = Fraction(1) if exact else 1.0
    trivial = _finalize(p, DyadicWeight(p.N, one), empty)

    # nodes, at most: n concatenated digits add n weight and n set nodes,
    # corner k k + 1 and k, a boundary weight 1 (k past CORNER_K_MAX refuses)
    if _on_lower_branch(p, x, y):
        _check_entries(p, 2 * depth + 1)
        yprime = min(1 + (y - 1) / x, p.Q)
        return concatenate(p, x, trivial,
                           boundary_weight(p, yprime, exact=exact), depth)
    lam = (y - 1) / (p.Q - 1)
    u = min(x * (p.Q - 1) / (y - 1), 1.0)
    inner = _inner_digits(p, depth)
    k = min(_interval_index(p, u)[0], CORNER_K_MAX) if u < 1 - BOUNDARY_TOL else 0
    _check_entries(p, 2 * (depth + inner) + 4 * k + 4)
    edge = _pair_on_q_edge(p, u, inner, exact)
    return concatenate(p, lam, trivial, edge, depth)
