"""Finite dyadic trees: weights, measurable sets, and their statistics.

A weight is a positive function constant on the leaves of a finite N-ary
tree (N = 2^d children per node, a leaf at depth j standing for a whole
subcube of measure N^-j).  A set is a tree whose leaves are full/empty
markers.  Leaf values may be floats or fractions.Fraction; all statistics
are computed with the leaf type, so rational trees give exact answers.

Trees are plain immutable structures: a weight node is either a number or
a tuple of N nodes, a set node is either a bool (True = full) or a tuple.
Subtrees and leaf objects may be shared, so every bottom-up quantity
comes from one post-order fold memoized on node identity (`_fold`): every
node, leaf or internal, is folded once per identity.  That keeps deeply
shared constructions (see extremize) linear-time, and a padding leaf that
fills N-1 children is summarized, or scaled, once.

The weight statistics all come from one per-node summary
(average, minimum, characteristic).  The dyadic A1 characteristic is the
largest ratio average/minimum over the cubes of the tree, so a node's
characteristic is the larger of its own ratio and its children's.  This
equals the largest ratio (maximal function)/(weight) over the leaves, bit
for bit in floating point too, because division is monotone in each
argument.

All quantities are normalized to the root cube having measure 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Any, Union

from .params import CONCAT_DIGITS_MAX, CORNER_K_MAX, DIGITS_MAX, new_params

WeightNode = Union[float, Fraction, tuple]
SetNode = Union[bool, tuple]

# The deepest tree a construction builds: DIGITS_MAX outer digits, then
# CONCAT_DIGITS_MAX inner digits, then a corner pair of depth CORNER_K_MAX + 1,
# plus one level to spare.
DEFAULT_MAX_DEPTH = DIGITS_MAX + CONCAT_DIGITS_MAX + CORNER_K_MAX + 2

FULL: SetNode = True
EMPTY: SetNode = False


@dataclass(frozen=True)
class DyadicWeight:
    n: int              # children per internal node, n = 2^d
    tree: WeightNode


@dataclass(frozen=True)
class DyadicSet:
    n: int
    tree: SetNode


@dataclass(frozen=True)
class WeightStats:
    """The bundle (set mass, average, minimum, A1 bound, mass on the set)."""

    x: Any
    y: Any
    m: Any
    char: Any
    value: Any


def _is_leaf(node) -> bool:
    return not isinstance(node, tuple)


def _fold(root, leaf, inner, memo=None):
    """Post-order fold: leaf(value) at leaves, inner(child results) above.

    Every node, leaf or internal, is folded once per identity: results are
    memoized on id(node), in `memo` when given, so a caller can share them
    between folds of the same tree.  A leaf object repeated across a tree
    (the padding of a construction) is summarized once.
    """
    if memo is None:
        memo = {}

    def walk(node):
        r = memo.get(id(node))
        if r is None:
            r = memo[id(node)] = (leaf(node) if _is_leaf(node)
                                  else inner([walk(c) for c in node]))
        return r

    return walk(root)


def make_set_node(children) -> SetNode:
    """Internal set node, collapsed when all children agree (canonical form)."""
    children = tuple(children)
    if all(c is True for c in children):
        return True
    if all(c is False for c in children):
        return False
    return children


def _validate(root, n: int, max_depth: int, kind: str, check_leaf,
              canonical: bool) -> None:
    height: dict[int, int] = {}

    def walk(node, depth) -> int:
        # a shared node is walked once; its height checks the cap on revisits
        h = height.get(id(node), 0)
        if depth + h > max_depth:
            raise ValueError(f"{kind} tree deeper than {max_depth}")
        if _is_leaf(node):
            check_leaf(node)
        elif id(node) not in height:
            if len(node) != n:
                raise ValueError(f"internal node has {len(node)} children, want {n}")
            if canonical and isinstance(make_set_node(node), bool):
                raise ValueError("internal set node with uniform children "
                                 "(not canonical)")
            for c in node:
                h = max(h, walk(c, depth + 1))
            h = height[id(node)] = h + 1
        return h

    walk(root, 0)


def _check_weight_leaf(v) -> None:
    if v is True or not 0 < v < math.inf:       # False fails 0 < v
        raise ValueError(f"leaf value {v!r} is not finite and positive")


def _check_set_leaf(v) -> None:
    if not isinstance(v, bool):
        raise ValueError(f"set leaf {v!r} is not a bool")


def validate_weight(w: DyadicWeight, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
    """Check fan-out, leaf positivity and the depth cap; raise ValueError."""
    _validate(w.tree, w.n, max_depth, "weight", _check_weight_leaf, False)


def validate_set(E: DyadicSet, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
    """Check fan-out, canonical form and the depth cap; raise ValueError."""
    _validate(E.tree, E.n, max_depth, "set", _check_set_leaf, True)


def tree_depth(w) -> int:
    return _fold(w.tree, lambda v: 0, lambda rs: 1 + max(rs))


# ---------------------------------------------------------------------------
# statistics

def _summary(node, n: int, memo=None):
    """(average, minimum, characteristic) of the cube at `node`, in one fold."""

    def inner(rs):
        avgs, mins, chars = zip(*rs)
        avg = sum(avgs) / n
        mn = min(mins)
        return avg, mn, max(avg / mn, *chars)

    # a leaf's ratio v/v is 1 in the leaf's own type; it keeps a float
    # characteristic >= 1 where a rounded average falls below the minimum
    try:
        return _fold(node, lambda v: (v, v, v / v), inner, memo)
    except ZeroDivisionError:
        raise ValueError("weight has a zero leaf") from None


def average(w: DyadicWeight):
    """Mean of the weight over the root cube."""
    return _summary(w.tree, w.n)[0]


def ess_inf(w: DyadicWeight):
    return _summary(w.tree, w.n)[1]


def a1_characteristic(w: DyadicWeight):
    """Largest ratio average/minimum over the cubes of the tree."""
    return _summary(w.tree, w.n)[2]


def _measure(node, n: int, memo=None) -> Fraction:
    return _fold(node, lambda v: Fraction(1 if v else 0),
                 lambda rs: sum(rs) / n, memo)


def measure(E: DyadicSet) -> Fraction:
    """Measure of the set, exact (always a dyadic rational)."""
    return _measure(E.tree, E.n)


def _weight_on_set(w: DyadicWeight, E: DyadicSet, summary_memo: dict):
    if w.n != E.n:
        raise ValueError("weight and set have different fan-out")
    memo: dict[tuple[int, int], Any] = {}
    measure_memo: dict[int, Fraction] = {}

    def walk(wn, en):
        if en is False:
            return 0
        if en is True:
            return _summary(wn, w.n, summary_memo)[0]
        if _is_leaf(wn):
            return wn * _measure(en, E.n, measure_memo)
        key = (id(wn), id(en))
        r = memo.get(key)
        if r is None:
            r = memo[key] = sum(walk(wc, ec) for wc, ec in zip(wn, en)) / w.n
        return r

    return walk(w.tree, E.tree)


def weight_on_set(w: DyadicWeight, E: DyadicSet):
    """Integral of the weight over the set (root cube normalized to mass 1)."""
    return _weight_on_set(w, E, {})


def maximal_function(w: DyadicWeight) -> DyadicWeight:
    """Dyadic maximal function, reported per leaf.

    Each leaf of the result carries the maximum of the subtree averages
    over all ancestors of that leaf, the root and the leaf itself included.
    One top-down pass; output nodes are shared wherever the running
    maximum agrees, so the result is no larger than the input.
    """
    summary_memo: dict[int, tuple] = {}
    out_memo: dict[tuple[int, Any], Any] = {}

    def walk(node, running):
        if _is_leaf(node):
            return max(running, node)
        key = (id(node), running)
        r = out_memo.get(key)
        if r is None:
            r = out_memo[key] = tuple(
                walk(c, max(running, _summary(c, w.n, summary_memo)[0]))
                for c in node)
        return r

    return DyadicWeight(w.n, walk(w.tree, _summary(w.tree, w.n, summary_memo)[0]))


def value_distribution(w: DyadicWeight) -> dict:
    """Map leaf value -> total measure carried by leaves of that value."""

    def inner(rs):
        r: dict = {}
        for dist in rs:
            for v, mu in dist.items():
                r[v] = r.get(v, Fraction(0)) + mu / w.n
        return r

    return _fold(w.tree, lambda v: {v: Fraction(1)}, inner)


def stats(w: DyadicWeight, E: DyadicSet) -> WeightStats:
    """Statistics bundle of a weight/set pair."""
    memo: dict[int, tuple] = {}
    y, m, char = _summary(w.tree, w.n, memo)
    return WeightStats(x=measure(E), y=y, m=m, char=char,
                       value=_weight_on_set(w, E, memo))


def complement(E: DyadicSet) -> DyadicSet:
    return DyadicSet(E.n, _fold(E.tree, lambda v: not v, tuple))


def scale_weight(w: DyadicWeight, c) -> DyadicWeight:
    """Multiply every leaf by c > 0; shared nodes and leaves stay shared."""
    if not c > 0:
        raise ValueError(f"scale factor must be positive, got {c!r}")
    return DyadicWeight(w.n, _fold(w.tree, lambda v: v * c, tuple))


def as_fraction_weight(w: DyadicWeight) -> DyadicWeight:
    """Convert every leaf to an exact Fraction (floats convert exactly)."""
    return DyadicWeight(w.n, _fold(
        w.tree, lambda v: v if isinstance(v, Rational) else Fraction(v), tuple))


# ---------------------------------------------------------------------------
# JSON round trip.  Floats serialize via repr and therefore round-trip
# bit-exactly; Fraction leaves degrade to float on output.  An interior node
# referenced from more than one parent (concatenation stages share their
# continuation subtree) is emitted once, tagged "id", and thereafter as
# {"ref": id}; expanding such trees naively is exponential in the number of
# stages.  Trees without sharing emit the plain nested format with no tags.

def _tree_to_json(root, leaf_doc):
    parents: dict[int, int] = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if _is_leaf(node):
            continue
        parents[id(node)] = parents.get(id(node), 0) + 1
        if parents[id(node)] == 1:
            stack.extend(node)
    ids: dict[int, int] = {}

    def walk(node):
        if _is_leaf(node):
            return leaf_doc(node)
        ref = ids.get(id(node))
        if ref is not None:
            return {"ref": ref}
        doc = {}
        if parents[id(node)] > 1:
            doc["id"] = ids[id(node)] = len(ids)
        doc["children"] = [walk(c) for c in node]
        return doc

    return walk(root)


def _tree_from_json(doc, n: int, kind: str, leaf_key: str, leaf, make_node,
                    max_depth: int):
    defs: dict = {}

    def walk(doc, depth):
        if leaf_key in doc:
            return leaf(doc[leaf_key])
        if "ref" in doc:
            node = defs.get(doc["ref"])
            if node is None:
                raise ValueError(f"ref {doc['ref']} precedes its definition")
            return node
        if depth >= max_depth:      # stop before the recursion goes deeper
            raise ValueError(f"{kind} tree deeper than {max_depth}")
        children = doc["children"]
        if len(children) != n:
            raise ValueError(f"{kind} node has {len(children)} children, want {n}")
        node = make_node(walk(c, depth + 1) for c in children)
        if "id" in doc:
            defs[doc["id"]] = node
        return node

    return walk(doc, 0)


def _number(v) -> float:
    if type(v) not in (float, int):     # refuses bool, str and the rest
        raise ValueError(f"weight leaf {v!r} is not a JSON number")
    return float(v)


def _set_leaf(marker) -> bool:
    if marker not in ("full", "empty"):
        raise ValueError(f"bad set marker {marker!r}")
    return marker == "full"


def pair_to_json(Q: float, d: int, w: DyadicWeight, E: DyadicSet) -> dict:
    return {
        "Q": Q,
        "d": d,
        "weight": _tree_to_json(w.tree, lambda v: {"leaf": float(v)}),
        "set": _tree_to_json(
            E.tree, lambda v: {"set": "full" if v else "empty"}),
    }


def pair_from_json(doc: dict, max_depth: int = DEFAULT_MAX_DEPTH):
    """Parse {"Q", "d", "weight", "set"}; validates both trees.

    (Q, d) must pass new_params.  Every malformed document raises ValueError.
    """
    try:
        p = new_params(doc["Q"], doc["d"])
        w = DyadicWeight(p.N, _tree_from_json(
            doc["weight"], p.N, "weight", "leaf", _number, tuple, max_depth))
        E = DyadicSet(p.N, _tree_from_json(
            doc["set"], p.N, "set", "set", _set_leaf, make_set_node, max_depth))
        validate_weight(w, max_depth)
        validate_set(E, max_depth)
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed pair document: {exc!r}") from None
    except RecursionError:      # the walks recurse once per tree level
        raise ValueError(f"pair tree too deep to walk (max_depth={max_depth})") from None
    return p.Q, p.d, w, E
