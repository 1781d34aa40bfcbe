"""Finite dyadic trees: weights, measurable sets, and their statistics.

A weight is a positive function constant on the leaves of a finite N-ary
tree (N = 2^d children per node, a leaf at depth j standing for a whole
subcube of measure N^-j).  A set is a tree whose leaves are full/empty
markers.  Leaf values may be floats or fractions.Fraction, and statistics
keep the leaf type: a Fraction mean is exact, one integer sum over the lcm
of the denominators; a float sum keeps its left-to-right order and bits.

Trees are plain immutable structures: a weight node is either a number or
a tuple of N nodes, a set node is either a bool (True = full) or a tuple.
Subtrees and leaf objects may be shared, so every bottom-up quantity
comes from one post-order fold memoized on node identity (`_fold`).  It
folds each node once, and a node of over 4 children each distinct child
once, so shared constructions (see extremize) fold in linear time and N-1
padding children that are one leaf object cost one walk, not N.  `stats`
starts its memos from the roots and statistics of the pairs whose trees a
new pair shares, so a construction's checks fold only its new nodes.  The
memos live for one call, and the caller holds every tree they key on.

A DyadicWeight or DyadicSet (and an extremize.ExtremalPair) compares and
hashes by identity; compare structure through `.tree` or `stats`.  The repr
is one fold, `DyadicWeight(n=4, depth=69, unique=75)` (distinct node
objects, leaves included), so it stays short however deep the tree.

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
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from operator import is_
from typing import Any, Union

from .params import CONCAT_DIGITS_MAX, CORNER_K_MAX, DIGITS_MAX, DomainError, \
    new_params

WeightNode = Union[float, Fraction, tuple]
SetNode = Union[bool, tuple]

# The deepest tree a construction builds: DIGITS_MAX outer digits, then
# CONCAT_DIGITS_MAX inner digits, then a corner pair of depth CORNER_K_MAX + 1,
# plus one level to spare.
DEFAULT_MAX_DEPTH = DIGITS_MAX + CONCAT_DIGITS_MAX + CORNER_K_MAX + 2


class _TooDeep(ValueError):
    """A tree nested past the interpreter's recursion limit."""

    def __init__(self):
        super().__init__("tree too deep to walk")


def _tree_repr(t) -> str:
    """`DyadicWeight(n=4, depth=69, unique=75)`, from one fold."""
    memo: dict = {}
    try:
        depth = _height(t.tree, memo)
    except _TooDeep:
        return f"{type(t).__name__}(n={t.n}, too deep to walk)"
    return f"{type(t).__name__}(n={t.n}, depth={depth}, unique={len(memo)})"


# compare=False keeps the tree out of field-by-field comparisons, such as
# pytest's explanation of a failing `==`, which would walk it expanded.
@dataclass(frozen=True, eq=False)
class DyadicWeight:
    n: int              # children per internal node, n = 2^d
    tree: WeightNode = field(compare=False)

    __repr__ = _tree_repr


@dataclass(frozen=True, eq=False)
class DyadicSet:
    n: int
    tree: SetNode = field(compare=False)

    __repr__ = _tree_repr


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

    Every node is folded once per identity, memoized on id(node) in `memo`
    when given (callers share it between folds of one tree).  A node of over
    4 children that repeats one walks each distinct child once.  A tree
    deeper than the recursion limit raises _TooDeep, a ValueError.
    """
    if memo is None:
        memo = {}

    def walk(node):
        r = memo.get(id(node))
        if r is None:
            if _is_leaf(node):
                r = leaf(node)
            elif len(node) > 4 and any(map(is_, node, node[1:])):
                for c in dict(zip(map(id, node), node)).values():
                    walk(c)
                r = inner(list(map(memo.__getitem__, map(id, node))))
            else:
                r = inner(list(map(walk, node)))
            memo[id(node)] = r
        return r

    try:
        return walk(root)
    except RecursionError:      # the fold recurses once per tree level
        raise _TooDeep from None
    finally:
        del walk    # walk calls itself through this cell: free the memo now


def _mean(vals, n):
    """sum(vals) / n; a Fraction mean is one integer sum over the lcm L."""
    if {Fraction} <= set(map(type, vals)) <= {Fraction, int}:
        L = math.lcm(*{v.denominator for v in vals})
        return Fraction(sum([v.numerator * (L // v.denominator) for v in vals]), L * n)
    return sum(vals) / n    # left to right: float bits kept, int / int a float


def make_set_node(children) -> SetNode:
    """Internal set node, collapsed when all children agree (canonical form)."""
    children = tuple(children)
    if all(c is True for c in children):
        return True
    if all(c is False for c in children):
        return False
    return children


def _validate(root, n: int, max_depth: int, kind: str, check_leaf) -> None:
    # one fold to (height, leaf value or None); canonical form is checked on
    # every tree, since a checked weight leaf is never a bool and never collapses
    def inner(rs):
        if len(rs) != n:
            raise ValueError(f"internal node has {len(rs)} children, want {n}")
        if isinstance(make_set_node(r[1] for r in rs), bool):
            raise ValueError("internal set node with uniform children "
                             "(not canonical)")
        return 1 + max(r[0] for r in rs), None

    try:
        height = _fold(root, lambda v: (0, check_leaf(v)), inner)[0]
    except _TooDeep:
        raise ValueError(f"{kind} tree too deep to walk (max_depth={max_depth})") from None
    if height > max_depth:
        raise ValueError(f"{kind} tree deeper than {max_depth}")


def _check_weight_leaf(v):
    if v is True or not 0 < v < math.inf:       # False fails 0 < v
        raise ValueError(f"leaf value {v!r} is not finite and positive")
    return v


def _check_set_leaf(v) -> bool:
    if not isinstance(v, bool):
        raise ValueError(f"set leaf {v!r} is not a bool")
    return v


def validate_weight(w: DyadicWeight, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
    """Check fan-out, leaf positivity and the depth cap; raise ValueError."""
    _validate(w.tree, w.n, max_depth, "weight", _check_weight_leaf)


def validate_set(E: DyadicSet, max_depth: int = DEFAULT_MAX_DEPTH) -> None:
    """Check fan-out, canonical form and the depth cap; raise ValueError."""
    _validate(E.tree, E.n, max_depth, "set", _check_set_leaf)


def _height(node, memo=None) -> int:
    return _fold(node, lambda v: 0, lambda rs: 1 + max(rs), memo)


def tree_depth(w) -> int:
    return _height(w.tree)


# ---------------------------------------------------------------------------
# statistics

def _summary(node, n: int, memo=None):
    """(average, minimum, characteristic) of the cube at `node`, in one fold."""

    def inner(rs):
        avg = _mean([r[0] for r in rs], n)
        if len(rs) > 4 and any(map(is_, rs, rs[1:])):   # as in _fold
            rs = dict(zip(map(id, rs), rs)).values()
        _, mins, chars = zip(*rs)
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
                 lambda rs: _mean(rs, n), memo)


def measure(E: DyadicSet) -> Fraction:
    """Measure of the set, exact (always a dyadic rational)."""
    return _measure(E.tree, E.n)


def _weight_on_set(w: DyadicWeight, E: DyadicSet, summary_memo: dict, *memos):
    if w.n != E.n:
        raise ValueError("weight and set have different fan-out")
    measure_memo, memo = memos or ({}, {})     # the measure and w(E) memos

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
            r = memo[key] = _mean(list(map(walk, wn, en)), w.n)
        return r

    try:
        return walk(w.tree, E.tree)
    except RecursionError:
        raise _TooDeep from None
    finally:
        del walk    # as in _fold


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

    try:
        return DyadicWeight(w.n, walk(w.tree, _summary(w.tree, w.n, summary_memo)[0]))
    except RecursionError:
        raise _TooDeep from None
    finally:
        del walk    # as in _fold


def value_distribution(w: DyadicWeight) -> dict:
    """Map leaf value -> total measure carried by leaves of that value."""

    def inner(rs):
        r: dict = {}
        dists = dict(zip(map(id, rs), rs))      # each distinct child once
        for key, count in Counter(map(id, rs)).items():
            for v, mu in dists[key].items():
                r[v] = r.get(v, Fraction(0)) + mu * Fraction(count, w.n)
        return r

    return _fold(w.tree, lambda v: {v: Fraction(1)}, inner)


def stats(w: DyadicWeight, E: DyadicSet, known=()) -> WeightStats:
    """Statistics bundle of a weight/set pair.  `known` holds (weight, set,
    stats) of pairs whose trees this one shares: their roots are lookups."""
    summary = {id(v.tree): (s.y, s.m, s.char) for v, _, s in known}
    measures = {id(F.tree): s.x for _, F, s in known}
    on_set = {(id(v.tree), id(F.tree)): s.value for v, F, s in known}
    y, m, char = _summary(w.tree, w.n, summary)
    return WeightStats(x=_measure(E.tree, E.n, measures), y=y, m=m, char=char,
                       value=_weight_on_set(w, E, summary, measures, on_set))


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
# Each distinct leaf object has one leaf doc, shared by all its positions.
# Decoding is the one walk over a loaded tree and makes every check that
# validate_* make; it gives equal leaves one object, and every node its
# height as it decodes, so a ref meets the depth cap in one comparison.

def _tree_to_json(root, leaf_doc):
    parents: dict[int, int] = {}        # internal nodes only
    stack = [] if _is_leaf(root) else [root]
    while stack:
        node = stack.pop()
        parents[id(node)] = parents.get(id(node), 0) + 1
        if parents[id(node)] == 1:
            stack += [c for c in node if not _is_leaf(c)]
    ids, leaves = {}, {}    # internal node -> its id; leaf -> its one doc

    def walk(node):
        if _is_leaf(node):
            return leaves.get(id(node)) or leaves.setdefault(id(node), leaf_doc(node))
        ref = ids.get(id(node))
        if ref is not None:
            return {"ref": ref}
        doc = {}
        if parents[id(node)] > 1:
            doc["id"] = ids[id(node)] = len(ids)
        doc["children"] = [walk(c) for c in node]
        return doc

    try:
        return walk(root)
    except RecursionError:
        raise _TooDeep from None
    finally:
        del walk    # as in _fold


def _tree_from_json(doc, n: int, kind: str, leaf_key: str, leaf, make_node,
                    max_depth: int):
    defs, leaves = {}, {}   # id -> (node, height); value -> (one leaf, 0)

    def walk(doc, depth):   # -> (node, height)
        if leaf_key in doc or "ref" in doc:
            if "children" in doc:
                raise ValueError(f"{kind} node has children and a {leaf_key} or ref")
            if leaf_key in doc:
                v = leaf(doc[leaf_key])
                return leaves.setdefault(v, (v, 0))
            r = defs.get(doc["ref"])
            if r is None:
                raise ValueError(f"ref {doc['ref']} precedes its definition")
            if depth + r[1] > max_depth:
                raise ValueError(f"{kind} tree deeper than {max_depth}")
            return r
        if depth >= max_depth:      # stop before the recursion goes deeper
            raise ValueError(f"{kind} tree deeper than {max_depth}")
        children = doc["children"]
        if len(children) != n:
            raise ValueError(f"{kind} node has {len(children)} children, want {n}")
        nodes, heights = zip(*[walk(c, depth + 1) for c in children])
        node = make_node(nodes)
        r = node, 0 if _is_leaf(node) else 1 + max(heights)
        if "id" in doc and defs.setdefault(doc["id"], r) is not r:
            raise ValueError(f"{kind} id {doc['id']} defined twice")
        return r

    try:
        return walk(doc, 0)[0]
    finally:
        del walk    # as in _fold


def _number(v) -> float:
    if type(v) not in (float, int):     # refuses bool, str and the rest
        raise ValueError(f"weight leaf {v!r} is not a JSON number")
    return _check_weight_leaf(float(v))


def _set_leaf(marker) -> bool:
    if marker not in ("full", "empty"):
        raise ValueError(f"bad set marker {marker!r}")
    return marker == "full"


def pair_to_json(Q: float, d: int, w: DyadicWeight, E: DyadicSet) -> dict:
    try:
        weight = _tree_to_json(w.tree, lambda v: {"leaf": float(v)})
    except OverflowError:
        raise DomainError("a weight leaf overflows a float") from None
    return {
        "Q": Q,
        "d": d,
        "weight": weight,
        "set": _tree_to_json(
            E.tree, lambda v: {"set": "full" if v else "empty"}),
    }


def pair_from_json(doc: dict, max_depth: int = DEFAULT_MAX_DEPTH):
    """Parse {"Q", "d", "weight", "set"}, checking each tree as it decodes.

    (Q, d) must pass new_params.  Every malformed document raises ValueError.
    """
    try:
        p = new_params(doc["Q"], doc["d"])
        w = DyadicWeight(p.N, _tree_from_json(
            doc["weight"], p.N, "weight", "leaf", _number, tuple, max_depth))
        E = DyadicSet(p.N, _tree_from_json(
            doc["set"], p.N, "set", "set", _set_leaf, make_set_node, max_depth))
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed pair document: {exc!r}") from None
    except (RecursionError, _TooDeep):  # the walks recurse once per level
        raise ValueError(f"pair tree too deep to walk (max_depth={max_depth})") from None
    return p.Q, p.d, w, E
