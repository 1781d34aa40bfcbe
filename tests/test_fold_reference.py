"""The tree statistics against the folds they replaced, bit for bit.

`ref_summary`, `ref_measure`, `ref_weight_on_set` and
`ref_value_distribution` are the statistics written the direct way: a
memoized fold that walks every child position and sums a node's children
left to right with `sum(...) / n`, one Fraction addition at a time.
`dyadic` takes a Fraction mean as one integer sum over the lcm of the
denominators and folds each distinct child of a wide node once; every
value must come out equal, of the same type and, for floats, with the same
bits.
"""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from a1embed import (
    DyadicSet,
    DyadicWeight,
    build_corner,
    build_extremizer,
    new_params,
    pair_from_json,
    pair_to_json,
)
from a1embed import dyadic


def ref_fold(root, leaf, inner, memo=None):
    if memo is None:
        memo = {}

    def walk(node):
        r = memo.get(id(node))
        if r is None:
            r = memo[id(node)] = (leaf(node) if not isinstance(node, tuple)
                                  else inner([walk(c) for c in node]))
        return r

    return walk(root)


def ref_summary(node, n, memo=None):
    def inner(rs):
        avgs, mins, chars = zip(*rs)
        avg = sum(avgs) / n
        mn = min(mins)
        return avg, mn, max(avg / mn, *chars)

    return ref_fold(node, lambda v: (v, v, v / v), inner, memo)


def ref_measure(node, n, memo=None):
    return ref_fold(node, lambda v: Fraction(1 if v else 0),
                    lambda rs: sum(rs) / n, memo)


def ref_weight_on_set(w, E, summary_memo):
    memo = {}
    measure_memo = {}

    def walk(wn, en):
        if en is False:
            return 0
        if en is True:
            return ref_summary(wn, w.n, summary_memo)[0]
        if not isinstance(wn, tuple):
            return wn * ref_measure(en, E.n, measure_memo)
        key = (id(wn), id(en))
        r = memo.get(key)
        if r is None:
            r = memo[key] = sum(walk(wc, ec) for wc, ec in zip(wn, en)) / w.n
        return r

    return walk(w.tree, E.tree)


def ref_value_distribution(w):
    def inner(rs):
        r = {}
        for dist in rs:
            for v, mu in dist.items():
                r[v] = r.get(v, Fraction(0)) + mu / w.n
        return r

    return ref_fold(w.tree, lambda v: {v: Fraction(1)}, inner)


def same(a, b):
    """Equal, of one type, and bit for bit when a float."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return a.hex() == b.hex()
    if isinstance(a, tuple):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict):
        return same(tuple(a), tuple(b)) and same(tuple(a.values()),
                                                 tuple(b.values()))
    return a == b


# A failing check prints both statistics.  It may name a DyadicWeight or
# DyadicSet too, whose repr is one fold (n, depth, unique nodes); a bare
# `.tree` tuple would still print every expanded path.
def check(got, want):
    assert same(got, want), (got, want)


def assert_weight_matches(w):
    check(dyadic._summary(w.tree, w.n), ref_summary(w.tree, w.n))
    check(dyadic.value_distribution(w), ref_value_distribution(w))


def assert_pair_matches(w, E):
    assert_weight_matches(w)
    check(dyadic._measure(E.tree, E.n), ref_measure(E.tree, E.n))
    check(dyadic._weight_on_set(w, E, {}), ref_weight_on_set(w, E, {}))
    # stats shares one summary memo between the summary and w(E)
    memo = {}
    want = (ref_measure(E.tree, E.n), *ref_summary(w.tree, w.n, memo),
            ref_weight_on_set(w, E, memo))
    st_ = dyadic.stats(w, E)
    check((st_.x, st_.y, st_.m, st_.char, st_.value), want)


def reload(Q, d, pair):
    doc = json.loads(json.dumps(pair_to_json(Q, d, pair.w, pair.E)))
    _, _, w, E = pair_from_json(doc, 128)
    return w, E


def test_same_is_strict():
    assert not same(1.0, Fraction(1))
    assert not same(2, 2.0)
    assert not same(0.1 + 0.2, 0.3)
    assert not same({1: Fraction(1), 2: Fraction(1)},
                    {2: Fraction(1), 1: Fraction(1)})
    assert same((1.5, Fraction(1, 3)), (1.5, Fraction(2, 6)))


@pytest.mark.parametrize("d", range(1, 11))
def test_exact_corners(d):
    p = new_params(10.0, d)
    for k in range(9):
        pair = build_corner(p, k, exact=True)
        assert_pair_matches(pair.w, pair.E)


@pytest.mark.parametrize("d,k", [(1, 8), (2, 8), (10, 8)])
def test_float_corners_and_reloads(d, k):
    pair = build_corner(new_params(10.0, d), k)
    assert_pair_matches(pair.w, pair.E)
    assert_pair_matches(*reload(10.0, d, build_corner(new_params(10.0, d), k,
                                                      exact=True)))


@pytest.mark.parametrize("Q,d,x,y,depth", [
    (10.0, 2, 0.3, 8.0, 12),
    (10.0, 2, 0.7, 3.0, 20),
    (10.0, 2, 0.05, 9.5, 32),
    (2.0, 1, 0.4, 1.3, 12),
    (5.0, 3, 0.2, 2.5, 8),
])
def test_extremizers_and_reloads(Q, d, x, y, depth):
    p = new_params(Q, d)
    for exact in (False, True):
        pair = build_extremizer(p, x, y, depth, exact=exact)
        assert_pair_matches(pair.w, pair.E)
        assert_pair_matches(*reload(Q, d, pair))


def test_int_leaves():
    # int leaves keep int / int division: every mean is a float
    cases = [
        DyadicWeight(2, (1, 2)),
        DyadicWeight(4, (3, (1, 2, 3, 4), 5, (2, 2, 2, 2))),
        DyadicWeight(8, (9,) + (1,) * 7),
        DyadicWeight(8, ((7,) + (1,) * 7,) + (1,) * 7),
        DyadicWeight(4, (Fraction(1, 3), 2, Fraction(5, 7), 1)),
    ]
    sets = [True, (True, False), (False,) * 3 + (True,), (True,) + (False,) * 7]
    for w in cases:
        assert_weight_matches(w)
        for e in sets:
            if isinstance(e, bool) or len(e) == w.n:
                assert_pair_matches(w, DyadicSet(w.n, e))


def test_value_distribution_key_order():
    # keys come in first-occurrence order across a node's positions, also
    # when a repeated child carries keys that an earlier child also has
    a, b, c = 2.0, Fraction(3), 5.0
    sub = (c, a, c, a)
    for tree in [(a, b, a, c), (sub, b, sub, a), (b,) + (sub,) * 6 + (a,),
                 (1.0, Fraction(1), 1, 2.0)]:
        w = DyadicWeight(len(tree), tree)
        got, want = dyadic.value_distribution(w), ref_value_distribution(w)
        check(got, want)
        assert list(got) == list(want)


# Weight and set trees that reuse subtrees and leaf objects: every new node
# draws its children from all the nodes built so far, either at random or
# as one child followed by a run of another (a construction's padding).
@st.composite
def shared_pairs(draw):
    n = draw(st.sampled_from([2, 4, 8, 16]))
    kind = draw(st.sampled_from(["float", "fraction", "int", "mixed", "ties"]))
    floats = st.floats(min_value=0.125, max_value=64.0)
    fractions = st.fractions(min_value=Fraction(1, 8), max_value=64,
                             max_denominator=12)
    ints = st.integers(1, 64)
    leaves = {"float": floats, "fraction": fractions, "int": ints,
              "mixed": st.one_of(floats, fractions, ints),
              # equal values of different types: min and max must keep
              # the first extreme object, so its type
              "ties": st.sampled_from([1, 2, 1.0, 2.0, 1.5, Fraction(1),
                                       Fraction(2), Fraction(3, 2)])}[kind]

    def grow(pool):
        for _ in range(draw(st.integers(1, 4))):
            kids = [draw(st.sampled_from(pool)) for _ in range(n)]
            if draw(st.booleans()):
                kids = kids[:1] + kids[1:2] * (n - 1)
            pool.append(tuple(kids))
        return pool[-1]

    w = grow(draw(st.lists(leaves, min_size=1, max_size=4)))
    E = grow([True, False])
    return DyadicWeight(n, w), DyadicSet(n, E)


@settings(max_examples=200, deadline=None)
@given(shared_pairs())
def test_random_shared_trees(pair):
    w, E = pair
    assert_pair_matches(w, E)


def test_ties_keep_the_first_extreme_object():
    # min over a node's children keeps the first smallest object, and with
    # it the type, also when the node walks each distinct child once
    f2, two = 2.0, Fraction(2)
    for n in (4, 8):
        for first, pad in ((two, f2), (f2, two), (2, two)):
            w = DyadicWeight(n, (first,) + (pad,) * (n - 1))
            got = dyadic._summary(w.tree, n)
            check(got, ref_summary(w.tree, n))
            assert got[1] is first
            nested = DyadicWeight(n, ((first,) * n,) + ((pad,) * n,) * (n - 1))
            check(dyadic._summary(nested.tree, n), ref_summary(nested.tree, n))


def test_mixed_float_and_fraction_children_sum_left_to_right():
    # 1e16 + 1 rounds back to 1e16 (a tie, to even), so the left-to-right
    # sum stays 1e16; the n-1 ones added first, or as one (n-1) * 1, give
    # 1e16 + 3 or 1e16 + 7, which round up to 1e16 + 4 or 1e16 + 8
    one = Fraction(1)
    for n in (4, 8):
        kids = (1e16,) + (one,) * (n - 1)
        left_to_right = 0
        for v in kids:
            left_to_right += v
        regrouped = float(sum(kids[1:]) + Fraction(1e16))
        assert left_to_right != regrouped
        w = DyadicWeight(n, kids)
        avg = dyadic.average(w)
        assert type(avg) is float
        assert avg.hex() == (left_to_right / n).hex()
        assert avg != regrouped / n
        assert dyadic.weight_on_set(w, DyadicSet(n, True)) == avg
        check(dyadic._summary(w.tree, n), ref_summary(w.tree, n))


def test_all_int_children_give_a_float_mean():
    for w in [DyadicWeight(4, (2, 2, 2, 2)), DyadicWeight(4, (1, 2, 3, 4)),
              DyadicWeight(8, (10,) + (2,) * 7)]:
        avg = dyadic.average(w)
        assert type(avg) is float
        assert avg == math.fsum(w.tree) / w.n
        assert type(dyadic.weight_on_set(w, DyadicSet(w.n, True))) is float
    # an empty child is the int 0 too: all-empty sets still divide to 0.0
    w = DyadicWeight(4, (Fraction(1), 2, 3, 4))
    got = dyadic.weight_on_set(w, DyadicSet(4, (False,) * 4))
    assert type(got) is float and got == 0.0
