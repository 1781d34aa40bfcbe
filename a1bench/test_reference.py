"""Tests of the exact reference against values the paper fixes.

Run with:  python3 -m pytest a1bench/test_reference.py
"""

from fractions import Fraction

import pytest

from reference import Ref, fold, mpf, nest, node_counts, recover

CASES = [(2, 1), (3, 1), (10, 2), (5, 3), (Fraction(7, 2), 4)]


@pytest.mark.parametrize("Q,d", CASES)
def test_profile_at_nodes_is_q_eta_k(Q, d):
    r = Ref(Q, d)
    for k in range(0, 25):
        x = Fraction(1, r.N**k)
        assert r.interval(x) == k
        assert r.f(x) == r.Q * r.eta**k
        # the smooth majorant touches the profile exactly at the nodes
        assert abs(r.smooth(x) - mpf(r.f(x))) <= r.smooth(x) * mpf(10) ** -40


@pytest.mark.parametrize("Q,d", CASES)
def test_interval_index_by_exact_comparison(Q, d):
    r = Ref(Q, d)
    for k in range(0, 20):
        node = Fraction(1, r.N**k)
        assert r.interval(node) == k
        assert r.interval(node - Fraction(1, 10**40)) == k
        assert r.interval(node / r.N + Fraction(1, 10**40)) == k


@pytest.mark.parametrize("Q,d", CASES)
def test_profile_below_smooth_majorant(Q, d):
    r = Ref(Q, d)
    for i in range(1, 400):
        x = Fraction(i, 401) ** 3
        assert mpf(r.f(x)) <= r.smooth(x)


@pytest.mark.parametrize("Q,d", CASES)
def test_M_is_Qx_on_the_dividing_line(Q, d):
    r = Ref(Q, d)
    for i in range(0, 101):
        x = Fraction(i, 100)
        y = 1 + (r.Q - 1) * x
        assert r.M(x, y) == r.Q * x
        assert r.describe(x, y) == "lower branch (y <= 1 + (Q-1)x)"


@pytest.mark.parametrize("Q,d", CASES)
def test_wedges_dominate_M(Q, d):
    r = Ref(Q, d)
    for k in range(0, 6):
        for i in range(0, 21):
            for j in range(0, 21):
                x = Fraction(i, 20)
                y = 1 + (r.Q - 1) * Fraction(j, 20)
                assert r.wedge(k, x, y) >= r.M(x, y)


def test_corner_values_at_q2_d1():
    r = Ref(2, 1)
    assert r.corner_value(1) == Fraction(3, 2)
    assert r.corner_value(2) == Fraction(9, 8)
    for k, want in [(0, Fraction(2)), (1, Fraction(3, 2)), (2, Fraction(9, 8))]:
        w, e = r.corner_tree(k)
        x, y, m, char, value = fold(w, e, r.N)
        assert (x, y, m, value) == (Fraction(1, 2**k), 2, 1, want)
        assert char <= 2
        assert value == r.M(x, y)


@pytest.mark.parametrize("Q,d", CASES)
def test_corner_pairs_attain_the_bound(Q, d):
    r = Ref(Q, d)
    for k in range(0, 6):
        w, e = r.corner_tree(k)
        x, y, m, char, value = fold(w, e, r.N)
        assert x == Fraction(1, r.N**k) and y == r.Q and m == 1
        assert char <= r.Q
        assert value == r.corner_value(k) == r.B(x, y, m)
        # the same weight with only its heaviest leaf in the set reaches
        # the next corner, N^-(k+1) with value Q eta^(k+1)
        assert fold(w, _heaviest_leaf_set(k, r.N), r.N)[4] == r.corner_value(k + 1)
        assert max(r.corner_grid_values(k + 1)) == r.step**k * r.heavy


def _heaviest_leaf_set(k, n):
    # the heavy leaf is the last child at depth k + 1 under the first children
    e = (False,) * (n - 1) + (True,)
    for _ in range(k):
        e = (e,) + (False,) * (n - 1)
    return e


def test_fold_of_shared_tree_and_node_counts():
    leaf = (Fraction(1), Fraction(3))
    shared = (leaf, leaf)
    w = (shared, shared)
    x, y, m, char, value = fold(w, ((True, False), False), 2)
    assert (x, y, m, char) == (Fraction(1, 4), 2, 1, 2)
    assert value == Fraction(1, 2)
    assert node_counts(w) == (3, 7)


def test_enumeration_small_case():
    r = Ref(2, 1)
    b = r.enumerate_buckets(1, [1, 3])
    # (1, 3): average 2, char 2/1 = Q; the heavier leaf alone carries 3/2
    assert b[(Fraction(1, 2), Fraction(2))] == Fraction(3, 2)
    assert b[(Fraction(1), Fraction(2))] == Fraction(2)
    assert b[(Fraction(1, 2), Fraction(1))] == Fraction(1, 2)
    for (x, y), v in b.items():
        assert v <= r.B(x, y, 1)


def test_nest_and_recover():
    assert nest([1, 2, 3, 4], 2) == ((1, 2), (3, 4))
    assert recover(0.1) == Fraction(1, 10)
    assert recover(float(Fraction(1369, 100))) == Fraction(1369, 100)
    with pytest.raises(ValueError):
        recover(3.141592653589793, 100)
