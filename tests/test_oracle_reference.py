"""The oracle against a plain enumeration of every leaf assignment.

`reference_oracle` is the oracle written the direct way: every assignment
in `itertools.product(grid, repeat=N**depth)` order, folded into a tree,
kept when its minimum is 1 and its A1 characteristic (from `dyadic`) is at
most Q, and tabulated with the j heaviest leaves as the set (ties to the
lower index).  `brute_force_oracle` is a max-plus dynamic program over
subtree states instead; the two must agree on every bucket, witness and
output.
"""

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from a1embed import DyadicWeight, a1_characteristic, new_params, verify
from a1embed.verify import (
    OracleBucket,
    OracleTable,
    _nest,
    _pair,
    brute_force_oracle,
    default_value_grid,
    oracle_vs_closed_form,
)


def reference_oracle(p, depth, grid) -> OracleTable:
    grid = sorted({Fraction(v) for v in grid})
    leaves = p.N**depth
    Qf = Fraction(p.Q)
    h = (Qf - 1) / 20 if Qf > 1 else None
    L = Fraction(leaves)
    table = OracleTable(depth=depth, n=p.N, grid=tuple(grid))
    one = Fraction(1)
    for assignment in itertools.product(grid, repeat=leaves):
        if min(assignment) != one:
            continue
        w = DyadicWeight(p.N, _nest(assignment, p.N))
        if a1_characteristic(w) > Qf:
            continue
        y = sum(assignment) / L
        ylabel = one if h is None or y == 1 else 1 + math.ceil((y - 1) / h) * h
        order = sorted(range(leaves), key=lambda i: (-assignment[i], i))
        acc = Fraction(0)
        for j0, idx in enumerate(order):
            acc += assignment[idx]
            j = j0 + 1
            key = (Fraction(j, leaves), ylabel)
            val = acc / L
            cur = table.buckets.get(key)
            if cur is None or val > cur.value:
                table.buckets[key] = OracleBucket(val, assignment, j)
    return table


F = Fraction
CONFIGS = [
    # (Q, d, depth, grid: an int is default_value_grid's grid_size), size
    (2, 1, 2, 6, 8),
    (3, 1, 2, 6, 8),
    (2, 2, 1, 6, 6),
    (10, 2, 1, 6, 6),
    (3, 2, 1, 4, 4),
    (2, 1, 3, (F(1), F(3, 2), F(3)), 3),        # 1, N eta, 1 + N(Q-1)
    (1.5, 1, 3, (F(1), F(4, 3), F(2)), 3),
    (1, 1, 2, 6, 1),
    (1, 2, 2, 6, 1),
    (2, 1, 1, (F(1), F(3)), 2),
]


def assert_same_oracle(p, depth, grid):
    got = brute_force_oracle(p, depth, grid)
    want = reference_oracle(p, depth, grid)
    assert got.grid == want.grid
    assert list(got.buckets) == sorted(want.buckets)     # built in key order
    for key, b in want.buckets.items():
        assert got.buckets[key] == b            # value, witness leaves and j
    assert got.to_json() == want.to_json()
    assert got.to_csv() == want.to_csv()
    assert (oracle_vs_closed_form(got, p).to_json()
            == oracle_vs_closed_form(want, p).to_json())


@pytest.mark.parametrize("Q,d,depth,spec,size", CONFIGS,
                         ids=[f"Q{c[0]}-d{c[1]}-depth{c[2]}-grid{c[4]}"
                              for c in CONFIGS])
def test_oracle_matches_reference_enumeration(Q, d, depth, spec, size):
    p = new_params(Q, d)
    grid = (default_value_grid(p, depth, spec) if isinstance(spec, int)
            else list(spec))
    assert len(grid) == size
    assert_same_oracle(p, depth, grid)


# values on a coarse lattice, so equal sums, equal top-j sums and tied
# witnesses are common: the tie-break is what this exercises
@settings(max_examples=100, deadline=None)
@given(Q=st.sampled_from([1, 1.25, 1.5, 2, 2.5, 3, 4, 7, 10]),
       shape=st.sampled_from([(1, 1), (1, 2), (2, 1)]),
       rest=st.sets(st.fractions(min_value=1, max_value=8, max_denominator=4)
                    .filter(lambda v: v != 1), min_size=1, max_size=3))
def test_oracle_matches_reference_on_random_grids(Q, shape, rest):
    d, depth = shape
    assert_same_oracle(new_params(Q, d), depth, [F(1), *rest])


def uncut_pair(level, bound, floor, root):
    """`_pair` as a plain loop over every (left, right) pair of states: the
    joined state per j keeps the largest T, then the lex-smallest (left
    rank, right rank); returns state -> [(T, (left rank, right rank))]."""
    out = {}
    for (S, m), E in level.items():
        for (Sr, mr), Er in level.items():
            state = (S + Sr, min(m, mr))
            if (state[0] > bound * min(state[1], floor)
                    or root and state[1] != floor):
                continue
            acc = out.setdefault(state, {})
            for a, (t, r) in enumerate(E):
                for b, (tr, rr) in enumerate(Er):
                    acc[a + b] = max(acc.get(a + b, (-math.inf, ())),
                                     (t + tr, (-r, -rr)))
    return {state: [(t, (-r, -rr)) for t, (r, rr) in
                    (acc[j] for j in range(len(acc)))]
            for state, acc in out.items()}


def readable(joined, shift):
    """`_pair`'s output with each rank read back as its (left, right) pair:
    the joined rank is left * shift + right, the two tuples side by side."""
    return {state: [(t, divmod(r, shift)) for t, r in E]
            for state, E in joined.items()}


@st.composite
def levels(draw):
    """A level of (S, m) -> per j (T, rank) over `n` leaves, mins on D..4D,
    and ranks below `shift`."""
    D, n = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    shift = draw(st.integers(1, 6))
    keys = draw(st.sets(st.tuples(st.integers(1, 4), st.integers(0, 6)),
                        min_size=1, max_size=8))
    level = {}
    for a, extra in sorted(keys):
        m = a * D
        tops = sorted(draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
        level[m * n + extra, m] = [(0, draw(st.integers(0, shift - 1)))] + [
            (m * j + t, draw(st.integers(0, shift - 1)))
            for j, t in enumerate(tops, 1)]
    return level, D, shift


@settings(max_examples=300, deadline=None)
@given(lv=levels(), bound=st.fractions(min_value=1, max_value=12,
                                       max_denominator=3),
       floor=st.sampled_from(["inf", "D"]), root=st.booleans())
def test_pair_keeps_what_every_pair_keeps(lv, bound, floor, root):
    # the sorted walk and its stop must lose no state, entry or witness, and
    # the root keeps exactly the states of min `floor`
    level, D, shift = lv
    floor = D if floor == "D" or root else math.inf
    assert (readable(_pair(level, bound, floor, root, shift), shift)
            == uncut_pair(level, bound, floor, root))


@pytest.mark.parametrize("Q,d,depth,grid", [
    (2, 1, 2, None), (10, 2, 1, None), (3, 2, 2, (F(1), F(3, 2), F(3))),
    (2, 3, 1, (F(1), F(2))),
])
def test_only_the_last_halving_keeps_min_one(monkeypatch, Q, d, depth, grid):
    # every halving of a real run keeps what the all-pairs loop keeps, and
    # only the root's last halving drops the states whose min is not 1
    calls = []

    def spy(level, bound, floor, root, shift):
        joined = _pair(level, bound, floor, root, shift)
        assert readable(joined, shift) == uncut_pair(level, bound, floor, root)
        calls.append(root)
        return joined

    monkeypatch.setattr(verify, "_pair", spy)
    brute_force_oracle(new_params(Q, d), depth, grid)
    assert calls == [False] * (d * depth - 1) + [True]
