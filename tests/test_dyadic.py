"""Tree weights and sets: aggregates, maximal function, characteristic, JSON."""

import gc
import json
import math
import random
import re
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from a1embed import (
    DyadicSet,
    DyadicWeight,
    ExtremalPair,
    WeightStats,
    a1_characteristic,
    average,
    boundary_weight,
    build_corner,
    build_extremizer,
    complement,
    ess_inf,
    maximal_function,
    measure,
    new_params,
    pair_from_json,
    pair_to_json,
    stats,
    value_distribution,
    weight_on_set,
)
from a1embed import dyadic
from a1embed.dyadic import (
    DEFAULT_MAX_DEPTH,
    as_fraction_weight,
    make_set_node,
    scale_weight,
    tree_depth,
    validate_set,
    validate_weight,
)
from a1embed.params import CONCAT_DIGITS_MAX, CORNER_K_MAX, DIGITS_MAX


def random_weight_node(rng, n, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.uniform(0.2, 5.0)
    return tuple(random_weight_node(rng, n, depth - 1) for _ in range(n))


def random_set_node(rng, n, depth):
    if depth == 0 or rng.random() < 0.4:
        return rng.random() < 0.5
    return make_set_node(random_set_node(rng, n, depth - 1) for _ in range(n))


def test_average_examples():
    w = DyadicWeight(4, (1.0, 1.0, 1.0, 13.0))
    assert average(w) == 4.0
    w37 = DyadicWeight(4, (1.0, 1.0, 1.0, 37.0))
    assert average(w37) == 10.0
    assert average(DyadicWeight(4, 1.0)) == 1.0


def test_ess_inf_and_maximal():
    w = DyadicWeight(4, (1.0, 1.0, 1.0, 37.0))
    assert ess_inf(w) == 1.0
    mx = maximal_function(w)
    assert mx.tree == (10.0, 10.0, 10.0, 37.0)
    assert a1_characteristic(w) == 10.0


def test_characteristic_one_heavy_child(p102):
    # children (1,...,1, 1+N(y-1)) has characteristic exactly y for y in (1,Q]
    for y in (2.0, 7.0, 10.0):
        w = boundary_weight(p102, y).w
        assert a1_characteristic(w) == pytest.approx(y, rel=1e-14)
        st = stats(w, DyadicSet(4, True))
        assert st.x == 1
        assert st.y == pytest.approx(y, rel=1e-14)
        assert st.m == 1.0
        assert st.value == pytest.approx(y, rel=1e-14)


def test_measure_is_exact():
    E = DyadicSet(2, (True, (False, True)))
    assert measure(E) == Fraction(3, 4)
    assert isinstance(measure(E), Fraction)
    assert measure(DyadicSet(2, True)) == 1
    assert measure(complement(E)) == Fraction(1, 4)


def test_set_canonical_form():
    assert make_set_node([True, True, True, True]) is True
    assert make_set_node([False, False]) is False
    node = make_set_node([True, False])
    assert node == (True, False)


def test_weight_on_set_constant():
    rng = random.Random(3)
    for _ in range(20):
        E = DyadicSet(4, random_set_node(rng, 4, 3))
        w = DyadicWeight(4, 2.5)
        assert weight_on_set(w, E) == pytest.approx(2.5 * float(measure(E)), rel=1e-14)


def test_weight_on_set_full_is_average():
    rng = random.Random(4)
    for _ in range(20):
        w = DyadicWeight(2, random_weight_node(rng, 2, 4))
        assert weight_on_set(w, DyadicSet(2, True)) == pytest.approx(
            average(w), rel=1e-12
        )


def test_complement_partition():
    rng = random.Random(7)
    for _ in range(100):
        w = DyadicWeight(4, random_weight_node(rng, 4, 3))
        E = DyadicSet(4, random_set_node(rng, 4, 3))
        total = weight_on_set(w, E) + weight_on_set(w, complement(E))
        assert total == pytest.approx(average(w), abs=1e-12 * max(1.0, average(w)))


def test_maximal_dominates(p102):
    rng = random.Random(9)
    for _ in range(50):
        w = DyadicWeight(4, random_weight_node(rng, 4, 3))
        avg = average(w)
        pairs = []

        def walk(wn, mn):
            if isinstance(wn, tuple):
                for a, b in zip(wn, mn):
                    walk(a, b)
            else:
                pairs.append((wn, mn))

        walk(w.tree, maximal_function(w).tree)
        for leaf, mx in pairs:
            assert mx >= leaf - 1e-12
            assert mx >= avg - 1e-12


def test_refinement_invariance():
    # splitting a leaf into N equal children changes no statistic
    rng = random.Random(21)
    for _ in range(100):
        n = rng.choice([2, 4])
        w = DyadicWeight(n, random_weight_node(rng, n, 3))
        E = DyadicSet(n, random_set_node(rng, n, 3))

        def refine_first(node):
            if isinstance(node, tuple):
                return (refine_first(node[0]),) + node[1:]
            return (node,) * n

        w2 = DyadicWeight(n, refine_first(w.tree))
        a, b = stats(w, E), stats(w2, E)
        assert a.x == b.x
        assert a.y == pytest.approx(b.y, rel=1e-13)
        assert a.m == b.m
        assert a.char == pytest.approx(b.char, rel=1e-13)
        assert a.value == pytest.approx(b.value, abs=1e-12 * max(1.0, a.value))


def test_value_distribution_total():
    rng = random.Random(13)
    w = DyadicWeight(4, random_weight_node(rng, 4, 3))
    dist = value_distribution(w)
    assert sum(dist.values()) == 1
    assert all(isinstance(v, Fraction) for v in dist.values())


def test_corner_pair_walk(p102):
    pair = build_corner(p102, 1, exact=True)
    st = stats(pair.w, pair.E)
    assert st.x == Fraction(1, 4)
    assert st.value == Fraction(37, 4)
    assert float(st.value) == 9.25


def test_validation_errors():
    with pytest.raises(ValueError):
        validate_weight(DyadicWeight(4, (1.0, 1.0, 1.0)))
    with pytest.raises(ValueError):
        validate_weight(DyadicWeight(2, (1.0, -1.0)))
    for leaf in (math.inf, math.nan, True):
        with pytest.raises(ValueError, match="not finite and positive"):
            validate_weight(DyadicWeight(2, (1.0, leaf)))
    deep = 1.0
    for _ in range(5):
        deep = (deep, deep)
    with pytest.raises(ValueError):
        validate_weight(DyadicWeight(2, deep), max_depth=4)
    with pytest.raises(ValueError):
        validate_set(DyadicSet(2, (True, (False, True, True))))
    with pytest.raises(ValueError, match="zero leaf"):
        a1_characteristic(DyadicWeight(2, (0.0, 1.0)))


@pytest.mark.parametrize("uniform", [True, False])
def test_validate_set_refuses_a_set_node_with_uniform_children(uniform):
    # make_set_node collapses such a node to its leaf, so no tree built here
    # holds one; a tree from outside must not either
    with pytest.raises(ValueError, match=r"uniform children \(not canonical\)"):
        validate_set(DyadicSet(2, (not uniform, (uniform, uniform))))
    validate_set(DyadicSet(2, (not uniform, (uniform, not uniform))))


@pytest.mark.parametrize("leaf", [1, 0, 1.0, None, "True"])
def test_validate_set_refuses_a_leaf_that_is_not_a_bool(leaf):
    with pytest.raises(ValueError, match=f"set leaf {re.escape(repr(leaf))} "
                                         "is not a bool"):
        validate_set(DyadicSet(2, (True, (False, leaf))))


def test_weight_on_set_refuses_a_set_of_another_fan_out():
    # without the check the walk zips 2 children against 4 and returns a number
    E = DyadicSet(4, (True, False, False, False))
    for w in (DyadicWeight(2, 1.0), DyadicWeight(2, (1.0, 2.0))):
        with pytest.raises(ValueError, match="different fan-out"):
            weight_on_set(w, E)
        with pytest.raises(ValueError, match="different fan-out"):
            stats(w, E)


@pytest.mark.parametrize("c", [0, 0.0, -2.0, Fraction(-1, 2), math.nan])
def test_scale_weight_refuses_a_factor_that_is_not_positive(c):
    w = DyadicWeight(2, (1.0, (2.0, 3.0)))
    with pytest.raises(ValueError, match="scale factor must be positive"):
        scale_weight(w, c)


def test_validation_walks_shared_nodes_once(monkeypatch):
    # a ladder (b, (b, (b, ... 2.0))) reaches the shared chain b at every
    # depth 1..10; b's 64 leaf positions are one object, the ladder's foot
    # another, and each distinct leaf object is checked once
    b = 1.0
    for _ in range(6):
        b = (b, b)
    root = 2.0
    for _ in range(10):
        root = (b, root)
    w = DyadicWeight(2, root)
    leaves = []
    monkeypatch.setattr(dyadic, "_check_weight_leaf", leaves.append)
    validate_weight(w, max_depth=16)
    assert sorted(leaves) == [1.0, 2.0]
    assert len(set(map(id, leaves))) == 2
    with pytest.raises(ValueError, match="deeper than 15"):
        validate_weight(w, max_depth=15)


@pytest.mark.parametrize("max_depth", [2000, DEFAULT_MAX_DEPTH])
def test_validation_names_a_depth_past_the_recursion_limit(max_depth):
    # a 1500-deep chain: past the recursion limit, so the fold cannot
    # reach its foot, whether max_depth admits the chain or not
    t, E = 2.0, True
    for _ in range(1500):
        t, E = (t, 2.0), (E, False)
    for check, tree, kind in ((validate_weight, DyadicWeight(2, t), "weight"),
                              (validate_set, DyadicSet(2, E), "set")):
        with pytest.raises(ValueError, match=re.escape(
                f"{kind} tree too deep to walk (max_depth={max_depth})")):
            check(tree, max_depth=max_depth)


def _chain(depth):
    t, E = 2.0, True
    for _ in range(depth):
        t, E = (t, 2.0), (E, False)
    return DyadicWeight(2, t), DyadicSet(2, E)


DEEP_WALKS = {
    "average": lambda w, E: average(w),
    "ess_inf": lambda w, E: ess_inf(w),
    "a1_characteristic": lambda w, E: a1_characteristic(w),
    "tree_depth": lambda w, E: tree_depth(w),
    "measure": lambda w, E: measure(E),
    "value_distribution": lambda w, E: value_distribution(w),
    "scale_weight": lambda w, E: scale_weight(w, 2),
    "as_fraction_weight": lambda w, E: as_fraction_weight(w),
    "complement": lambda w, E: complement(E),
    "stats": lambda w, E: stats(w, E),
    "weight_on_set": lambda w, E: weight_on_set(w, E),
    "maximal_function": lambda w, E: maximal_function(w),
    "pair_to_json": lambda w, E: pair_to_json(2.0, 1, w, E),
}


@pytest.mark.parametrize("name", DEEP_WALKS)
def test_walks_name_a_tree_past_the_recursion_limit(name):
    # a 1500-deep chain: each bottom-up fold and top-down walk raised a bare
    # RecursionError; the repr, one fold, must still give a string
    w, E = _chain(1500)
    with pytest.raises(ValueError, match="^tree too deep to walk$"):
        DEEP_WALKS[name](w, E)
    assert (repr(w), repr(E)) == ("DyadicWeight(n=2, too deep to walk)",
                                  "DyadicSet(n=2, too deep to walk)")


def test_fold_visits_each_leaf_object_once():
    # the N-1 padding leaves of every push-down level are one shared object,
    # summarized once; scaling keeps them shared, so a corner at d=10 has
    # k+2 distinct leaves (k pads, the boundary pad and the heavy leaf)
    p = new_params(10.0, 10)
    for k in (0, 1, 4):
        w = build_corner(p, k, exact=True).w
        calls = []
        dyadic._fold(w.tree, lambda v: calls.append(v) or v, tuple)
        distinct = set()

        def walk(node):
            if isinstance(node, tuple):
                for c in node:
                    walk(c)
            else:
                distinct.add(id(node))

        walk(w.tree)
        assert len(calls) == len(distinct) == k + 2


def test_walkers_leave_no_reference_cycles():
    # a nested walker calls itself through its closure cell; left set, that
    # cycle keeps the walk's memos alive until the cyclic GC runs
    pair = build_extremizer(new_params(10, 2), 0.3, 8.0, 32, exact=True)
    w, E = pair.w, pair.E
    doc = pair_to_json(10, 2, w, E)
    walkers = {
        "stats": lambda: stats(w, E),
        "maximal_function": lambda: maximal_function(w),
        "tree_depth": lambda: tree_depth(w),
        "validate_weight": lambda: validate_weight(w),
        "validate_set": lambda: validate_set(E),
        "weight_on_set": lambda: weight_on_set(w, E),
        "measure": lambda: measure(E),
        "average": lambda: average(w),
        "ess_inf": lambda: ess_inf(w),
        "a1_characteristic": lambda: a1_characteristic(w),
        "value_distribution": lambda: value_distribution(w),
        "pair_to_json": lambda: pair_to_json(10, 2, w, E),
        "pair_from_json": lambda: pair_from_json(doc),
    }
    gc.collect()
    gc.disable()
    try:
        left = {}
        for name, walk in walkers.items():
            walk()
            left[name] = gc.collect()
    finally:
        gc.enable()
    assert left == dict.fromkeys(walkers, 0)


def test_tree_depth():
    assert tree_depth(DyadicWeight(2, 1.0)) == 0
    assert tree_depth(DyadicWeight(2, (1.0, (2.0, 3.0)))) == 2


def test_fraction_conversion_exact(p102):
    w = as_fraction_weight(boundary_weight(p102, 10.0).w)
    assert average(w) == Fraction(10)
    assert a1_characteristic(w) == Fraction(10)


def test_json_round_trip_plain():
    rng = random.Random(17)
    for _ in range(25):
        n = rng.choice([2, 4])
        w = DyadicWeight(n, random_weight_node(rng, n, 3))
        E = DyadicSet(n, random_set_node(rng, n, 3))
        d = 1 if n == 2 else 2
        doc = pair_to_json(3.0, d, w, E)
        blob = json.dumps(doc, sort_keys=True)
        Q2, d2, w2, E2 = pair_from_json(json.loads(blob))
        assert (Q2, d2) == (3.0, d)
        assert json.dumps(pair_to_json(Q2, d2, w2, E2), sort_keys=True) == blob


def test_json_plain_trees_have_no_ref_tags(p102):
    doc = pair_to_json(10.0, 2, boundary_weight(p102, 7.0).w, DyadicSet(4, True))
    blob = json.dumps(doc)
    assert '"id"' not in blob and '"ref"' not in blob
    assert doc["weight"] == {"children": [{"leaf": 1.0}] * 3 + [{"leaf": 25.0}]}
    assert doc["set"] == {"set": "full"}


def test_json_shared_subtrees_round_trip(p102):
    # concatenation trees share their continuation nodes; the encoding must
    # stay linear in distinct nodes and restore the sharing on load
    pair = build_extremizer(p102, 0.3, 8.0, depth=16)
    doc = pair_to_json(10.0, 2, pair.w, pair.E)
    blob = json.dumps(doc, sort_keys=True)
    assert len(blob) < 100_000
    assert '"ref"' in blob
    Q2, d2, w2, E2 = pair_from_json(json.loads(blob), max_depth=80)
    st = stats(w2, E2)
    assert st.x == stats(pair.w, pair.E).x
    assert st.value == pytest.approx(pair.achieved.value, abs=1e-12)
    assert json.dumps(pair_to_json(Q2, d2, w2, E2), sort_keys=True) == blob


def test_json_malformed_documents():
    with pytest.raises(ValueError):
        pair_from_json({"Q": 2.0, "d": 1, "weight": {"children": [{"leaf": 1.0}]},
                        "set": {"set": "full"}})
    with pytest.raises(ValueError):
        pair_from_json({"Q": 2.0, "d": 1, "weight": {"leaf": 1.0},
                        "set": {"set": "half"}})
    # a ref may only follow its definition
    bad = {"Q": 2.0, "d": 1,
           "weight": {"children": [{"ref": 0},
                                   {"id": 0, "children": [{"leaf": 1.0},
                                                          {"leaf": 2.0}]}]},
           "set": {"set": "full"}}
    with pytest.raises(ValueError):
        pair_from_json(bad)


def _nested(depth):
    doc = {"leaf": 1.0}
    for _ in range(depth):
        doc = {"children": [doc, {"leaf": 1.0}]}
    return doc


GOOD_DOC = {"Q": 2.0, "d": 1, "weight": {"leaf": 1.0}, "set": {"set": "full"}}


MALFORMED = [
    {"set": None},                                      # no "set" key
    {"weight": {"children": 5}},
    {"weight": {"children": [[{"leaf": 1.0}], {"leaf": 1.0}]}},
    {"weight": [{"leaf": 1.0}, {"leaf": 1.0}]},
    {"weight": _nested(600)},                           # past the recursion limit
    {"d": 40},                                          # above D_MAX
    {"d": 0},
    # each of these reloaded, the first two with characteristic inf
    {"weight": json.loads('{"leaf": Infinity}')},
    {"weight": {"leaf": "inf"}},
    {"weight": {"leaf": "1.5"}},
    {"weight": {"leaf": True}},
    {"Q": True},
    {"weight": {"leaf": 10**400}},                      # OverflowError in float()
    {"weight": {"children": [{"leaf": 1.0}, {"leaf": -2.0}]}},
    {"weight": {"children": [{"leaf": 0}, {"leaf": 1.0}]}},
    {"weight": {"leaf": json.loads("NaN")}},
]
MALFORMED_IDS = [
    "missing-set", "children-not-a-list", "list-for-a-child",
    "list-for-the-root", "600-deep", "d-40", "d-0", "leaf-Infinity",
    "leaf-string-inf", "leaf-string-number", "leaf-true", "Q-true",
    "leaf-huge-int", "leaf-negative", "leaf-zero", "leaf-NaN"]


@pytest.mark.parametrize("change", MALFORMED, ids=MALFORMED_IDS)
def test_json_malformed_documents_raise_value_error(change):
    assert pair_from_json(dict(GOOD_DOC))[0] == 2.0
    doc = {k: v for k, v in {**GOOD_DOC, **change}.items() if v is not None}
    with pytest.raises(ValueError):
        pair_from_json(doc)


def _ambiguous(shape, leaf, other, key):
    """A tree whose decoding would otherwise drop part of the document."""
    defn = {"id": 0, "children": [leaf, other]}
    if shape == "duplicate-id":         # the later definition would win
        return {"children": [defn, {"id": 0, "children": [other, leaf]}]}
    if shape == "ref-and-children":     # the children would be ignored
        return {"children": [defn, {"ref": 0, "children": [other, leaf]}]}
    # a leaf (or set marker) with children would read as a leaf
    return {"children": [{key: leaf[key], "children": [leaf, other]}, other]}


AMBIGUOUS_SHAPES = ["duplicate-id", "ref-and-children", "leaf-and-children"]


@pytest.mark.parametrize("shape", AMBIGUOUS_SHAPES)
@pytest.mark.parametrize("kind", ["weight", "set"])
def test_json_decoder_refuses_an_ambiguous_node(kind, shape):
    leaf, other, key = (({"leaf": 1.0}, {"leaf": 2.0}, "leaf") if kind == "weight"
                        else ({"set": "full"}, {"set": "empty"}, "set"))
    # the same tree without the ambiguity loads
    clean = {"children": [{"id": 0, "children": [leaf, other]}, {"ref": 0}]}
    pair_from_json(dict(GOOD_DOC, **{kind: clean}))
    with pytest.raises(ValueError, match=kind):
        pair_from_json(dict(GOOD_DOC, **{kind: _ambiguous(shape, leaf, other,
                                                          key)}))


def test_json_decoder_stops_at_the_depth_cap():
    # the cap is applied as the decoder descends, with validate_*'s meaning:
    # a leaf may sit at depth max_depth, an internal node may not
    doc = dict(GOOD_DOC, weight=_nested(5))
    pair_from_json(doc, max_depth=5)
    with pytest.raises(ValueError, match="deeper than 4"):
        pair_from_json(doc, max_depth=4)


def _ref_past_defn(leaf, other):
    """A tree of depth 7 whose only path to depth 7 runs through a ref.

    A height-2 subtree is defined at depth 1 and referenced again at depth 5;
    every node is non-uniform, so a set tree keeps its shape.
    """
    node = {"ref": 0}
    for _ in range(4):
        node = {"children": [node, leaf]}
    defn = {"id": 0, "children": [{"children": [leaf, other]}, other]}
    return {"children": [defn, node]}


REF_PAST_DEFN = {
    "weight": dict(GOOD_DOC, weight=_ref_past_defn({"leaf": 1.0}, {"leaf": 2.0})),
    "set": dict(GOOD_DOC, set=_ref_past_defn({"set": "full"}, {"set": "empty"})),
}


@pytest.mark.parametrize("kind", sorted(REF_PAST_DEFN))
def test_json_decoder_caps_the_depth_a_ref_reaches(kind):
    # the ref at depth 5 places its height-2 subtree at depths 5..7
    _, _, w, E = pair_from_json(REF_PAST_DEFN[kind], max_depth=7)
    assert tree_depth(w if kind == "weight" else E) == 7
    with pytest.raises(ValueError, match=f"{kind} tree deeper than 6"):
        pair_from_json(REF_PAST_DEFN[kind], max_depth=6)


def test_json_decoder_makes_one_walk_per_tree(p102, monkeypatch):
    # the decode walk does every check; validate_* are for in-memory trees
    def refuse(*args):
        raise AssertionError("pair_from_json re-walked a decoded tree")

    pair = build_extremizer(p102, 0.3, 8.0, depth=16)
    doc = json.loads(json.dumps(pair_to_json(10.0, 2, pair.w, pair.E)))
    monkeypatch.setattr(dyadic, "validate_weight", refuse)
    monkeypatch.setattr(dyadic, "validate_set", refuse)
    _, _, w, E = pair_from_json(doc)
    assert stats(w, E) == stats(pair.w, pair.E)
    for change in MALFORMED:
        doc = {k: v for k, v in {**GOOD_DOC, **change}.items() if v is not None}
        with pytest.raises(ValueError):
            pair_from_json(doc)
    for doc in REF_PAST_DEFN.values():
        with pytest.raises(ValueError, match="deeper than 6"):
            pair_from_json(doc, max_depth=6)


BAD_LEAVES = [-1.0, 0, 0.0, math.inf, -math.inf, math.nan, True, False, "1.0",
              None, [1.0], 10**400]
BAD_MARKERS = ["half", "Full", True, None, 1]


@st.composite
def pair_documents(draw):
    """Pair documents, some well formed and some broken in every known way.

    A clean document has only good leaves, markers and fan-outs, and refs
    only to defined ids, so it fails at most on the depth cap.  Ids are
    registered as the decoder registers them, after their children.
    """
    d = draw(st.integers(1, 2))
    n = 2 ** d
    clean = draw(st.booleans())
    budget = [40]

    def leaf(kind):
        if not clean and draw(st.integers(0, 4)) == 0:
            if draw(st.booleans()):
                return {}                               # neither leaf nor children
            bad = BAD_LEAVES if kind == "weight" else BAD_MARKERS
            return {("leaf" if kind == "weight" else "set"): draw(st.sampled_from(bad))}
        if kind == "weight":
            return {"leaf": draw(st.one_of(st.floats(0.125, 64.0),
                                           st.integers(1, 5)))}
        return {"set": draw(st.sampled_from(["full", "empty"]))}

    def node(kind, depth, defined):
        pick = draw(st.integers(0, 5))
        if pick == 0:
            # a ref past len(defined) - 1 comes before its definition, or has none
            top = len(defined) - 1 + (0 if clean else 2 * draw(st.booleans()))
            if top >= 0:
                return {"ref": draw(st.integers(0, top))}
        if depth >= 8 or budget[0] <= 0 or pick < 3:
            return leaf(kind)
        fan = n
        if not clean and draw(st.integers(0, 5)) == 0:
            fan = draw(st.sampled_from([0, 1, n - 1, n + 1]))
        budget[0] -= fan
        doc = {"children": [node(kind, depth + 1, defined) for _ in range(fan)]}
        if draw(st.booleans()):
            doc["id"] = len(defined)
            defined.append(doc["id"])
        return doc

    return {"Q": draw(st.sampled_from([2.0, 10.0])), "d": d,
            "weight": node("weight", 0, []), "set": node("set", 0, [])}


@settings(max_examples=200, deadline=None)
@given(pair_documents(), st.integers(1, 12))
def test_json_decoder_refuses_or_loads_a_valid_pair(doc, max_depth):
    try:
        _, _, w, E = pair_from_json(doc, max_depth)
    except ValueError:
        return
    validate_weight(w, max_depth)
    validate_set(E, max_depth)


def test_json_decoder_names_a_depth_past_the_recursion_limit():
    # max_depth admits the tree, the recursive walks cannot follow it
    doc = dict(GOOD_DOC, weight=_nested(1500))
    with pytest.raises(ValueError, match="too deep .*max_depth=2000"):
        pair_from_json(doc, max_depth=2000)


def unique_nodes(tree) -> int:
    seen = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple) and id(node) not in seen:
            seen.add(id(node))
            stack.extend(node)
    return len(seen)


def unique_objects(tree) -> int:
    """Distinct node objects of a tree, leaves included."""
    seen = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            if isinstance(node, tuple):
                stack.extend(node)
    return len(seen)


def test_fraction_conversion_keeps_sharing(p102):
    # expanded, the depth-32 pair has about 1e20 leaves: the conversion must
    # follow the sharing, not copy it out (depth 4 first, which a copying
    # conversion still finishes, and fails on the node count)
    for depth, exact in ((4, False), (32, False), (32, True)):
        pair = build_extremizer(p102, 0.3, 8.0, depth, exact=exact)
        w = as_fraction_weight(pair.w)
        assert unique_nodes(w.tree) == unique_nodes(pair.w.tree)
        a, b = stats(pair.w, pair.E), stats(w, pair.E)
        if exact:
            assert a == b
        else:
            assert (a.x, a.m) == (b.x, b.m)
            for f in ("y", "char", "value"):
                assert getattr(a, f) == pytest.approx(getattr(b, f), rel=1e-14)


@pytest.mark.parametrize("make", [
    lambda: build_corner(new_params(10.0, 2), 32),
    lambda: build_extremizer(new_params(10.0, 2), 0.3, 8.0, 32),
    lambda: build_extremizer(new_params(1.0001, 1), 2**-20 * 0.5, 1.00005, 32),
    lambda: build_extremizer(new_params(1.0001, 1), 2**-30.9 * 0.1, 1.00001, 32),
], ids=["corner-k32", "d2-depth32", "Q1.0001-depth93", "Q1.0001-depth104"])
def test_default_depth_cap_reloads_every_construction(make):
    assert DEFAULT_MAX_DEPTH == DIGITS_MAX + CONCAT_DIGITS_MAX + CORNER_K_MAX + 2
    pair = make()
    assert tree_depth(pair.w) <= DEFAULT_MAX_DEPTH
    doc = json.loads(json.dumps(pair_to_json(10.0, pair.w.n.bit_length() - 1,
                                             pair.w, pair.E)))
    _, _, w, E = pair_from_json(doc)
    assert tree_depth(w) == tree_depth(pair.w)
    assert stats(w, E) == stats(pair.w, pair.E)


def _seconds(op) -> float:
    t = perf_counter()
    op()
    return perf_counter() - t


def test_trees_and_pairs_compare_by_identity():
    # expanded, the depth-32 pair has about 1e22 nodes: hash, == and repr must
    # not walk it, and neither may the message of a failing assert naming it
    pair = build_extremizer(new_params(10.0, 2), 0.3, 8.0, 32)
    doc = json.loads(json.dumps(pair_to_json(10.0, 2, pair.w, pair.E)))
    _, _, w, E = pair_from_json(doc)
    reload = ExtremalPair(w, E, stats(w, E))
    for a, b in ((pair, reload), (pair.w, w), (pair.E, E)):
        for op in (lambda: hash(a), lambda: a == b, lambda: repr(a)):
            assert _seconds(op) < 0.1
        assert a == a and a != b and b != a
    assert reload.achieved == pair.achieved == stats(pair.w, pair.E)
    for t in (pair.w, pair.E, w, E):
        r = repr(t)
        assert len(r) < 200
        m = re.fullmatch(r"(\w+)\(n=(\d+), depth=(\d+), unique=(\d+)\)", r)
        assert m, r
        assert m.groups() == (type(t).__name__, "4", str(tree_depth(t)),
                              str(unique_objects(t.tree)))
    assert repr(pair) == (f"ExtremalPair(w={pair.w!r}, E={pair.E!r}, "
                          f"achieved={pair.achieved!r})")
    for a, b in ((reload, pair), (w, pair.w), (E, pair.E)):
        t = perf_counter()
        with pytest.raises(AssertionError) as err:
            assert a == b
        assert perf_counter() - t < 1
        assert f"== {type(b).__name__}(" in str(err.value)
        assert len(str(err.value)) < 1000


# Small weight trees with shared subtrees: every new node draws its children
# from all the nodes built so far, so one object may sit under many parents.
@st.composite
def shared_weight_trees(draw):
    n = draw(st.sampled_from([2, 4]))
    if draw(st.booleans()):
        leaves = st.fractions(min_value=Fraction(1, 8), max_value=64,
                              max_denominator=12)
    else:
        leaves = st.floats(min_value=0.125, max_value=64.0)
    pool = draw(st.lists(leaves, min_size=1, max_size=5))
    for _ in range(draw(st.integers(1, 6))):
        pool.append(tuple(draw(st.sampled_from(pool)) for _ in range(n)))
    return DyadicWeight(n, pool[-1])


def naive_leaves(node, n, running=None):
    """(leaf, maximal function at the leaf) pairs, with no memo at all."""
    avg = naive_average(node, n)
    running = avg if running is None else max(running, avg)
    if not isinstance(node, tuple):
        return [(node, running)]
    return [pair for c in node for pair in naive_leaves(c, n, running)]


def naive_average(node, n):
    if not isinstance(node, tuple):
        return node
    return sum(naive_average(c, n) for c in node) / n


def naive_value(wn, en, n):
    if en is False:
        return 0
    if en is True:
        return naive_average(wn, n)
    if not isinstance(wn, tuple):
        return wn * measure(DyadicSet(n, en))
    return sum(naive_value(a, b, n) for a, b in zip(wn, en)) / n


@settings(max_examples=200, deadline=None)
@given(shared_weight_trees(), st.integers(0, 2**32 - 1))
def test_characteristic_and_stats_match_their_definitions(w, seed):
    # the characteristic is the largest ratio (maximal function)/(weight)
    # over the leaves; the tree fold must give it bit for bit
    mx = []

    def zip_leaves(a, b):
        if isinstance(a, tuple):
            for x, y in zip(a, b):
                zip_leaves(x, y)
        else:
            mx.append(b / a)

    zip_leaves(w.tree, maximal_function(w).tree)
    assert a1_characteristic(w) == max(mx)

    E = DyadicSet(w.n, random_set_node(random.Random(seed), w.n, 3))
    leaves = naive_leaves(w.tree, w.n)
    assert stats(w, E) == WeightStats(
        x=measure(E),
        y=naive_average(w.tree, w.n),
        m=min(v for v, _ in leaves),
        char=max(mxv / v for v, mxv in leaves),
        value=naive_value(w.tree, E.tree, w.n))
