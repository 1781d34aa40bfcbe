"""The pair JSON codec against the walks it replaced, byte for byte.

`ref_tree_to_json` and `ref_tree_from_json` are the writer and reader as
they were before each walk visited a distinct node once: the writer made a
new leaf doc at every leaf position, and the reader gave every position
its own leaf object and found the height of each ref's node with a fold.
`dyadic` now writes one leaf doc per distinct leaf object, decodes equal
leaf values to one object, and computes each node's height as it decodes.
The documents must serialize to the same bytes, through `json.dumps` and
through the CLI's `_json_text`, and read back to the same trees, whose
statistics must be equal, of the same type and, for floats, of the same bits.
"""

import json

import pytest

from a1embed import build_corner, build_extremizer, cli, dyadic, new_params


def ref_height(node, memo):
    r = memo.get(id(node))
    if r is None:
        r = memo[id(node)] = (0 if not isinstance(node, tuple)
                              else 1 + max(ref_height(c, memo) for c in node))
    return r


def ref_tree_to_json(root, leaf_doc):
    parents = {}
    stack = [root]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            continue
        parents[id(node)] = parents.get(id(node), 0) + 1
        if parents[id(node)] == 1:
            stack.extend(node)
    ids = {}

    def walk(node):
        if not isinstance(node, tuple):
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


def ref_tree_from_json(doc, n, kind, leaf_key, leaf, make_node, max_depth):
    defs = {}
    heights = {}

    def walk(doc, depth):
        if leaf_key in doc:
            return leaf(doc[leaf_key])
        if "ref" in doc:
            node = defs.get(doc["ref"])
            if node is None:
                raise ValueError(f"ref {doc['ref']} precedes its definition")
            if depth + ref_height(node, heights) > max_depth:
                raise ValueError(f"{kind} tree deeper than {max_depth}")
            return node
        if depth >= max_depth:
            raise ValueError(f"{kind} tree deeper than {max_depth}")
        children = doc["children"]
        if len(children) != n:
            raise ValueError(f"{kind} node has {len(children)} children, want {n}")
        node = make_node(walk(c, depth + 1) for c in children)
        if "id" in doc:
            defs[doc["id"]] = node
        return node

    return walk(doc, 0)


def ref_pair_to_json(Q, d, w, E):
    return {"Q": Q, "d": d,
            "weight": ref_tree_to_json(w.tree, lambda v: {"leaf": float(v)}),
            "set": ref_tree_to_json(
                E.tree, lambda v: {"set": "full" if v else "empty"})}


def ref_pair_from_json(doc, max_depth):
    p = new_params(doc["Q"], doc["d"])
    w = dyadic.DyadicWeight(p.N, ref_tree_from_json(
        doc["weight"], p.N, "weight", "leaf", dyadic._number, tuple, max_depth))
    E = dyadic.DyadicSet(p.N, ref_tree_from_json(
        doc["set"], p.N, "set", "set", dyadic._set_leaf, dyadic.make_set_node,
        max_depth))
    return p.Q, p.d, w, E


def nodes(tree):
    """(distinct internal nodes, distinct leaf objects) of a tree."""
    inner, leaves, stack = {}, {}, [tree]
    while stack:
        node = stack.pop()
        if not isinstance(node, tuple):
            leaves[id(node)] = node
        elif id(node) not in inner:
            inner[id(node)] = node
            stack.extend(node)
    return inner, leaves


def same_tree(a, b):
    """Equal shape, and leaves of one type and, for floats, the same bits."""
    seen = set()

    def walk(x, y):
        if (id(x), id(y)) in seen:
            return True
        if isinstance(x, tuple):
            ok = (isinstance(y, tuple) and len(x) == len(y)
                  and all(map(walk, x, y)))
        else:
            ok = type(x) is type(y) and (x.hex() == y.hex()
                                         if isinstance(x, float) else x == y)
        seen.add((id(x), id(y)))
        return ok

    return walk(a, b)


def leaf_docs(doc):
    """The distinct leaf doc objects of a tree document, by id."""
    out, stack = {}, [doc]
    while stack:
        d = stack.pop()
        if "children" in d:
            stack.extend(d["children"])
        elif "ref" not in d:
            out[id(d)] = d
    return out


def assert_codec_matches(Q, d, w, E):
    doc = dyadic.pair_to_json(Q, d, w, E)
    want = ref_pair_to_json(Q, d, w, E)
    text = json.dumps(doc)
    assert text == json.dumps(want)
    assert cli._json_text(doc) == cli._json_text(want)
    # one leaf doc per distinct leaf object, in each tree
    for tree, key in ((w.tree, "weight"), (E.tree, "set")):
        assert len(leaf_docs(doc[key])) == len(nodes(tree)[1])
    # the same trees and statistics from both readers
    _, _, w1, E1 = dyadic.pair_from_json(json.loads(text), 128)
    _, _, w0, E0 = ref_pair_from_json(json.loads(text), 128)
    assert same_tree(w1.tree, w0.tree) and same_tree(E1.tree, E0.tree)
    assert repr(dyadic.stats(w1, E1)) == repr(dyadic.stats(w0, E0))
    assert repr(dyadic.value_distribution(w1)) == \
        repr(dyadic.value_distribution(w0))
    # sharing of internal nodes is restored as before; equal leaves are one
    # object, so the reloaded leaves are as many as their distinct values
    for t1, t0 in ((w1.tree, w0.tree), (E1.tree, E0.tree)):
        (inner1, leaves1), (inner0, leaves0) = nodes(t1), nodes(t0)
        assert len(inner1) == len(inner0)
        assert len(leaves1) == len(set(leaves0.values()))
    # and the reloaded pair writes the same bytes again
    assert json.dumps(dyadic.pair_to_json(Q, d, w1, E1)) == text


@pytest.mark.parametrize("d", range(1, 11))
def test_corners(d):
    p = new_params(10.0, d)
    for k in (0, 1, 2, 5, 8):
        for exact in (False, True):
            pair = build_corner(p, k, exact=exact)
            assert_codec_matches(10.0, d, pair.w, pair.E)


@pytest.mark.parametrize("Q,d,x,y,depth", [
    (10.0, 2, 0.3, 8.0, 12),
    (10.0, 2, 0.7, 3.0, 20),
    (10.0, 2, 0.05, 9.5, 32),
    (10.0, 2, 0.01, 6.0, 32),
    (2.0, 1, 0.4, 1.3, 12),
    (5.0, 3, 0.2, 2.5, 8),
    (5.0, 3, 0.0, 2.5, 8),
])
def test_extremizers(Q, d, x, y, depth):
    p = new_params(Q, d)
    for exact in (False, True):
        pair = build_extremizer(p, x, y, depth, exact=exact)
        assert_codec_matches(Q, d, pair.w, pair.E)


def test_deep_corner():
    pair = build_corner(new_params(10.0, 2), 32, exact=True)
    assert_codec_matches(10.0, 2, pair.w, pair.E)
