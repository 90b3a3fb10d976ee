import json
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

# perfbench/workloads.py holds the benchmark's snapshot recipes; the tests
# import them rather than keep copies
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

from atomtrace import Engine, HeaderLayout, aptree, atoms, parse_snapshot
from atomtrace.aptree import Internal, Leaf
from atomtrace.pipeline import build_pipeline

SMALL = HeaderLayout((("h", 4),))

# Two boxes: s1 filters 11** at its external port and routes 1*** onward,
# s2 routes 10** out its external port.  Three atoms: 10**, 11**, 0***.
TWO_BOX_DOC = {
    "layout": [{"name": "h", "width": 4}],
    "boxes": [
        {
            "id": "s1",
            "kind": "switch",
            "ports": ["ext", "p1"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 1}],
                    "action": {"forward": "p1"},
                }
            ],
            "acls": [
                {
                    "port": "ext",
                    "dir": "in",
                    "default": "permit",
                    "entries": [
                        {
                            "match": [
                                {"field": "h", "kind": "prefix", "value": 12, "length": 2}
                            ],
                            "verdict": "deny",
                        }
                    ],
                }
            ],
        },
        {
            "id": "s2",
            "kind": "switch",
            "ports": ["pin", "pext"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 2}],
                    "action": {"forward": "pext"},
                }
            ],
        },
    ],
    "links": [["s1", "p1", "s2", "pin"]],
}

# Two boxes throwing 1*** at each other forever.
LOOP_DOC = {
    "layout": [{"name": "h", "width": 4}],
    "boxes": [
        {
            "id": "l1",
            "kind": "switch",
            "ports": ["ext1", "a"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 1}],
                    "action": {"forward": "a"},
                }
            ],
        },
        {
            "id": "l2",
            "kind": "switch",
            "ports": ["ext2", "b"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 1}],
                    "action": {"forward": "b"},
                }
            ],
        },
    ],
    "links": [["l1", "a", "l2", "b"]],
}

# Rewriter chain: r1 forwards everything to s2, clearing the top bit of
# headers matching hi=1, lo=0xx; s2 delivers hi=0 traffic.
REWRITE_DOC = {
    "layout": [{"name": "hi", "width": 1}, {"name": "lo", "width": 3}],
    "boxes": [
        {
            "id": "r1",
            "kind": "rewriter",
            "ports": ["ext", "p1"],
            "rules": [{"priority": 1, "match": [], "action": {"forward": "p1"}}],
            "rewrite": {
                "match": [
                    {"field": "hi", "kind": "exact", "value": 1},
                    {"field": "lo", "kind": "prefix", "value": 0, "length": 1},
                ],
                "sets": [{"field": "hi", "value": 0}],
            },
        },
        {
            "id": "s2",
            "kind": "switch",
            "ports": ["pin", "pext"],
            "rules": [
                {
                    "priority": 1,
                    "match": [{"field": "hi", "kind": "exact", "value": 0}],
                    "action": {"forward": "pext"},
                }
            ],
        },
    ],
    "links": [["r1", "p1", "s2", "pin"]],
}


def live_nodes(engine, roots) -> set[int]:
    """The BDD nodes reachable from the root nodes."""
    seen, stack = set(), list(roots)
    while stack:
        n = stack.pop()
        if n not in seen:
            seen.add(n)
            if n > 1:
                stack += [engine._lo[n], engine._hi[n]]
    return seen


def match_nodes(snapshot, engine) -> list[int]:
    """The root nodes of every rule's and every ACL entry's match."""
    return [
        engine.match_all(x.match).node
        for box in snapshot.boxes
        for x in box.rules + tuple(e for acl in box.acls for e in acl.entries)
    ]


def doc_bytes(doc) -> bytes:
    return json.dumps(doc).encode()


@pytest.fixture
def small_engine():
    return Engine(SMALL)


@pytest.fixture
def two_box():
    return parse_snapshot(doc_bytes(TWO_BOX_DOC))


@pytest.fixture
def two_box_pipeline(two_box):
    return build_pipeline(two_box)


@pytest.fixture
def loop_pipeline():
    return build_pipeline(parse_snapshot(doc_bytes(LOOP_DOC)))


@pytest.fixture
def rewrite_pipeline():
    return build_pipeline(parse_snapshot(doc_bytes(REWRITE_DOC)))


# --- the path-copying tree: the reference for aptree's grafted updates ------


class PathCopiedTree(NamedTuple):
    """A classification tree whose adds copy the root-to-leaf path of every
    split leaf, so each version's nodes hold its whole partition."""

    root: aptree.Node
    atom_set: atoms.AtomSet
    depth_sum: int
    structural_updates: int = 0


def path_copied(tree: aptree.APTree) -> PathCopiedTree:
    """A freshly built tree as a reference tree, its depth sum read off its
    own leaves."""
    return PathCopiedTree(tree.root, tree.atom_set,
                          sum(d for _, d in reference_leaves(tree)))


def reference_index(store, engine, pairs) -> int:
    """The root, in store, of the atom index of (atom id, BDD node) pairs
    that partition the header space, by its own recursion over the atoms'
    BDDs: grow(vec) splits the atoms still possible -- vec holds their (id,
    cofactor) pairs -- at their lowest top variable and drops those that
    fall to false; one atom left covers the whole subcube.  The store is
    hash-consed, so an index equal to this one has the same root."""
    var, lo, hi = engine._var, engine._lo, engine._hi
    memo = {}

    def side(vec, v, child):
        out = []
        for a, n in vec:
            if var[n] == v:
                n = child[n]
            if n != 0:
                out.append((a, n))
        return tuple(out)

    def grow(vec):
        r = memo.get(vec)
        if r is None:
            if len(vec) == 1:
                r = store.leaf(vec[0][0])
            else:
                v = min(var[n] for _, n in vec)
                r = store.node(v, grow(side(vec, v, lo)), grow(side(vec, v, hi)))
            memo[vec] = r
        return r

    return grow(tuple(pairs))


def reference_classify(tree, h) -> int:
    """One walk from the root to the leaf whose tests the header passes."""
    engine = tree.atom_set.engine
    node = tree.root
    while isinstance(node, Internal):
        node = node.true_child if engine.eval(node.pred, h) else node.false_child
    return node.atom


def reference_leaves(tree) -> list[tuple[int, int]]:
    """(atom_id, depth) of every leaf node."""
    out, stack = [], [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, Leaf):
            out.append((node.atom, d))
        else:
            stack += [(node.true_child, d + 1), (node.false_child, d + 1)]
    return out


def path_copying_add(tree: PathCopiedTree, p) -> PathCopiedTree:
    """Refine the atoms by p and replace each split atom's leaf by a node
    testing p over its two children, copying only the paths that lead to
    a split leaf."""
    atom_set, splits = atoms.refine(tree.atom_set, p)
    depth_sum = tree.depth_sum

    def rewrite(node, depth):
        nonlocal depth_sum
        if isinstance(node, Leaf):
            if node.atom not in splits:
                return node
            depth_sum += depth + 2  # one leaf at depth d becomes two at d+1
            inside, outside = splits[node.atom]
            return Internal(p, Leaf(inside), Leaf(outside))
        t = rewrite(node.true_child, depth + 1)
        f = rewrite(node.false_child, depth + 1)
        if t is node.true_child and f is node.false_child:
            return node
        return Internal(node.pred, t, f)

    return PathCopiedTree(rewrite(tree.root, 0), atom_set, depth_sum,
                          tree.structural_updates + 1)


def path_copying_remove(tree: PathCopiedTree, p) -> PathCopiedTree:
    return tree._replace(atom_set=atoms.drop_source(tree.atom_set, p),
                         structural_updates=tree.structural_updates + 1)


class PathCopyingClassifier:
    """PublishedClassifier's update and rebuild rules over path-copied
    trees: a rebuild after rebuild_after structural updates ("count") or
    when the mean leaf depth passes DEPTH_RATIO times its value after the
    last build ("depth").  triggers lists (trigger, updates applied)."""

    def __init__(self, tree: aptree.APTree, rebuild_after: int):
        self.tree = path_copied(tree)
        self.rebuild_after = rebuild_after
        self.baseline = self.tree.depth_sum / len(self.tree.atom_set)
        self.updates = 0
        self.triggers: list[tuple[str, int]] = []

    def add(self, p) -> PathCopiedTree:
        return self._publish(path_copying_add(self.tree, p))

    def remove(self, p) -> PathCopiedTree:
        return self._publish(path_copying_remove(self.tree, p))

    def _publish(self, t: PathCopiedTree) -> PathCopiedTree:
        self.updates += 1
        n = len(t.atom_set)
        if t.structural_updates >= self.rebuild_after:
            trigger = "count"
        elif n > 1 and t.depth_sum / n > self.baseline * aptree.DEPTH_RATIO:
            trigger = "depth"
        else:
            trigger = None
        if trigger is not None:
            t = path_copied(aptree.build(
                atoms.compute_atoms(t.atom_set.engine, t.atom_set.sources)))
            self.baseline = t.depth_sum / len(t.atom_set)
            self.triggers.append((trigger, self.updates))
        self.tree = t
        return t
