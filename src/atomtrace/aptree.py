"""Binary decision tree mapping a header to its atom in one root-to-leaf walk.

Internal nodes test network predicates; leaves hold exactly one atom id.
A build grows the nodes, and an update never touches them: it records each
split of an atom as a graft, an internal node testing the splitting
predicate over the two children's leaves, in a store that the build's
versions share and only append to.  A version continues at a leaf's graft
only when the leaf's atom is no longer live in it.  So trees are immutable,
and readers can keep classifying against a published version while a
writer prepares the next one.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Union

from . import atoms as atoms_mod
from .atoms import AtomSet
from .bdd import Engine, Header, LengthMismatch, Predicate


class Inconsistent(RuntimeError):
    """Reachable atoms cannot be separated by the remaining predicates."""


@dataclass(frozen=True, slots=True)
class Leaf:
    atom: int


@dataclass(frozen=True, slots=True)
class Internal:
    pred: Predicate
    true_child: "Node"
    false_child: "Node"


Node = Union[Leaf, Internal]

GREEDY = "greedy"
DECLARED = "order"
RANDOM = "random"


@dataclass(frozen=True)
class APTree:
    root: Node
    atom_set: AtomSet
    depth_sum: int  # sum of leaf depths (one leaf per atom), for the drift check
    # shared by the build's versions, which only append to them:
    leaf_depths: dict[int, int]  # {atom id: depth} of every leaf they have had
    grafts: dict[int, tuple[Internal, ...]]  # {atom id: one split per branch}
    version: int = 0
    structural_updates: int = 0
    strategy: str = GREEDY
    seed: int = 0

    @property
    def engine(self) -> Engine:
        return self.atom_set.engine

    @property
    def sources(self) -> tuple[Predicate, ...]:
        """The live predicates, in refinement order: the atom set's sources."""
        return self.atom_set.sources

    def graft(self, atom: int) -> Optional[Internal]:
        """This version's split of an atom it has had; None while the atom
        is live here.  The store lists one split per branch that made one,
        and only this version's own has an inside child it was born with."""
        grafts = self.grafts.get(atom)
        if grafts is None or self.atom_set.live >> atom & 1:
            return None
        if len(grafts) == 1:
            return grafts[0]
        born = self.atom_set.born
        return next(g for g in grafts if born >> g.true_child.atom & 1)


def build(
    atom_set: AtomSet,
    strategy: str = GREEDY,
    seed: int = 0,
    version: int = 0,
) -> APTree:
    """Construct a pruned tree over the atom partition; the candidates are
    the atom set's sources, tried in their order.

    At each node only predicates that split the reachable atom set are
    candidates (the rest can never matter below this point, which is what
    prunes empty subtrees).  The greedy strategy picks the candidate
    maximizing the smaller side of the split; ties go to the earlier
    predicate.
    """
    engine, preds = atom_set.engine, atom_set.sources
    candidates = [(i, atom_set.member_bits(p)) for i, p in enumerate(preds)]
    if strategy == RANDOM:
        rng = random.Random(seed)
        rng.shuffle(candidates)
    elif strategy not in (GREEDY, DECLARED):
        raise ValueError(f"unknown strategy {strategy!r}")

    leaf_depths: dict[int, int] = {}

    def grow(reach: int, cands: list, depth: int) -> Node:
        if not reach & (reach - 1):
            atom = reach.bit_length() - 1
            leaf_depths[atom] = depth
            return Leaf(atom)
        size = reach.bit_count()
        best = None
        remaining = []
        for idx, members in cands:
            t = reach & members
            if not t or t == reach:
                continue  # cannot split here or below; prune
            remaining.append((idx, members))
            if strategy == GREEDY:
                k = t.bit_count()
                score = min(k, size - k)
                if best is None or score > best[0]:
                    best = (score, idx, members, t)
            elif best is None:
                best = (0, idx, members, t)
        if best is None:
            raise Inconsistent(f"{size} atoms but no splitting predicate")
        _, idx, members, t = best
        rest = [c for c in remaining if c[0] != idx]
        return Internal(
            preds[idx],
            grow(t, rest, depth + 1),
            grow(reach & ~members, rest, depth + 1),
        )

    root = grow(atom_set.member_bits(engine.true_), candidates, 0)
    return APTree(
        root=root,
        atom_set=atom_set,
        depth_sum=sum(leaf_depths.values()),
        leaf_depths=leaf_depths,
        grafts={},
        version=version,
        strategy=strategy,
        seed=seed,
    )


def classify(tree: APTree, h: Header) -> int:
    """Walk the tree evaluating node predicates on the header bits; a leaf
    whose atom the version has split continues at the version's graft."""
    engine = tree.engine
    bits = h.bits
    if len(bits) != engine.width:
        raise LengthMismatch(f"header has {len(bits)} bits, layout {engine.width}")
    var, lo, hi = engine._var, engine._lo, engine._hi
    grafts = tree.grafts
    node = tree.root
    while True:
        if type(node) is Leaf:
            atom = node.atom
            if atom not in grafts or (node := tree.graft(atom)) is None:
                return atom
        n = node.pred.node
        while n > 1:
            n = hi[n] if bits[var[n]] else lo[n]
        node = node.true_child if n else node.false_child


def leaves(tree: APTree) -> list[tuple[int, int]]:
    """(atom_id, depth) for every leaf, a split atom's leaf read as the
    version's graft in its place."""
    out = []
    stack = [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        if type(node) is Leaf:
            if (graft := tree.graft(node.atom)) is None:
                out.append((node.atom, d))
                continue
            node = graft
        stack.append((node.true_child, d + 1))
        stack.append((node.false_child, d + 1))
    return out


def avg_leaf_depth(tree: APTree) -> Fraction:
    ls = leaves(tree)
    return Fraction(sum(d for _, d in ls), len(ls))


def max_depth(tree: APTree) -> int:
    return max(d for _, d in leaves(tree))


def add_predicate(tree: APTree, p: Predicate) -> APTree:
    """Refine straddled leaves at the bottom of the tree.

    A leaf whose atom is split by p reads, in the new version, as an
    internal node testing p with two fresh leaves; all other leaves are
    untouched.  Adding a predicate that is already refined by the
    partition changes no structure.

    atoms.refine finds the split atoms through the atom index, and each
    split is recorded as a graft of its atom, so no path is walked or
    copied, and the only BDD work is refine's.
    """
    if p.node in (0, 1):
        raise ValueError("cannot add a constant predicate")
    atom_set, splits = atoms_mod.refine(tree.atom_set, p)
    depth_sum, depths, grafts = tree.depth_sum, tree.leaf_depths, tree.grafts
    for a, (inside, outside) in splits.items():
        d = depths[a]
        depths[inside] = depths[outside] = d + 1
        grafts[a] = grafts.get(a, ()) + (Internal(p, Leaf(inside), Leaf(outside)),)
        depth_sum += d + 2  # one leaf at depth d becomes two at d+1
    return APTree(
        tree.root, atom_set, depth_sum, depths, grafts, tree.version,
        tree.structural_updates + 1, tree.strategy, tree.seed,
    )


def remove_predicate(tree: APTree, p: Predicate) -> APTree:
    """Drop p from the live sources; the structure keeps classifying correctly
    because every cell is still contained in one atom of the remaining set.
    Raises UnknownPredicate when p is not live."""
    return APTree(
        tree.root, atoms_mod.drop_source(tree.atom_set, p),
        tree.depth_sum, tree.leaf_depths, tree.grafts, tree.version,
        tree.structural_updates + 1, tree.strategy, tree.seed,
    )


def rebuild(tree: APTree) -> APTree:
    """Recompute the atoms of the live predicates with compute_atoms and grow
    a fresh tree over them, with fresh grafts and leaf depths.  Neither an
    update nor a rebuild adds op-cache entries."""
    return build(
        atoms_mod.compute_atoms(tree.engine, tree.sources),
        strategy=tree.strategy,
        seed=tree.seed,
        version=tree.version + 1,
    )


# a rebuild is due when the mean leaf depth passes this multiple of its
# value after the last build
DEPTH_RATIO = 1.5


def _mean_depth(tree: APTree) -> float:
    """avg_leaf_depth from the carried sum, without walking the leaves."""
    return tree.depth_sum / len(tree.atom_set)


class PublishedClassifier:
    """Epoch-swapped tree: many readers, one writer.

    Readers grab the current tree with .tree and classify against it; the
    reference never mutates.  Updates are serialized through a lock and
    publish a new tree atomically.  A rebuild is triggered after enough
    structural updates ("count") or when the average depth drifts past
    DEPTH_RATIO times its value after the last build ("depth"); .rebuilds
    records each rebuild's trigger, the number of updates applied before
    it, and its service time.
    """

    def __init__(self, tree: APTree, rebuild_after: int = 256):
        self._lock = threading.Lock()
        self._tree = tree
        self.rebuild_after = rebuild_after
        self._baseline_depth = _mean_depth(tree)
        self.updates = 0
        self.rebuilds: list[dict] = []

    @property
    def tree(self) -> APTree:
        return self._tree

    @property
    def rebuild_count(self) -> int:
        return len(self.rebuilds)

    def add(self, p: Predicate) -> APTree:
        with self._lock:
            self._tree = self._maybe_rebuild(add_predicate(self._tree, p))
            return self._tree

    def remove(self, p: Predicate) -> APTree:
        with self._lock:
            self._tree = self._maybe_rebuild(remove_predicate(self._tree, p))
            return self._tree

    def rebuild(self) -> APTree:
        with self._lock:
            self._tree = self._rebuild(self._tree, "manual")
            return self._tree

    def _maybe_rebuild(self, t: APTree) -> APTree:
        self.updates += 1
        if t.structural_updates >= self.rebuild_after:
            return self._rebuild(t, "count")
        if len(t.atom_set) > 1 and _mean_depth(t) > self._baseline_depth * DEPTH_RATIO:
            return self._rebuild(t, "depth")
        return t

    def _rebuild(self, t: APTree, trigger: str) -> APTree:
        start = time.perf_counter()
        t = rebuild(t)
        ms = (time.perf_counter() - start) * 1000.0
        self._baseline_depth = _mean_depth(t)
        self.rebuilds.append({"trigger": trigger, "update": self.updates, "ms": ms})
        return t
