"""Binary decision tree mapping a header to its atom in one root-to-leaf walk.

Internal nodes test network predicates; leaves hold exactly one atom id.
Trees are immutable: updates return a new tree sharing untouched subtrees,
so readers can keep classifying against a published version while a writer
prepares the next one.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Sequence, Union

from . import atoms as atoms_mod
from .atoms import AtomSet, UnknownPredicate
from .bdd import Engine, Header, LengthMismatch, Predicate


class Inconsistent(RuntimeError):
    """Reachable atoms cannot be separated by the remaining predicates."""


@dataclass(frozen=True)
class Leaf:
    atom: int


@dataclass(frozen=True)
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
    engine: Engine
    root: Node
    atom_set: AtomSet
    sources: tuple[Predicate, ...]  # live predicates, in refinement order
    removed: frozenset[int]  # handles removed since the last build
    depth_sum: int  # sum of leaf depths (one leaf per atom), for the drift check
    version: int = 0
    structural_updates: int = 0
    strategy: str = GREEDY
    seed: int = 0


def build(
    engine: Engine,
    atom_set: AtomSet,
    preds: Sequence[Predicate],
    strategy: str = GREEDY,
    seed: int = 0,
    version: int = 0,
) -> APTree:
    """Construct a pruned tree over the atom partition.

    At each node only predicates that split the reachable atom set are
    candidates (the rest can never matter below this point, which is what
    prunes empty subtrees).  The greedy strategy picks the candidate
    maximizing the smaller side of the split; ties go to the earlier
    predicate.
    """
    candidates = [(i, atom_set.members_of(p)) for i, p in enumerate(preds)]
    if strategy == RANDOM:
        rng = random.Random(seed)
        rng.shuffle(candidates)
    elif strategy not in (GREEDY, DECLARED):
        raise ValueError(f"unknown strategy {strategy!r}")

    depth_sum = 0

    def grow(reach: frozenset[int], cands: list, depth: int) -> Node:
        nonlocal depth_sum
        if len(reach) == 1:
            depth_sum += depth
            return Leaf(next(iter(reach)))
        best = None
        remaining = []
        for idx, members in cands:
            t = reach & members
            if not t or len(t) == len(reach):
                continue  # cannot split here or below; prune
            remaining.append((idx, members))
            if strategy == GREEDY:
                score = min(len(t), len(reach) - len(t))
                if best is None or score > best[0]:
                    best = (score, idx, members, t)
            elif best is None:
                best = (0, idx, members, t)
        if best is None:
            raise Inconsistent(f"{len(reach)} atoms but no splitting predicate")
        _, idx, members, t = best
        rest = [c for c in remaining if c[0] != idx]
        return Internal(
            preds[idx],
            grow(t, rest, depth + 1),
            grow(reach - members, rest, depth + 1),
        )

    root = grow(frozenset(atom_set.order), candidates, 0)
    return APTree(
        engine=engine,
        root=root,
        atom_set=atom_set,
        sources=tuple(preds),
        removed=frozenset(),
        depth_sum=depth_sum,
        version=version,
        strategy=strategy,
        seed=seed,
    )


def classify(tree: APTree, h: Header) -> int:
    """Walk the tree evaluating node predicates on the header bits."""
    engine = tree.engine
    bits = h.bits
    if len(bits) != engine.width:
        raise LengthMismatch(f"header has {len(bits)} bits, layout {engine.width}")
    var, lo, hi = engine._var, engine._lo, engine._hi
    node = tree.root
    while isinstance(node, Internal):
        n = node.pred.node
        while n > 1:
            n = hi[n] if bits[var[n]] else lo[n]
        node = node.true_child if n else node.false_child
    return node.atom


def leaves(tree: APTree) -> list[tuple[int, int]]:
    """(atom_id, depth) for every leaf."""
    out = []
    stack = [(tree.root, 0)]
    while stack:
        node, d = stack.pop()
        if isinstance(node, Leaf):
            out.append((node.atom, d))
        else:
            stack.append((node.true_child, d + 1))
            stack.append((node.false_child, d + 1))
    return out

def avg_leaf_depth(tree: APTree) -> Fraction:
    ls = leaves(tree)
    return Fraction(sum(d for _, d in ls), len(ls))


def max_depth(tree: APTree) -> int:
    return max(d for _, d in leaves(tree))


def add_predicate(tree: APTree, p: Predicate) -> APTree:
    """Refine straddled leaves in place at the bottom of the tree.

    A leaf whose atom is split by p becomes an internal node testing p with
    two fresh leaves; all other leaves are untouched.  Adding a predicate
    that is already refined by the partition changes no structure.

    Only the paths p reaches are walked, carrying r = p ∧ path: a side is
    entered only if r meets it, and at a leaf r is p ∧ atom.  So the BDD
    work is two conjunctions per node on those paths, not one per atom,
    and only those paths are copied.
    """
    engine = tree.engine
    if p.node in (0, 1):
        raise ValueError("cannot add a constant predicate")
    meets: dict[int, Predicate] = {}  # atom -> p ∧ atom, for atoms p meets
    reached: set[int] = set()  # id() of the internal nodes on those paths

    def walk(node: Node, r: Predicate) -> None:
        if isinstance(node, Leaf):
            meets[node.atom] = r
            return
        reached.add(id(node))
        t = engine.conj(r, node.pred)
        if not engine.is_false(t):
            walk(node.true_child, t)
        f = engine.diff(r, node.pred)
        if not engine.is_false(f):
            walk(node.false_child, f)

    walk(tree.root, p)
    new_atoms, splits = atoms_mod.refine(tree.atom_set, p, meets)
    depth_sum = tree.depth_sum

    def rewrite(node: Node, depth: int) -> Node:
        nonlocal depth_sum
        if isinstance(node, Leaf):
            if node.atom in splits:
                depth_sum += depth + 2  # one leaf at depth d becomes two at d+1
                ti, fi = splits[node.atom]
                return Internal(p, Leaf(ti), Leaf(fi))
            return node
        if id(node) not in reached:
            return node
        t = rewrite(node.true_child, depth + 1)
        f = rewrite(node.false_child, depth + 1)
        if t is node.true_child and f is node.false_child:
            return node
        return Internal(node.pred, t, f)

    root = rewrite(tree.root, 0) if splits else tree.root
    sources = tree.sources
    if all(s.node != p.node for s in sources):
        sources = sources + (p,)
    return replace(
        tree,
        root=root,
        atom_set=new_atoms,
        sources=sources,
        removed=tree.removed - {p.node},
        depth_sum=depth_sum,
        structural_updates=tree.structural_updates + 1,
    )


def remove_predicate(tree: APTree, p: Predicate) -> APTree:
    """Drop p from the live sources; the structure keeps classifying correctly
    because every cell is still contained in one atom of the remaining set."""
    live = tuple(s for s in tree.sources if s.node == p.node)
    if not live:
        raise UnknownPredicate(f"predicate handle {p.node} is not live")
    new_atoms = atoms_mod.drop_source(tree.atom_set, p)
    return replace(
        tree,
        atom_set=new_atoms,
        sources=tuple(s for s in tree.sources if s.node != p.node),
        removed=tree.removed | {p.node},
        structural_updates=tree.structural_updates + 1,
    )


def rebuild(tree: APTree) -> APTree:
    """Merge the cells into the atoms of the live predicates and grow a fresh
    tree; the op cache then holds only the work of later updates."""
    fresh = build(
        tree.engine,
        atoms_mod.merge(tree.atom_set, tree.sources),
        tree.sources,
        strategy=tree.strategy,
        seed=tree.seed,
        version=tree.version + 1,
    )
    tree.engine.clear_cache()
    return fresh


def _mean_depth(tree: APTree) -> float:
    """avg_leaf_depth from the carried sum, without walking the leaves."""
    return tree.depth_sum / len(tree.atom_set)


class PublishedClassifier:
    """Epoch-swapped tree: many readers, one writer.

    Readers grab the current tree with .tree and classify against it; the
    reference never mutates.  Updates are serialized through a lock and
    publish a new tree atomically.  A rebuild is triggered after enough
    structural updates ("count") or when the average depth drifts past the
    ratio ("depth"); .rebuilds records each rebuild's trigger, the number of
    updates applied before it, and its service time.
    """

    def __init__(
        self,
        tree: APTree,
        rebuild_after: int = 256,
        depth_ratio: float = 1.5,
    ):
        self._lock = threading.Lock()
        self._tree = tree
        self.rebuild_after = rebuild_after
        self.depth_ratio = depth_ratio
        self._baseline_depth = _mean_depth(tree)
        self.updates = 0
        self.rebuilds: list[dict] = []

    @property
    def tree(self) -> APTree:
        return self._tree

    @property
    def rebuild_count(self) -> int:
        return len(self.rebuilds)

    def classify(self, h: Header) -> int:
        return classify(self._tree, h)

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
        if len(t.atom_set) > 1 and _mean_depth(t) > self._baseline_depth * self.depth_ratio:
            return self._rebuild(t, "depth")
        return t

    def _rebuild(self, t: APTree, trigger: str) -> APTree:
        start = time.perf_counter()
        t = rebuild(t)
        ms = (time.perf_counter() - start) * 1000.0
        self._baseline_depth = _mean_depth(t)
        self.rebuilds.append({"trigger": trigger, "update": self.updates, "ms": ms})
        return t
