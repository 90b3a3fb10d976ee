"""End-to-end wiring: snapshot -> engine -> predicates -> atoms -> tree -> maps.

Rewrite preimages are folded into the predicate set until every rewriter's
image of every matched atom lands inside a single atom, which is what makes
label rewriting well defined.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from . import aptree
from .atoms import AtomSet, compute_atoms
from .bdd import Engine, Predicate
from .behavior import BehaviorMap, compile_behavior_map
from .label_plane import LabelPlane, build_label_plane
from .model import CompiledNetwork, NetworkSnapshot, compile_network

_MAX_IMAGE_ROUNDS = 100


@dataclass
class Pipeline:
    snapshot: NetworkSnapshot
    engine: Engine
    compiled: CompiledNetwork
    atom_set: AtomSet
    tree: aptree.APTree
    bmap: BehaviorMap

    @property
    def sources(self) -> tuple[Predicate, ...]:
        """The live predicates: the atom set's sources."""
        return self.atom_set.sources

    def label_plane(self, agent_key: int = 0) -> LabelPlane:
        return build_label_plane(self.atom_set, agent_key, self.bmap)


def close_over_rewrites(
    engine: Engine,
    snapshot: NetworkSnapshot,
    compiled: CompiledNetwork,
) -> tuple[AtomSet, dict[str, dict[int, int]]]:
    """Grow the predicate set until all rewrite images are atom-contained.

    Returns the atoms of the grown set (their sources are that set) and, for
    every rewriter box, the {atom: image atom} table of the round that
    converged.  Raises RuntimeError when an image straddles atoms and no new
    preimage can split its source atom.
    """
    sources = list(compiled.all_preds)
    known = {p.node for p in sources}
    rewriters = [b for b in snapshot.boxes if b.rewrite is not None]
    for _ in range(_MAX_IMAGE_ROUNDS):
        atom_set = compute_atoms(engine, sources)
        rewrites: dict[str, dict[int, int]] = {}
        straddled = added = False
        for box in rewriters:
            table = rewrites[box.id] = {}
            sets = box.rewrite.sets
            # every member lies inside the match, so its image is all of
            # it rewritten, and one walk of the index names the atoms the
            # image meets
            for aid in atom_set.members_of(compiled.rewrite_match[box.id]):
                reached = atom_set.lands(atom_set.pred_of(aid), sets)
                if not reached & (reached - 1):
                    table[aid] = reached.bit_length() - 1
                    continue
                # split the source atom by the preimage of every target the
                # image meets, so each refined cell maps into one atom; the
                # targets meet the image in disjoint parts of the pinned
                # subspace, so no preimage is constant
                straddled = True
                for tid in atom_set.in_order(reached):
                    pre = engine.restrict(atom_set.pred_of(tid), sets)
                    if pre.node not in known:
                        known.add(pre.node)
                        sources.append(pre)
                        added = True
        if not straddled:
            return atom_set, rewrites
        if not added:
            raise RuntimeError("a rewrite image straddles atoms its preimages do not split")
    raise RuntimeError("rewrite-image closure did not converge")


def build_pipeline(
    snapshot: NetworkSnapshot,
    strategy: str = aptree.GREEDY,
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> Pipeline:
    engine = engine or Engine(snapshot.layout)
    compiled = compile_network(snapshot, engine)
    atom_set, rewrites = close_over_rewrites(engine, snapshot, compiled)
    tree = aptree.build(atom_set, strategy=strategy, seed=seed)
    bmap = compile_behavior_map(compiled, atom_set, snapshot, rewrites)
    return Pipeline(snapshot, engine, compiled, atom_set, tree, bmap)
