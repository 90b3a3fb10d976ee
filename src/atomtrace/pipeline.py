"""End-to-end wiring: snapshot -> engine -> predicates -> atoms -> tree -> maps.

Rewrite-image predicates are folded into the predicate set until every
rewriter's image of every matched atom lands inside a single atom, which is
what makes label rewriting well defined.
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
from .rewrite import image_atom, rewrite_preimage_pred, touched

_MAX_IMAGE_ROUNDS = 100


@dataclass
class Pipeline:
    snapshot: NetworkSnapshot
    engine: Engine
    compiled: CompiledNetwork
    sources: tuple[Predicate, ...]
    atom_set: AtomSet
    tree: aptree.APTree
    bmap: BehaviorMap

    def label_plane(self, agent_key: int = 0) -> LabelPlane:
        return build_label_plane(self.atom_set, agent_key, self.bmap)


def close_over_rewrites(
    engine: Engine,
    snapshot: NetworkSnapshot,
    compiled: CompiledNetwork,
) -> tuple[tuple[Predicate, ...], AtomSet]:
    """Grow the predicate set until all rewrite images are atom-contained."""
    sources = list(compiled.all_preds)
    known = {p.node for p in sources}
    rewriters = [b for b in snapshot.boxes if b.rewrite is not None]
    for _ in range(_MAX_IMAGE_ROUNDS):
        atom_set = compute_atoms(engine, sources)
        added = False
        for box in rewriters:
            match_pred = compiled.rewrite_match[box.id]
            if engine.is_false(match_pred):
                continue
            member_ids = (
                atom_set.order
                if engine.is_true(match_pred)
                else atom_set.members_of(match_pred)
            )
            for aid in member_ids:
                image, target = image_atom(
                    engine, atom_set, box.rewrite, atom_set.pred_of(aid)
                )
                if target is not None or engine.is_false(image):
                    continue
                # split the source atom by the preimage of every target the
                # image touches, so each refined cell maps into one atom
                for tid in touched(engine, atom_set, image):
                    pre = rewrite_preimage_pred(
                        engine, atom_set.pred_of(tid), box.rewrite
                    )
                    if engine.is_false(pre) or engine.is_true(pre):
                        continue
                    if pre.node not in known:
                        known.add(pre.node)
                        sources.append(pre)
                        added = True
        if not added:
            return tuple(sources), atom_set
    raise RuntimeError("rewrite-image closure did not converge")


def build_pipeline(
    snapshot: NetworkSnapshot,
    strategy: str = aptree.GREEDY,
    seed: int = 0,
    engine: Optional[Engine] = None,
) -> Pipeline:
    engine = engine or Engine(snapshot.layout)
    compiled = compile_network(snapshot, engine)
    sources, atom_set = close_over_rewrites(engine, snapshot, compiled)
    tree = aptree.build(engine, atom_set, sources, strategy=strategy, seed=seed)
    bmap = compile_behavior_map(compiled, atom_set, snapshot)
    return Pipeline(snapshot, engine, compiled, sources, atom_set, tree, bmap)
