"""Rewrite images and preimages of atoms under a header-rewriting box.

A rewriter overwrites some fields with constants.  The image of an atom is
the set of headers it produces; label rewriting is well defined only when
every image lies inside a single atom.  Atoms are disjoint, so an image
that lies in one atom lies in the atom of any one of its headers: one
witness header, one walk of the atom index and one implication decide
containment, with no scan over the atoms.
"""

from __future__ import annotations

from typing import Optional

from .atoms import AtomSet
from .bdd import Engine, FieldConstraint, Predicate
from .model import RewriteSpec


def _pin(engine: Engine, p: Predicate, spec: RewriteSpec) -> Predicate:
    for fname, value in spec.sets:
        p = engine.conj(p, engine.match(FieldConstraint.exact(fname, value)))
    return p


def image_atom(
    engine: Engine, atom_set: AtomSet, spec: RewriteSpec, atom: Predicate
) -> tuple[Predicate, Optional[int]]:
    """The image of atom under spec, and the atom containing it.

    Image = project the matched part of the atom over the overwritten
    fields, then pin those fields to their new constants.  The second item
    is None when the image is empty or straddles atoms.
    """
    matched = engine.conj(atom, engine.match_all(spec.match))
    image = _pin(engine, engine.exists(matched, [f for f, _ in spec.sets]), spec)
    if engine.is_false(image):
        return image, None
    aid = atom_set.atom_of(engine.witness(image))
    return image, aid if engine.implies(image, atom_set.pred_of(aid)) else None


def touched(atom_set: AtomSet, p: Predicate) -> list[int]:
    """Ids of the atoms p intersects, in atom order, by one product walk of
    p with the atom index."""
    inside, _ = atom_set.meets(p)
    return atom_set.in_order(inside)


def rewrite_preimage_pred(
    engine: Engine, target: Predicate, spec: RewriteSpec
) -> Predicate:
    """Headers whose rewritten form lands in the target predicate.

    Refining the source atoms with these is what makes every atom's image
    land in a single atom: an image that straddles k targets splits its
    source atom into k cells with single-atom images.
    """
    return engine.exists(_pin(engine, target, spec), [f for f, _ in spec.sets])
