"""Rewrite images and preimages of atoms under a header-rewriting box.

A rewriter overwrites some fields with constants.  The image of an atom is
the set of headers it produces; label rewriting is well defined only when
every image lies inside a single atom.  Atoms are disjoint, so an image
that lies in one atom lies in the atom of any one of its headers: one
witness header, one walk of the atom index and one implication decide
containment, with no scan over the atoms and without building the image.
"""

from __future__ import annotations

from typing import Optional

from .atoms import AtomSet
from .bdd import Engine, FieldConstraint, Header, Predicate, int_bits
from .model import RewriteSpec


def image_atom(
    engine: Engine, atom_set: AtomSet, spec: RewriteSpec, atom: Predicate
) -> tuple[Optional[Predicate], Optional[int]]:
    """(None, t) when the image of atom under spec lies in atom t, and
    (image, None) when the image is empty or straddles atoms.

    The shadow is the matched part of the atom projected over the
    overwritten fields; the image is the shadow with those fields pinned
    to their constants.  A witness of the shadow with the constants
    written in is a header of the image, so its atom t is the only
    candidate, and the image lies in t iff the shadow implies t with the
    fields fixed to the constants.  The image is built only when it is
    not contained: the closure then needs it to find the atoms it meets.
    """
    fields = [f for f, _ in spec.sets]
    shadow = engine.exists(engine.conj(atom, engine.match_all(spec.match)), fields)
    if engine.is_false(shadow):
        return shadow, None
    layout = engine.layout
    bits = list(engine.witness(shadow).bits)
    for name, value in spec.sets:
        off, width = layout.field_offset(name), layout.field_width(name)
        bits[off:off + width] = int_bits(value, width)
    target = atom_set.atom_of(Header(tuple(bits)))
    if engine.implies(shadow, engine.restrict(atom_set.pred_of(target), spec.sets)):
        return None, target
    pins = [FieldConstraint.exact(name, value) for name, value in spec.sets]
    return engine.conj(shadow, engine.match_all(pins)), None


def touched(atom_set: AtomSet, p: Predicate) -> list[int]:
    """Ids of the atoms p intersects, in atom order, by one product walk of
    p with the atom index."""
    inside, _ = atom_set.meets(p)
    return atom_set.in_order(inside)


def rewrite_preimage_pred(
    engine: Engine, target: Predicate, spec: RewriteSpec
) -> Predicate:
    """Headers whose rewritten form lands in the target predicate: the
    target with the overwritten fields fixed to their constants.

    Refining the source atoms with these is what makes every atom's image
    land in a single atom: an image that straddles k targets splits its
    source atom into k cells with single-atom images.
    """
    return engine.restrict(target, spec.sets)
