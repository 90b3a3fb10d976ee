"""Atomic predicates: the coarsest partition of the header space such that
every network predicate is a disjoint union of its blocks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Sequence

from .bdd import Engine, EngineMismatch, Header, Predicate


class UnknownPredicate(KeyError):
    pass


@dataclass(frozen=True)
class AtomSet:
    """Pairwise-disjoint, jointly-exhaustive atoms plus source membership.

    atoms maps atom id -> predicate; order lists ids in their canonical
    order; membership maps a source predicate's handle to the ids of the
    atoms whose disjunction equals it.  Immutable: refinements return a
    new AtomSet sharing unchanged entries.
    """

    engine: Engine
    atoms: dict[int, Predicate]
    order: tuple[int, ...]
    membership: dict[int, frozenset[int]]
    next_id: int

    def __len__(self) -> int:
        return len(self.order)

    def pred_of(self, atom_id: int) -> Predicate:
        return self.atoms[atom_id]

    def ids(self) -> tuple[int, ...]:
        return self.order

    def members_of(self, p: Predicate) -> frozenset[int]:
        try:
            return self.membership[p.node]
        except KeyError:
            raise UnknownPredicate(f"predicate handle {p.node} has no membership")


def compute_atoms(engine: Engine, preds: Sequence[Predicate]) -> AtomSet:
    """Iterative refinement starting from {true}.

    Each predicate splits every current atom into its inside and outside
    parts, keeping only nonempty ones.  Atom ids follow the final list
    order, which is deterministic in the order of preds.
    """
    for p in preds:
        if p.engine is not engine:
            raise EngineMismatch("predicate from a different engine")
    # each atom carries a bitmask of the predicates it is contained in, so
    # membership falls out of refinement without a second implication pass
    atoms: list[tuple[Predicate, int]] = [(engine.true_, 0)]
    for k, p in enumerate(preds):
        bit = 1 << k
        refined: list[tuple[Predicate, int]] = []
        for a, sig in atoms:
            t = engine.conj(a, p)
            if engine.is_false(t):
                refined.append((a, sig))
            elif t == a:
                refined.append((a, sig | bit))
            else:
                refined.append((t, sig | bit))
                refined.append((engine.diff(a, p), sig))
        atoms = refined
    by_id = {i: a for i, (a, _) in enumerate(atoms)}
    membership = {}
    for k, p in enumerate(preds):
        bit = 1 << k
        membership[p.node] = frozenset(
            i for i, (_, sig) in enumerate(atoms) if sig & bit
        )
    return AtomSet(
        engine=engine,
        atoms=by_id,
        order=tuple(range(len(atoms))),
        membership=membership,
        next_id=len(atoms),
    )


def atom_of_header(atom_set: AtomSet, h: Header) -> int:
    """Reference classifier: linear scan for the unique atom true at h."""
    engine = atom_set.engine
    for i in atom_set.order:
        if engine.eval(atom_set.atoms[i], h):
            return i
    raise AssertionError("atoms are not exhaustive")  # unreachable by invariant


def refine(
    atom_set: AtomSet,
    p: Predicate,
    meets: Optional[Mapping[int, Predicate]] = None,
) -> tuple[AtomSet, dict[int, tuple[int, int]]]:
    """Split atoms straddling p; returns the new set and old->(inside, outside) ids.

    Atoms fully inside or outside p keep their ids, and split atoms get
    fresh ids in atom order.  Membership of every existing source replaces
    a split atom by both children (each child is contained in the parent,
    so implication is inherited).

    meets, when given, maps every atom p intersects to the nonempty p ∧ atom
    and omits the atoms disjoint from p: a caller that already knows which
    atoms p touches (the AP tree walk) saves one conjunction per atom.
    Without it, p is conjoined with every atom.
    """
    engine = atom_set.engine
    if p.engine is not engine:
        raise EngineMismatch("predicate from a different engine")
    if meets is None:
        meets = {}
        for i in atom_set.order:
            t = engine.conj(atom_set.atoms[i], p)
            if not engine.is_false(t):
                meets[i] = t
    splits: dict[int, tuple[int, int]] = {}
    covered: set[int] = set()
    atoms = atom_set.atoms
    next_id = atom_set.next_id
    for i in atom_set.order:
        t = meets.get(i)
        if t is None:
            continue
        a = atoms[i]
        if t == a:
            covered.add(i)
            continue
        if not splits:
            atoms = dict(atoms)
        ti, fi = next_id, next_id + 1
        next_id += 2
        del atoms[i]
        atoms[ti] = t
        atoms[fi] = engine.diff(a, p)
        splits[i] = (ti, fi)
        covered.add(ti)
    order = atom_set.order
    membership = dict(atom_set.membership)
    if splits:
        order = tuple(j for i in order for j in splits.get(i, (i,)))
        for handle, ids in membership.items():
            if not ids.isdisjoint(splits):
                hit = ids.intersection(splits)
                membership[handle] = (ids - hit).union(
                    *(splits[i] for i in hit)
                )
    membership[p.node] = frozenset(covered)
    return AtomSet(engine, atoms, order, membership, next_id), splits


def merge(atom_set: AtomSet, preds: Sequence[Predicate]) -> AtomSet:
    """The atoms of preds, by merging the cells of a finer partition.

    Every pred's membership in atom_set must be exact, as refine and
    drop_source keep it, so each cell lies in exactly one atom of preds:
    the atom of cells with the same membership signature.  Equals
    compute_atoms(engine, preds) -- ids, predicates, order and membership
    -- at one disjunction per merged cell instead of a conjunction per
    (atom, pred) pair.
    """
    engine = atom_set.engine
    # compute_atoms lists its atoms in lexicographic signature order, the
    # first pred most significant and inside before outside; so key each
    # cell by the preds it lies *outside*, first pred in the top bit.
    n = len(preds)
    key = dict.fromkeys(atom_set.order, (1 << n) - 1)
    for k, p in enumerate(preds):
        clear = ~(1 << (n - 1 - k))
        for i in atom_set.members_of(p):
            key[i] &= clear
    groups: dict[int, Predicate] = {}
    for i in atom_set.order:
        g = key[i]
        a = atom_set.atoms[i]
        groups[g] = engine.disj(groups[g], a) if g in groups else a
    new_id = {g: j for j, g in enumerate(sorted(groups))}
    membership = {
        p.node: frozenset(new_id[key[i]] for i in atom_set.members_of(p)) for p in preds
    }
    return AtomSet(
        engine=engine,
        atoms={j: groups[g] for g, j in new_id.items()},
        order=tuple(range(len(new_id))),
        membership=membership,
        next_id=len(new_id),
    )


def drop_source(atom_set: AtomSet, p: Predicate) -> AtomSet:
    """Forget a source predicate's membership; the partition is untouched."""
    if p.node not in atom_set.membership:
        raise UnknownPredicate(f"predicate handle {p.node} is not a live source")
    membership = {h: m for h, m in atom_set.membership.items() if h != p.node}
    return AtomSet(
        atom_set.engine, atom_set.atoms, atom_set.order, membership, atom_set.next_id
    )
