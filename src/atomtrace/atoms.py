"""Atomic predicates: the coarsest partition of the header space such that
every network predicate is a disjoint union of its blocks."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from .bdd import FALSE, TRUE, Engine, EngineMismatch, Header, Predicate


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

    def members_of(self, p: Predicate) -> frozenset[int]:
        """Ids of the atoms whose disjunction is p: a source, or a constant."""
        if p.node == FALSE:
            return frozenset()
        if p.node == TRUE:
            return frozenset(self.order)
        try:
            return self.membership[p.node]
        except KeyError:
            raise UnknownPredicate(f"predicate handle {p.node} has no membership")


def compute_atoms(engine: Engine, preds: Sequence[Predicate]) -> AtomSet:
    """The atoms of preds, read off all their BDDs in one memoised recursion.

    A cell is the set of headers on which exactly the same preds hold, so
    it is named by its membership signature.  cells(vec) walks the preds
    still undecided -- vec holds their (bit, node) pairs -- splitting all of
    them at their lowest top variable: a node that reaches true sets its
    bit, one that reaches false drops out.  It returns {signature: node} for
    the cells below, joined over the two sides by one node each, so the
    build creates only the atoms' own nodes and no op-cache entries.  Equals
    refinement by preds in order (Yang & Lam) -- ids, predicates, order and
    membership; see _atom_set for the order.
    """
    for p in preds:
        if p.engine is not engine:
            raise EngineMismatch("predicate from a different engine")
    var, lo, hi, mk = engine._var, engine._lo, engine._hi, engine._mk
    memo: dict[tuple[tuple[int, int], ...], dict[int, int]] = {(): {0: TRUE}}

    def split(vec, v, side):
        sig, rest = 0, []
        for bit, n in vec:
            if var[n] == v:
                n = side[n]
            if n == TRUE:
                sig |= bit
            elif n != FALSE:
                rest.append((bit, n))
        below = cells(tuple(rest))
        return {s | sig: c for s, c in below.items()} if sig else below

    def cells(vec):
        out = memo.get(vec)
        if out is None:
            v = min(var[n] for _, n in vec)
            off, on = split(vec, v, lo), split(vec, v, hi)
            out = {s: mk(v, c, on.get(s, FALSE)) for s, c in off.items()}
            for s, c in on.items():
                if s not in off:
                    out[s] = mk(v, FALSE, c)
            memo[vec] = out
        return out

    n = len(preds)
    top = [(_pred_bit(k, n), p.node) for k, p in enumerate(preds)]
    # at the terminals' sentinel variable only true and false split, each
    # to itself: this sorts out the constant preds
    found = split(top, engine.width, lo)
    return _atom_set(engine, preds, {s: Predicate(engine, c) for s, c in found.items()})


def _pred_bit(k: int, n: int) -> int:
    """The signature bit of the k-th of n preds: the first is the top bit."""
    return 1 << (n - 1 - k)


def _atom_set(
    engine: Engine, preds: Sequence[Predicate], cells: dict[int, Predicate]
) -> AtomSet:
    """The AtomSet of cells keyed by membership signature over preds.

    Refinement by preds in order lists each atom's inside before its
    outside, first pred deciding first; so atoms are ordered by the preds
    they lie *outside*, first pred most significant: by descending
    signature.  Membership is read off the signature bits.
    """
    n = len(preds)
    sigs = sorted(cells, reverse=True)
    members: list[list[int]] = [[] for _ in range(n)]
    for j, s in enumerate(sigs):
        while s:
            low = s & -s
            members[n - low.bit_length()].append(j)
            s ^= low
    return AtomSet(
        engine=engine,
        atoms={j: cells[s] for j, s in enumerate(sigs)},
        order=tuple(range(len(sigs))),
        membership={p.node: frozenset(members[k]) for k, p in enumerate(preds)},
        next_id=len(sigs),
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
    -- at one disjunction per merged cell, without walking the preds'
    BDDs.
    """
    engine = atom_set.engine
    n = len(preds)
    sig = dict.fromkeys(atom_set.order, 0)
    for k, p in enumerate(preds):
        bit = _pred_bit(k, n)
        for i in atom_set.members_of(p):
            sig[i] |= bit
    groups: dict[int, Predicate] = {}
    for i in atom_set.order:
        g = sig[i]
        a = atom_set.atoms[i]
        groups[g] = engine.disj(groups[g], a) if g in groups else a
    return _atom_set(engine, preds, groups)


def drop_source(atom_set: AtomSet, p: Predicate) -> AtomSet:
    """Forget a source predicate's membership; the partition is untouched."""
    if p.node not in atom_set.membership:
        raise UnknownPredicate(f"predicate handle {p.node} is not a live source")
    membership = {h: m for h, m in atom_set.membership.items() if h != p.node}
    return AtomSet(
        atom_set.engine, atom_set.atoms, atom_set.order, membership, atom_set.next_id
    )
