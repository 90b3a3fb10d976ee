"""Atomic predicates: the coarsest partition of the header space such that
every network predicate is a disjoint union of its blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .atomindex import IndexStore
from .bdd import FALSE, TRUE, Engine, EngineMismatch, Header, Predicate


class UnknownPredicate(KeyError):
    pass


@dataclass(frozen=True)
class AtomSet:
    """Pairwise-disjoint, jointly-exhaustive atoms plus source membership.

    atoms maps atom id -> predicate; order lists ids in their canonical
    order; membership maps a source predicate's handle to the bitset (bit i
    for atom id i) of the atoms whose disjunction equals it.  index is the
    root, in store, of the atom index: the decision diagram from a header
    to its atom id (atomindex).  Equality compares the partition and
    membership, not where the index lives.  Immutable: refinements return
    a new AtomSet sharing unchanged entries and the store.
    """

    engine: Engine
    atoms: dict[int, Predicate]
    order: tuple[int, ...]
    membership: dict[int, int]
    next_id: int
    store: IndexStore = field(compare=False, repr=False)
    index: int = field(compare=False, repr=False)

    def __len__(self) -> int:
        return len(self.order)

    def pred_of(self, atom_id: int) -> Predicate:
        return self.atoms[atom_id]

    def member_bits(self, p: Predicate) -> int:
        """Bitset of the atoms whose disjunction is p: a source, or a constant."""
        if p.node == FALSE:
            return 0
        if p.node == TRUE:
            return self.store.bits[self.index]
        try:
            return self.membership[p.node]
        except KeyError:
            raise UnknownPredicate(f"predicate handle {p.node} has no membership")

    def members_of(self, p: Predicate) -> frozenset[int]:
        """Ids of the atoms whose disjunction is p: a source, or a constant."""
        return frozenset(ids_of(self.member_bits(p)))

    def atom_of(self, h: Header) -> int:
        """The atom containing h, by one walk of the index."""
        return self.store.lookup(self.index, h.bits)

    def meets(self, p: Predicate) -> tuple[int, int]:
        """Bitsets of the atoms that meet p and of those that meet its
        complement; an atom in both straddles p."""
        return self.store.meets(self.index, self.engine, p.node)


def ids_of(bits: int) -> Iterator[int]:
    """The atom ids in a bitset, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


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
    """The AtomSet of cells keyed by membership signature over preds, with
    its index in a fresh store.

    Refinement by preds in order lists each atom's inside before its
    outside, first pred deciding first; so atoms are ordered by the preds
    they lie *outside*, first pred most significant: by descending
    signature.  Membership is read off the signature bits.
    """
    n = len(preds)
    sigs = sorted(cells, reverse=True)
    members = [0] * n
    for j, s in enumerate(sigs):
        while s:
            low = s & -s
            members[n - low.bit_length()] |= 1 << j
            s ^= low
    store = IndexStore(engine.width)
    return AtomSet(
        engine=engine,
        atoms={j: cells[s] for j, s in enumerate(sigs)},
        order=tuple(range(len(sigs))),
        membership={p.node: members[k] for k, p in enumerate(preds)},
        next_id=len(sigs),
        store=store,
        index=store.build(engine, ((j, cells[s].node) for j, s in enumerate(sigs))),
    )


def atom_of_header(atom_set: AtomSet, h: Header) -> int:
    """Reference classifier: linear scan for the unique atom true at h."""
    engine = atom_set.engine
    for i in atom_set.order:
        if engine.eval(atom_set.atoms[i], h):
            return i
    raise AssertionError("atoms are not exhaustive")  # unreachable by invariant


def refine(atom_set: AtomSet, p: Predicate) -> tuple[AtomSet, dict[int, tuple[int, int]]]:
    """Split atoms straddling p; returns the new set and old->(inside, outside) ids.

    One product walk of p with the index tells the atoms inside p, those
    outside it and those that straddle it; only the straddled ones are
    conjoined with p.  Atoms fully inside or outside p keep their ids, and
    split atoms get fresh ids in atom order.  Membership of every existing
    source replaces a split atom by both children (each child is contained
    in the parent, so implication is inherited), and the index replaces its
    terminal by ite(p, inside, outside).
    """
    engine = atom_set.engine
    if p.engine is not engine:
        raise EngineMismatch("predicate from a different engine")
    inside, outside = atom_set.meets(p)
    straddled = inside & outside
    covered = inside & ~outside
    splits: dict[int, tuple[int, int]] = {}
    atoms, order, index = atom_set.atoms, atom_set.order, atom_set.index
    membership = dict(atom_set.membership)
    next_id = atom_set.next_id
    if straddled:
        atoms = dict(atoms)
        spliced = list(order)
        # k splits before position at have shifted it by k
        for k, at in enumerate(sorted(map(order.index, ids_of(straddled)))):
            i = order[at]
            a = atoms.pop(i)
            ti, fi = next_id, next_id + 1
            next_id += 2
            atoms[ti] = engine.conj(a, p)
            atoms[fi] = engine.diff(a, p)
            splits[i] = (ti, fi)
            covered |= 1 << ti
            spliced[at + k:at + k + 1] = (ti, fi)
        order = tuple(spliced)
        for handle, bits in membership.items():
            if bits & straddled:
                for i in ids_of(bits & straddled):
                    ti, fi = splits[i]
                    bits ^= 1 << i | 1 << ti | 1 << fi
                membership[handle] = bits
        index = atom_set.store.split(index, engine, p.node, splits)
    membership[p.node] = covered
    return AtomSet(engine, atoms, order, membership, next_id, atom_set.store, index), splits


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
        for i in ids_of(atom_set.member_bits(p)):
            sig[i] |= bit
    groups: dict[int, Predicate] = {}
    for i in atom_set.order:
        g = sig[i]
        a = atom_set.atoms[i]
        groups[g] = engine.disj(groups[g], a) if g in groups else a
    return _atom_set(engine, preds, groups)


def drop_source(atom_set: AtomSet, p: Predicate) -> AtomSet:
    """Forget a source predicate's membership; the partition and its index
    are untouched."""
    if p.node not in atom_set.membership:
        raise UnknownPredicate(f"predicate handle {p.node} is not a live source")
    membership = {h: m for h, m in atom_set.membership.items() if h != p.node}
    return AtomSet(
        atom_set.engine, atom_set.atoms, atom_set.order, membership,
        atom_set.next_id, atom_set.store, atom_set.index,
    )
