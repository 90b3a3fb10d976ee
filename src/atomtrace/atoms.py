"""Atomic predicates: the coarsest partition of the header space such that
every network predicate is a disjoint union of its blocks."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from types import MappingProxyType
from typing import Iterator, Mapping, Optional, Sequence

from .atomindex import IndexStore
from .bdd import FALSE, TRUE, Engine, EngineMismatch, Header, Predicate


class UnknownPredicate(KeyError):
    pass


class AtomLine:
    """Append-only record of every atom one partition and its refinements
    have made, shared by all of their versions.

    preds[i] is atom id i's predicate, and keys[i] its position: base atom
    j has key (j,), and the inside and outside children of a split atom
    with key k get k + (0,) and k + (1,), so sorting live ids by key lists
    them in refinement order.  A new id is the line's length, so two
    versions refined from one parent never share an id.  store holds the
    line's atom indexes.
    """

    def __init__(self, engine: Engine, preds: Sequence[Predicate]):
        self.preds: list[Predicate] = list(preds)
        self.keys: list[tuple[int, ...]] = [(j,) for j in range(len(self.preds))]
        self.base = len(self.preds)
        self.store = IndexStore(engine.width)


# A split log: None, or the cell (atom id, inside id, outside id, older
# cell) of a version's latest split.  Cells are shared between versions.
SplitLog = Optional[tuple[int, int, int, "SplitLog"]]


@dataclass(frozen=True, eq=False)
class AtomSet:
    """Pairwise-disjoint, jointly-exhaustive atoms plus source membership.

    A version of its line: index is the root, in the line's store, of the
    atom index (the decision diagram from a header to its atom id,
    atomindex), and the live atoms are the ids that index reaches.  log
    lists the splits that made this version from the line's base atoms.
    members maps a source predicate's handle to the bitset (bit i for atom
    id i) of the atoms whose disjunction it was when it was recorded;
    membership replays the later splits of those atoms.  So an update
    copies members and touches only what it splits.

    atoms, order, membership and next_id are exact read-only views for
    readers and tests, computed once per version; no update reads them.
    Equality compares the views, not where the line lives.
    """

    engine: Engine
    line: AtomLine = field(repr=False)
    members: dict[int, int] = field(repr=False)
    log: SplitLog = field(repr=False)
    index: int = field(repr=False)

    @property
    def store(self) -> IndexStore:
        return self.line.store

    @property
    def live(self) -> int:
        """Bitset of the live atom ids: those the index reaches."""
        return self.line.store.bits[self.index]

    def __len__(self) -> int:
        return self.live.bit_count()

    def __eq__(self, other):
        if not isinstance(other, AtomSet):
            return NotImplemented
        return (
            self.engine is other.engine
            and self.order == other.order
            and self.atoms == other.atoms
            and self.membership == other.membership
            and self.next_id == other.next_id
        )

    __hash__ = None

    def in_order(self, bits: int) -> list[int]:
        """The atom ids in a bitset, in atom order."""
        return sorted(ids_of(bits), key=self.line.keys.__getitem__)

    @cached_property
    def order(self) -> tuple[int, ...]:
        return tuple(self.in_order(self.live))

    @cached_property
    def atoms(self) -> Mapping[int, Predicate]:
        preds = self.line.preds
        return MappingProxyType({i: preds[i] for i in self.order})

    def splits(self) -> list[tuple[int, int, int]]:
        """(atom id, inside id, outside id) of every split in the log,
        newest first."""
        out = []
        cell = self.log
        while cell is not None:
            i, ti, fi, cell = cell
            out.append((i, ti, fi))
        return out

    @cached_property
    def membership(self) -> Mapping[int, int]:
        """Every source's exact bitset: its recorded bits with each split
        atom replaced by its children, by one pass over the log.  An atom
        in the recorded bits was live when they were recorded, so if this
        version's log splits it, the split came later."""
        children, split = {}, 0
        for i, ti, fi in self.splits():
            children[i] = 1 << i | 1 << ti | 1 << fi
            split |= 1 << i
        out = {}
        for handle, bits in self.members.items():
            while bits & split:
                for i in ids_of(bits & split):
                    bits ^= children[i]
            out[handle] = bits
        return MappingProxyType(out)

    @property
    def next_id(self) -> int:
        """One past the last id this version's splits made."""
        return self.log[2] + 1 if self.log is not None else self.line.base

    @cached_property
    def born(self) -> int:
        """Bitset of every atom id this version has had: the base atoms
        and both children of each split in its log."""
        bits = (1 << self.line.base) - 1
        for _, ti, fi in self.splits():
            bits |= 1 << ti | 1 << fi
        return bits

    @property
    def sources(self) -> tuple[Predicate, ...]:
        """The live source predicates, in refinement order."""
        return tuple(Predicate(self.engine, h) for h in self.members)

    def pred_of(self, atom_id: int) -> Predicate:
        return self.line.preds[atom_id]

    def member_bits(self, p: Predicate) -> int:
        """Bitset of the atoms whose disjunction is p: a source, or a constant."""
        if p.node == FALSE:
            return 0
        if p.node == TRUE:
            return self.live
        try:
            return self.membership[p.node]
        except KeyError:
            raise UnknownPredicate(f"predicate handle {p.node} has no membership")

    def members_of(self, p: Predicate) -> frozenset[int]:
        """Ids of the atoms whose disjunction is p: a source, or a constant."""
        return frozenset(ids_of(self.member_bits(p)))

    def atom_of(self, h: Header) -> int:
        """The atom containing h, by one walk of the index."""
        return self.line.store.lookup(self.index, h.bits)

    def meets(self, p: Predicate) -> tuple[int, int]:
        """Bitsets of the atoms that meet p and of those that meet its
        complement; an atom in both straddles p."""
        return self.line.store.meets(self.index, self.engine, p.node)

    def lands(self, p: Predicate, sets: Sequence[tuple[str, int]]) -> int:
        """Bitset of the atoms that p's headers land in once each (field,
        value) of sets is written in; one bit iff p's rewrite image lies
        in a single atom."""
        return self.line.store.lands(
            self.index, self.engine, p.node, self.engine.layout.pinned(sets)
        )


def ids_of(bits: int) -> Iterator[int]:
    """The atom ids in a bitset, lowest first."""
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def compute_atoms(engine: Engine, preds: Sequence[Predicate]) -> AtomSet:
    """The atoms of preds, their membership and their index, read off all
    their BDDs in one memoised recursion.

    A cell is the set of headers on which exactly the same preds hold, so
    it is named by its membership signature.  cells(vec, v) walks the preds
    still undecided -- vec holds their (bit, node) pairs, v is their lowest
    top variable -- and splits all of them at v in one pass: a node that
    reaches true sets its bit on that side, one that reaches false drops
    out.  The cells below are {signature: node}, joined over the two sides
    by one node each, so the build creates only the atoms' own nodes and no
    op-cache entries.  Each memoised vec is a record: its variable and, per
    side, the child record and the signature bits set there.  The index is
    one walk over those records and the signature so far.

    Equals from-scratch refinement by preds in order (Yang & Lam), its
    atoms numbered 0..n-1 in final order, not refine's appended ids -- in
    ids, predicates, order and membership.  Refinement lists each atom's
    inside before its outside, first pred deciding first; so atoms are
    ordered by the preds they lie *outside*, first pred most significant:
    by descending signature, whose bits are the atom's row of the membership.
    """
    for p in preds:
        if p.engine is not engine:
            raise EngineMismatch("predicate from a different engine")
    var, lo, hi, mk, width = engine._var, engine._lo, engine._hi, engine._mk, engine.width
    # record k: below[k] is {signature: node} under it, split[k] is (v, off
    # record, off bits, on record, on bits); record 0 is the empty vec
    memo: dict[tuple[tuple[int, int], ...], int] = {(): 0}
    below: list[dict[int, int]] = [{0: TRUE}]
    split: list[Optional[tuple[int, int, int, int, int]]] = [None]

    def cells(vec, v):
        k = memo.get(vec)
        if k is None:
            bits0 = bits1 = 0
            vec0, vec1 = [], []
            v0 = v1 = width
            for e in vec:
                bit, n = e
                w = var[n]
                if w != v:
                    vec0.append(e)
                    vec1.append(e)
                    if w < v0:
                        v0 = w
                    if w < v1:
                        v1 = w
                    continue
                n0, n1 = lo[n], hi[n]
                if n0 == TRUE:
                    bits0 |= bit
                elif n0 != FALSE:
                    vec0.append((bit, n0))
                    if var[n0] < v0:
                        v0 = var[n0]
                if n1 == TRUE:
                    bits1 |= bit
                elif n1 != FALSE:
                    vec1.append((bit, n1))
                    if var[n1] < v1:
                        v1 = var[n1]
            k0 = cells(tuple(vec0), v0)
            k1 = cells(tuple(vec1), v1)
            off, on = below[k0], below[k1]
            if bits0:
                off = {s | bits0: c for s, c in off.items()}
            if bits1:
                on = {s | bits1: c for s, c in on.items()}
            out = {s: mk(v, c, on.get(s, FALSE)) for s, c in off.items()}
            for s, c in on.items():
                if s not in off:
                    out[s] = mk(v, FALSE, c)
            k = memo[vec] = len(below)
            below.append(out)
            split.append((v, k0, bits0, k1, bits1))
        return k

    n = len(preds)
    # the first pred's bit is the signature's top bit; constant preds are
    # decided before the walk
    top, vec, v = 0, [], width
    for j, p in enumerate(preds):
        bit = 1 << (n - 1 - j)
        if p.node == TRUE:
            top |= bit
        elif p.node != FALSE:
            vec.append((bit, p.node))
            v = min(v, var[p.node])
    root = cells(tuple(vec), v)

    found = below[root]
    if top:
        found = {s | top: c for s, c in found.items()}
    sigs = sorted(found, reverse=True)
    line = AtomLine(engine, [Predicate(engine, found[s]) for s in sigs])
    # membership is the transpose of the signatures: pred j's bitset is
    # column j of their binary rows, the last atom's row first
    rows = [format(s, f"0{n}b") for s in reversed(sigs)]
    members = {p.node: int("".join(col), 2) for p, col in zip(preds, zip(*rows))}

    store, atom_id = line.store, {s: j for j, s in enumerate(sigs)}
    nodes: dict[tuple[int, int], int] = {}

    def index(k, sig):
        if k == 0:
            return store.leaf(atom_id[sig])
        r = nodes.get((k, sig))
        if r is None:
            v, k0, bits0, k1, bits1 = split[k]
            r = nodes[k, sig] = store.node(v, index(k0, sig | bits0), index(k1, sig | bits1))
        return r

    return AtomSet(engine, line, members, None, index(root, top))


def atom_of_header(atom_set: AtomSet, h: Header) -> int:
    """Reference classifier: linear scan for the unique atom true at h."""
    engine, preds = atom_set.engine, atom_set.line.preds
    for i in ids_of(atom_set.live):
        if engine.eval(preds[i], h):
            return i
    raise AssertionError("atoms are not exhaustive")  # unreachable by invariant


def refine(atom_set: AtomSet, p: Predicate) -> tuple[AtomSet, dict[int, tuple[int, int]]]:
    """Split atoms straddling p; returns the new set and old->(inside, outside) ids.

    One product walk of p with the index tells the atoms inside p, those
    outside it and those that straddle it; only the straddled ones are
    split, by one Engine.split each.  Atoms fully inside or outside p keep
    their ids, and split atoms get fresh ids in atom order, appended to the
    line and logged.  Other sources' bits are left as recorded: each child
    is contained in its parent, so implication is inherited, and readers
    replay the log.  The index replaces each split terminal by
    ite(p, inside, outside).
    """
    engine = atom_set.engine
    if p.engine is not engine:
        raise EngineMismatch("predicate from a different engine")
    inside, outside = atom_set.meets(p)
    straddled = inside & outside
    covered = inside & ~outside
    splits: dict[int, tuple[int, int]] = {}
    line, log, index = atom_set.line, atom_set.log, atom_set.index
    if straddled:
        preds, keys = line.preds, line.keys
        for i in atom_set.in_order(straddled):
            ti = len(preds)
            fi = ti + 1
            preds.extend(engine.split(preds[i], p))
            keys.extend((keys[i] + (0,), keys[i] + (1,)))
            splits[i] = (ti, fi)
            covered |= 1 << ti
            log = (i, ti, fi, log)
        index = line.store.split(index, engine, p.node, splits)
    members = atom_set.members.copy()
    members[p.node] = covered
    return AtomSet(engine, line, members, log, index), splits


def drop_source(atom_set: AtomSet, p: Predicate) -> AtomSet:
    """Forget a source predicate's membership; the partition and its index
    are untouched."""
    if p.node not in atom_set.members:
        raise UnknownPredicate(f"predicate handle {p.node} is not a live source")
    members = atom_set.members.copy()
    del members[p.node]
    return AtomSet(atom_set.engine, atom_set.line, members, atom_set.log, atom_set.index)
