import itertools
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from atomtrace.atoms import (
    UnknownPredicate,
    atom_of_header,
    compute_atoms,
    drop_source,
    refine,
)
from atomtrace.bdd import Engine, EngineMismatch, FieldConstraint, HeaderLayout
from atomtrace.model import compile_network, parse_snapshot
from atomtrace.pipeline import build_pipeline
from atomtrace.workload import WorkloadSpec, generate
from tests.conftest import doc_bytes, reference_index
from tests.test_label_plane import nat_doc, src_and_dst_entry


def prefix(engine, value, length):
    return engine.match(FieldConstraint.prefix("h", value, length))


def brute_partition(engine, preds):
    """Oracle: group headers by their evaluation vector over preds."""
    groups = {}
    for h in engine.layout.all_headers():
        key = tuple(engine.eval(p, h) for p in preds)
        groups.setdefault(key, set()).add(h.bits)
    return set(frozenset(g) for g in groups.values())


def atom_blocks(engine, atom_set):
    blocks = []
    for i in atom_set.order:
        pred = atom_set.pred_of(i)
        blocks.append(
            frozenset(h.bits for h in engine.layout.all_headers() if engine.eval(pred, h))
        )
    return set(blocks)


class TestComputeAtoms:
    def test_empty_refinement(self, small_engine):
        aset = compute_atoms(small_engine, [])
        assert len(aset) == 1
        assert aset.pred_of(aset.order[0]) == small_engine.true_

    def test_single_predicate(self, small_engine):
        aset = compute_atoms(small_engine, [prefix(small_engine, 8, 1)])
        assert len(aset) == 2

    def test_three_atom_example(self, small_engine):
        p1 = prefix(small_engine, 8, 1)  # 1***
        p2 = prefix(small_engine, 8, 2)  # 10**
        aset = compute_atoms(small_engine, [p1, p2])
        assert len(aset) == 3
        sat = [small_engine.sat_count(aset.pred_of(i)) for i in aset.order]
        assert sat == [4, 4, 8]  # 10**, 11**, 0***
        assert aset.members_of(p1) == {aset.order[0], aset.order[1]}
        assert aset.members_of(p2) == {aset.order[0]}

    def test_constant_members(self, small_engine):
        aset = compute_atoms(small_engine, [prefix(small_engine, 8, 1)])
        assert aset.members_of(small_engine.false_) == frozenset()
        assert aset.members_of(small_engine.true_) == frozenset(aset.order)

    def test_matches_brute_force_partition(self, small_engine):
        preds = [prefix(small_engine, 8, 1), prefix(small_engine, 8, 2),
                 prefix(small_engine, 4, 2)]
        aset = compute_atoms(small_engine, preds)
        assert atom_blocks(small_engine, aset) == brute_partition(small_engine, preds)

    def test_engine_mismatch(self, small_engine):
        other = Engine(HeaderLayout((("h", 4),)))
        with pytest.raises(EngineMismatch):
            compute_atoms(small_engine, [prefix(other, 8, 1)])


class TestAtomOfHeader:
    def test_single_atom(self, small_engine):
        aset = compute_atoms(small_engine, [])
        h = small_engine.layout.header_from_int(5)
        assert atom_of_header(aset, h) == aset.order[0]

    @pytest.mark.parametrize("value,expect_sat", [(0b1010, 4), (0b0111, 8)])
    def test_three_atom_lookup(self, small_engine, value, expect_sat):
        aset = compute_atoms(
            small_engine, [prefix(small_engine, 8, 1), prefix(small_engine, 8, 2)]
        )
        aid = atom_of_header(aset, small_engine.layout.header_from_int(value))
        assert small_engine.sat_count(aset.pred_of(aid)) == expect_sat


class TestPartitionProperties:
    def fixture_set(self, engine):
        preds = [prefix(engine, 8, 1), prefix(engine, 8, 2), prefix(engine, 2, 3)]
        return preds, compute_atoms(engine, preds)

    def test_pairwise_disjoint_and_exhaustive(self, small_engine):
        _, aset = self.fixture_set(small_engine)
        for i, j in itertools.combinations(aset.order, 2):
            assert (aset.pred_of(i) & aset.pred_of(j)) == small_engine.false_
        total = small_engine.false_
        for i in aset.order:
            total = total | aset.pred_of(i)
        assert total == small_engine.true_

    def test_membership_reconstruction(self, small_engine):
        preds, aset = self.fixture_set(small_engine)
        for p in preds:
            acc = small_engine.false_
            for i in aset.members_of(p):
                acc = acc | aset.pred_of(i)
            assert acc == p

    def test_behavioral_soundness(self, small_engine):
        preds, aset = self.fixture_set(small_engine)
        by_atom = {}
        for h in small_engine.layout.all_headers():
            by_atom.setdefault(atom_of_header(aset, h), []).append(h)
        for members in by_atom.values():
            for p in preds:
                vals = {small_engine.eval(p, h) for h in members}
                assert len(vals) == 1

    def test_minimality_by_evaluation_vector(self, small_engine):
        preds, aset = self.fixture_set(small_engine)

        def vector(i):
            return tuple(i in aset.members_of(p) for p in preds)

        vectors = [vector(i) for i in aset.order]
        assert len(set(vectors)) == len(vectors)


class TestRefine:
    def test_split_three_atoms(self, small_engine):
        p1, p2 = prefix(small_engine, 8, 1), prefix(small_engine, 8, 2)
        aset = compute_atoms(small_engine, [p1, p2])
        # bit1 = 1 cuts across every atom
        p3 = small_engine.match(FieldConstraint.range_("h", 2, 3)) | \
            small_engine.match(FieldConstraint.range_("h", 6, 7)) | \
            small_engine.match(FieldConstraint.range_("h", 10, 11)) | \
            small_engine.match(FieldConstraint.range_("h", 14, 15))
        new, splits = refine(aset, p3)
        assert len(new) == 6
        assert len(splits) == 3
        assert atom_blocks(small_engine, new) == brute_partition(
            small_engine, [p1, p2, p3]
        )
        # old memberships replaced by children
        for p in (p1, p2):
            acc = small_engine.false_
            for i in new.members_of(p):
                acc = acc | new.pred_of(i)
            assert acc == p

    def test_fresh_ids_follow_atom_order(self, small_engine):
        aset = compute_atoms(small_engine, [prefix(small_engine, 8, 1)])
        aset, _ = refine(aset, prefix(small_engine, 4, 2))  # 0*** -> 2, 3
        aset, _ = refine(aset, prefix(small_engine, 12, 2))  # 1*** -> 4, 5
        assert aset.order == (4, 5, 2, 3)
        odd = small_engine.false_
        for v in range(1, 16, 2):
            odd = odd | small_engine.match(FieldConstraint.exact("h", v))
        new, splits = refine(aset, odd)
        # ids are handed out along the order, not by old id
        assert splits == {4: (6, 7), 5: (8, 9), 2: (10, 11), 3: (12, 13)}
        assert new.order == tuple(range(6, 14))

    def test_duplicate_refine_is_noop(self, small_engine):
        p1 = prefix(small_engine, 8, 1)
        aset = compute_atoms(small_engine, [p1])
        new, splits = refine(aset, p1)
        assert splits == {}
        assert new.order == aset.order
        assert new.members_of(p1) == aset.members_of(p1)

    def test_drop_source(self, small_engine):
        p1, p2 = prefix(small_engine, 8, 1), prefix(small_engine, 8, 2)
        aset = compute_atoms(small_engine, [p1, p2])
        smaller = drop_source(aset, p2)
        assert smaller.order == aset.order  # partition untouched
        with pytest.raises(UnknownPredicate):
            smaller.members_of(p2)
        with pytest.raises(UnknownPredicate):
            drop_source(smaller, p2)


class Partition(NamedTuple):
    """What an AtomSet's equality compares: ids, predicates, order and
    bitset membership (bit i for atom id i)."""

    atoms: dict
    order: tuple
    membership: dict
    next_id: int


def partition(atom_set):
    return Partition(atom_set.atoms, atom_set.order, atom_set.membership,
                     atom_set.next_id)


def reference_atoms(engine, preds):
    """Iterative refinement starting from {true} (Yang & Lam).

    Each predicate splits every current atom into its inside and outside
    parts, keeping only nonempty ones.  Atom ids follow the final list
    order, which is deterministic in the order of preds.
    """
    for p in preds:
        if p.engine is not engine:
            raise EngineMismatch("predicate from a different engine")
    # each atom carries a bitmask of the predicates it is contained in, so
    # membership falls out of refinement without a second implication pass
    atoms = [(engine.true_, 0)]
    for k, p in enumerate(preds):
        bit = 1 << k
        refined = []
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
    membership = {}
    for k, p in enumerate(preds):
        membership[p.node] = sum(
            1 << i for i, (_, sig) in enumerate(atoms) if sig >> k & 1
        )
    return Partition(
        atoms={i: a for i, (a, _) in enumerate(atoms)},
        order=tuple(range(len(atoms))),
        membership=membership,
        next_id=len(atoms),
    )


def assert_same_atoms(got, want):
    assert got.order == want.order
    assert got.atoms == want.atoms
    assert got.membership == want.membership
    assert got.next_id == want.next_id


def pred_of_headers(engine, mask):
    """The predicate true exactly on the headers whose int is set in mask."""
    layout = engine.layout
    p = engine.false_
    for v in range(1 << layout.total_width):
        if mask >> v & 1:
            h = layout.header_from_int(v)
            p = p | engine.match_all(
                FieldConstraint.exact(name, layout.field_value(h, name))
                for name, _ in layout.fields
            )
    return p


@st.composite
def header_set_lists(draw, width):
    """Header-set masks to build predicates from, with false, true and
    repeats drawn often."""
    full = (1 << (1 << width)) - 1
    mask = st.one_of(st.just(0), st.just(full), st.integers(0, full))
    base = draw(st.lists(mask, max_size=6))
    repeats = draw(st.lists(st.sampled_from(base), max_size=2)) if base else []
    return draw(st.permutations(base + repeats))


LAYOUTS = {
    "one field": HeaderLayout((("h", 4),)),
    "two fields": HeaderLayout((("a", 2), ("b", 3))),
}


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compute_atoms_equals_refinement(layout, data):
    engine = Engine(layout)
    masks = data.draw(header_set_lists(layout.total_width))
    preds = [pred_of_headers(engine, m) for m in masks]
    aset = compute_atoms(engine, preds)
    assert_same_atoms(aset, reference_atoms(engine, preds))
    for h in layout.all_headers():
        assert aset.atom_of(h) == atom_of_header(aset, h)


def assert_index_is_reference(aset):
    # the store is hash-consed, so the reference recursion over the atoms'
    # BDDs, run in the same store, returns the root of an equal index
    pairs = [(i, aset.pred_of(i).node) for i in aset.order]
    assert reference_index(aset.store, aset.engine, pairs) == aset.index


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_compute_atoms_index_equals_reference(layout, data):
    engine = Engine(layout)
    masks = data.draw(header_set_lists(layout.total_width))
    assert_index_is_reference(compute_atoms(engine, [pred_of_headers(engine, m) for m in masks]))


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_refine_keeps_the_index_exact(layout, data):
    # after each refine the index names every header's atom, and it is the
    # reduced diagram: a fresh build in the same store returns its root
    engine = Engine(layout)
    masks = data.draw(header_set_lists(layout.total_width))
    aset = compute_atoms(engine, [])
    for m in masks:
        aset, _ = refine(aset, pred_of_headers(engine, m))
        for h in layout.all_headers():
            assert aset.atom_of(h) == atom_of_header(aset, h)
        pairs = ((i, aset.pred_of(i).node) for i in aset.order)
        assert reference_index(aset.store, engine, pairs) == aset.index


LANDS_LAYOUTS = {**LAYOUTS, "three fields": HeaderLayout((("a", 3), ("b", 2), ("c", 3)))}


@pytest.mark.parametrize("layout", LANDS_LAYOUTS.values(), ids=LANDS_LAYOUTS.keys())
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_lands_names_the_rewritten_headers_atoms(layout, data):
    # on an index from compute_atoms, refined once more, every atom's
    # headers with the constants written in land exactly in the atoms
    # lands names, and the walk makes no node and no op-cache entry
    engine = Engine(layout)
    masks = data.draw(header_set_lists(layout.total_width))
    aset = compute_atoms(engine, [pred_of_headers(engine, m) for m in masks[1:]])
    if masks:
        aset, _ = refine(aset, pred_of_headers(engine, masks[0]))
    names = [n for n, _ in layout.fields]
    fields = data.draw(st.lists(st.sampled_from(names), unique=True, max_size=len(names)))
    sets = [(n, data.draw(st.integers(0, (1 << layout.field_width(n)) - 1))) for n in fields]
    want = dict.fromkeys(aset.order, 0)
    for h in layout.all_headers():
        values = {n: layout.field_value(h, n) for n in names}
        values.update(sets)
        want[atom_of_header(aset, h)] |= 1 << atom_of_header(aset, layout.header(values))
    sizes = len(engine._var), len(engine._cache), len(aset.store)
    assert {i: aset.lands(aset.pred_of(i), sets) for i in aset.order} == want
    assert (len(engine._var), len(engine._cache), len(aset.store)) == sizes


def live_update_doc():
    doc, _, _ = generate(WorkloadSpec(
        2, box_count=30, rules_per_box=(20, 40), prefix_len=(1, 12), header_samples=0
    ))
    return doc


def seed_23_doc():
    doc, _, _ = generate(WorkloadSpec(
        23, box_count=50, rules_per_box=(100, 200), prefix_len=(1, 12), header_samples=0
    ))
    return doc


class TestComputeAtomsOnSnapshots:
    """perfbench's query and live-update snapshots and the seed-23 snapshot."""

    @pytest.mark.parametrize(
        "make_doc", [nat_doc, live_update_doc, seed_23_doc],
        ids=["query", "live-update", "seed-23"],
    )
    def test_compiled_predicates(self, make_doc):
        snap = parse_snapshot(doc_bytes(make_doc()))
        engine = Engine(snap.layout)
        preds = compile_network(snap, engine).all_preds
        assert_same_atoms(compute_atoms(engine, preds), reference_atoms(engine, preds))

    @pytest.mark.parametrize(
        "make_doc", [nat_doc, live_update_doc, seed_23_doc],
        ids=["query", "live-update", "seed-23"],
    )
    def test_index_equals_reference(self, make_doc):
        snap = parse_snapshot(doc_bytes(make_doc()))
        engine = Engine(snap.layout)
        assert_index_is_reference(compute_atoms(engine, compile_network(snap, engine).all_preds))

    def test_rewrite_closure_sources(self):
        # images that straddle atoms add preimages to the compiled predicates
        pipe = build_pipeline(parse_snapshot(doc_bytes(nat_doc(src_and_dst_entry))))
        assert len(pipe.sources) > len(pipe.compiled.all_preds)
        assert_same_atoms(pipe.atom_set, reference_atoms(pipe.engine, pipe.sources))
