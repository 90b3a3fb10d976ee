import itertools

import pytest

from atomtrace.atoms import (
    UnknownPredicate,
    atom_of_header,
    compute_atoms,
    drop_source,
    refine,
)
from atomtrace.bdd import Engine, EngineMismatch, FieldConstraint, HeaderLayout


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
