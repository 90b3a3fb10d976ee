import random
import sys
from fractions import Fraction

import pytest

from atomtrace import aptree, atoms
from atomtrace.aptree import (
    GREEDY,
    RANDOM,
    Internal,
    Leaf,
    PublishedClassifier,
    add_predicate,
    avg_leaf_depth,
    build,
    classify,
    rebuild,
    remove_predicate,
)
from atomtrace.atoms import UnknownPredicate, atom_of_header, compute_atoms
from atomtrace.bdd import Engine, FieldConstraint, HeaderLayout
from atomtrace.model import _parse_match, parse_snapshot
from atomtrace.pipeline import build_pipeline
from atomtrace.workload import WorkloadSpec, generate, snapshot_bytes


def prefix(engine, value, length):
    return engine.match(FieldConstraint.prefix("h", value, length))


@pytest.fixture
def three_atoms(small_engine):
    p1 = prefix(small_engine, 8, 1)
    p2 = prefix(small_engine, 8, 2)
    aset = compute_atoms(small_engine, [p1, p2])
    return small_engine, [p1, p2], aset


class TestBuild:
    def test_greedy_shape_on_three_atoms(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        # root tests 1*** (tie broken by lower index); its true child splits
        # on 10**; false child is the 0*** leaf
        assert isinstance(tree.root, Internal)
        assert tree.root.pred == preds[0]
        assert isinstance(tree.root.true_child, Internal)
        assert tree.root.true_child.pred == preds[1]
        assert isinstance(tree.root.true_child.true_child, Leaf)
        assert isinstance(tree.root.false_child, Leaf)
        assert avg_leaf_depth(tree) == Fraction(5, 3)

    def test_single_split(self, small_engine):
        p = prefix(small_engine, 8, 1)
        aset = compute_atoms(small_engine, [p])
        tree = build(small_engine, aset, [p])
        assert isinstance(tree.root, Internal)
        assert isinstance(tree.root.true_child, Leaf)
        assert isinstance(tree.root.false_child, Leaf)
        assert avg_leaf_depth(tree) == 1

    def test_degenerate_single_leaf(self, small_engine):
        aset = compute_atoms(small_engine, [])
        tree = build(small_engine, aset, [])
        assert isinstance(tree.root, Leaf)
        assert avg_leaf_depth(tree) == 0

    def test_full_tree_over_independent_bits(self):
        layout = HeaderLayout((("a", 1), ("b", 1), ("c", 1)))
        engine = Engine(layout)
        preds = [
            engine.match(FieldConstraint.exact(f, 1)) for f in ("a", "b", "c")
        ]
        aset = compute_atoms(engine, preds)
        tree = build(engine, aset, preds)
        assert len(aset) == 8
        assert avg_leaf_depth(tree) == 3

    def test_pruning_discards_redundant_predicates(self, small_engine):
        # p2 subset of p1: the 0*** subtree never needs to test p2
        p1, p2 = prefix(small_engine, 8, 1), prefix(small_engine, 8, 2)
        aset = compute_atoms(small_engine, [p1, p2])
        tree = build(small_engine, aset, [p1, p2], strategy="order")
        assert isinstance(tree.root.false_child, Leaf)


class TestClassify:
    def test_three_atom_walks(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        h = engine.layout.header_from_int(0b1010)
        assert classify(tree, h) == atom_of_header(aset, h)
        assert engine.sat_count(aset.pred_of(classify(tree, h))) == 4
        h2 = engine.layout.header_from_int(0b0111)
        assert engine.sat_count(aset.pred_of(classify(tree, h2))) == 8

    def test_single_leaf_any_header(self, small_engine):
        aset = compute_atoms(small_engine, [])
        tree = build(small_engine, aset, [])
        for v in range(16):
            assert classify(tree, small_engine.layout.header_from_int(v)) == aset.order[0]

    def test_oracle_agreement_exhaustive(self, three_atoms):
        engine, preds, aset = three_atoms
        for strategy in (GREEDY, "order", RANDOM):
            tree = build(engine, aset, preds, strategy=strategy, seed=5)
            for h in engine.layout.all_headers():
                assert classify(tree, h) == atom_of_header(aset, h)


def path_conjunctions(tree):
    """(leaf, conjunction-of-path-literals) pairs."""
    engine = tree.engine
    out = []

    def walk(node, acc):
        if isinstance(node, Leaf):
            out.append((node, acc))
            return
        walk(node.true_child, acc & node.pred)
        walk(node.false_child, acc & ~node.pred)

    walk(tree.root, engine.true_)
    return out


class TestInvariants:
    def make_tree(self, engine, n_preds=6, seed=0):
        rng = random.Random(seed)
        preds = []
        for _ in range(n_preds):
            length = rng.randint(1, 3)
            preds.append(prefix(engine, rng.getrandbits(4), length))
        aset = compute_atoms(engine, preds)
        return build(engine, aset, preds), preds

    def test_path_soundness(self, small_engine):
        tree, _ = self.make_tree(small_engine)
        for leaf, conj in path_conjunctions(tree):
            assert conj == tree.atom_set.pred_of(leaf.atom)

    def test_pruned_form(self, small_engine):
        tree, _ = self.make_tree(small_engine)
        for leaf, conj in path_conjunctions(tree):
            assert not small_engine.is_false(conj)

    def test_strategy_dominance_directional(self, small_engine):
        tree, preds = self.make_tree(small_engine, n_preds=8, seed=3)
        greedy_depth = avg_leaf_depth(tree)
        depths = []
        for seed in range(20):
            t = build(small_engine, tree.atom_set, preds, strategy=RANDOM, seed=seed)
            depths.append(avg_leaf_depth(t))
        assert greedy_depth <= sum(depths) / len(depths)


class TestUpdates:
    def test_add_splits_straddled_leaves(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        depths_before = dict(aptree.leaves(tree))
        # bit1 = 1: {2,3,6,7,10,11,14,15}, straddles all three atoms
        p3 = engine.match(FieldConstraint.range_("h", 2, 3)) \
            | engine.match(FieldConstraint.range_("h", 6, 7)) \
            | engine.match(FieldConstraint.range_("h", 10, 11)) \
            | engine.match(FieldConstraint.range_("h", 14, 15))
        t2 = add_predicate(tree, p3)
        assert len(t2.atom_set) == 6
        assert t2.structural_updates == 1
        for h in engine.layout.all_headers():
            assert classify(t2, h) == atom_of_header(t2.atom_set, h)
        # every new leaf is exactly one deeper than the leaf it split
        for atom, depth in aptree.leaves(t2):
            if atom in depths_before:
                assert depth == depths_before[atom]
            else:
                assert depth >= 2

    def test_add_duplicate_is_structural_noop(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        t2 = add_predicate(tree, preds[1])
        assert t2.root is tree.root
        assert t2.atom_set.members_of(preds[1]) == aset.members_of(preds[1])

    def test_add_splits_only_straddled_leaves(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        # 100*: inside 10**, disjoint from 11** and 0***
        p3 = prefix(engine, 0b1000, 3)
        t2 = add_predicate(tree, p3)
        assert len(t2.atom_set) == 4
        for h in engine.layout.all_headers():
            assert classify(t2, h) == atom_of_header(t2.atom_set, h)

    def test_remove_keeps_classification(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        t2 = remove_predicate(tree, preds[1])
        for v in (0b1010, 0b1000):
            h = engine.layout.header_from_int(v)
            assert classify(t2, h) == classify(tree, h)
        # each cell still lies inside one atom of the remaining predicate set
        fresh = compute_atoms(engine, [p for p in preds if p != preds[1]])
        for i in t2.atom_set.order:
            cell = t2.atom_set.pred_of(i)
            containing = [
                j for j in fresh.order if engine.implies(cell, fresh.pred_of(j))
            ]
            assert len(containing) == 1

    def test_remove_then_readd_unchanged(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        t2 = add_predicate(remove_predicate(tree, preds[1]), preds[1])
        for h in engine.layout.all_headers():
            assert classify(t2, h) == classify(tree, h)

    def test_remove_last_predicate(self, small_engine):
        p = prefix(small_engine, 8, 1)
        aset = compute_atoms(small_engine, [p])
        tree = build(small_engine, aset, [p])
        t2 = remove_predicate(tree, p)
        assert t2.sources == ()
        fresh = compute_atoms(small_engine, [])
        for i in t2.atom_set.order:
            assert small_engine.implies(t2.atom_set.pred_of(i), fresh.pred_of(0))

    def test_remove_unknown(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        with pytest.raises(UnknownPredicate):
            remove_predicate(tree, prefix(engine, 0, 4))

    def test_add_constant_rejected(self, three_atoms):
        engine, preds, _ = three_atoms
        tree = build(engine, compute_atoms(engine, preds), preds)
        with pytest.raises(ValueError):
            add_predicate(tree, engine.true_)


class TestRebuild:
    def test_fixpoint_after_zero_updates(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        t2 = rebuild(tree)
        assert t2.version == tree.version + 1
        assert avg_leaf_depth(t2) == avg_leaf_depth(tree)
        for h in engine.layout.all_headers():
            assert engine.sat_count(t2.atom_set.pred_of(classify(t2, h))) == \
                engine.sat_count(tree.atom_set.pred_of(classify(tree, h)))

    def test_rebuild_never_deeper_than_incremental(self, small_engine):
        rng = random.Random(11)
        preds = [prefix(small_engine, rng.getrandbits(4), rng.randint(1, 3))
                 for _ in range(3)]
        aset = compute_atoms(small_engine, preds)
        tree = build(small_engine, aset, preds)
        for _ in range(6):
            p = prefix(small_engine, rng.getrandbits(4), rng.randint(1, 4))
            tree = add_predicate(tree, p)
        t2 = rebuild(tree)
        assert avg_leaf_depth(t2) <= avg_leaf_depth(tree)

    def test_rebuild_after_removal_coarsens(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(engine, aset, preds)
        t2 = rebuild(remove_predicate(tree, preds[1]))
        assert len(t2.atom_set) <= len(tree.atom_set)

    def test_update_rebuild_coherence(self, small_engine):
        rng = random.Random(23)
        preds = [prefix(small_engine, rng.getrandbits(4), rng.randint(1, 3))
                 for _ in range(4)]
        tree = build(small_engine, compute_atoms(small_engine, preds), preds)
        live = list(preds)
        for _ in range(20):
            if live and rng.random() < 0.4:
                p = live.pop(rng.randrange(len(live)))
                tree = remove_predicate(tree, p)
            else:
                p = prefix(small_engine, rng.getrandbits(4), rng.randint(1, 4))
                if small_engine.is_true(p) or small_engine.is_false(p):
                    continue
                if all(q.node != p.node for q in live):
                    live.append(p)
                    tree = add_predicate(tree, p)
        fresh = compute_atoms(small_engine, tree.sources)
        for i in tree.atom_set.order:
            cell = tree.atom_set.pred_of(i)
            containing = [
                j for j in fresh.order
                if small_engine.implies(cell, fresh.pred_of(j))
            ]
            assert len(containing) == 1
        # classification consistent between incremental and rebuilt trees
        t2 = rebuild(tree)
        for h in small_engine.layout.all_headers():
            cell = tree.atom_set.pred_of(classify(tree, h))
            fresh_atom = t2.atom_set.pred_of(classify(t2, h))
            assert small_engine.implies(cell, fresh_atom)


def criterion_5_stream(seed):
    """The update-correctness acceptance stream: 1,000 mixed updates."""
    doc, updates, _ = generate(
        WorkloadSpec(seed=seed, box_count=8, rules_per_box=(5, 15),
                     prefix_len=(1, 16), update_count=1000, header_samples=0)
    )
    pipe = build_pipeline(parse_snapshot(snapshot_bytes(doc)))
    layout = pipe.snapshot.layout
    ops = [(u["op"], pipe.engine.match_all(_parse_match(u["pred"], layout, "update")))
           for u in updates]
    return pipe, ops


class TestExactWriterPath:
    """The tree-guided add and the merge rebuild against their references:
    atoms.refine over every atom, compute_atoms, and the leaf walk."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_update_stream(self, seed):
        pipe, ops = criterion_5_stream(seed)
        tree = pipe.tree
        for k, (op, pred) in enumerate(ops):
            if op == "add":
                expected, _ = atoms.refine(tree.atom_set, pred)
                tree = add_predicate(tree, pred)
                assert tree.atom_set == expected  # ids, predicates, order, membership
            else:
                tree = remove_predicate(tree, pred)
            assert Fraction(tree.depth_sum, len(tree.atom_set)) == avg_leaf_depth(tree)
            if k % 250 == 249:
                fresh = compute_atoms(pipe.engine, tree.sources)
                rebuilt = rebuild(tree)
                assert rebuilt.atom_set == fresh
                assert rebuilt.depth_sum == sum(d for _, d in aptree.leaves(rebuilt))

    def test_merge_without_sources_is_one_atom(self, three_atoms):
        engine, preds, aset = three_atoms
        assert atoms.merge(aset, []) == compute_atoms(engine, [])


class TestOpCacheLifetime:
    def test_cache_ends_with_each_build_and_rebuild(self):
        # perfbench's live-update snapshot under a balanced update stream
        doc, updates, _ = generate(
            WorkloadSpec(seed=2, box_count=30, rules_per_box=(20, 40),
                         prefix_len=(1, 12), update_count=2000, add_ratio=0.5,
                         header_samples=0)
        )
        pipe = build_pipeline(parse_snapshot(snapshot_bytes(doc)))
        engine = pipe.engine
        assert len(engine._cache) == 0
        layout = pipe.snapshot.layout
        ops = [(u["op"], engine.match_all(_parse_match(u["pred"], layout, "update")))
               for u in updates]
        classifier = PublishedClassifier(pipe.tree, rebuild_after=256)
        peak = 0
        for op, pred in ops:
            (classifier.add if op == "add" else classifier.remove)(pred)
            if classifier.rebuilds and classifier.rebuilds[-1]["update"] == classifier.updates:
                assert len(engine._cache) == 0
            peak = max(peak, len(engine._cache))
        assert classifier.rebuild_count >= 4
        assert peak < 50_000
        tree = classifier.tree
        rng = random.Random(3)
        for _ in range(300):
            h = layout.header({name: rng.getrandbits(w) for name, w in layout.fields})
            assert classify(tree, h) == atom_of_header(tree.atom_set, h)


class TestPublishedClassifier:
    def test_publication_and_rebuild_trigger(self, three_atoms):
        engine, preds, aset = three_atoms
        pc = PublishedClassifier(build(engine, aset, preds), rebuild_after=3)
        v0 = pc.tree.version
        rng = random.Random(1)
        for _ in range(3):
            pc.add(prefix(engine, rng.getrandbits(4), rng.randint(1, 4)))
        assert pc.rebuild_count >= 1
        assert pc.tree.version > v0
        assert pc.tree.structural_updates == 0
        assert [r["trigger"] for r in pc.rebuilds] == ["count"]
        assert pc.rebuilds[0]["update"] == 3
        pc.rebuild()
        assert [r["trigger"] for r in pc.rebuilds] == ["count", "manual"]
        assert all(r["ms"] >= 0 for r in pc.rebuilds)

    def test_depth_trigger(self, small_engine):
        p = prefix(small_engine, 8, 1)
        pc = PublishedClassifier(
            build(small_engine, compute_atoms(small_engine, [p]), [p])
        )
        # 11** splits the 1*** leaf: average depth 1 -> 5/3, past 1.5x
        pc.add(prefix(small_engine, 12, 2))
        assert pc.rebuilds == [
            {"trigger": "depth", "update": 1, "ms": pc.rebuilds[0]["ms"]}
        ]

    def test_updates_leave_the_switch_interval_alone(self, three_atoms, monkeypatch):
        def refuse(interval):
            raise AssertionError("the writer changed the interpreter switch interval")

        monkeypatch.setattr(sys, "setswitchinterval", refuse)
        engine, preds, aset = three_atoms
        pc = PublishedClassifier(build(engine, aset, preds))
        p3 = prefix(engine, 0b1000, 3)
        pc.add(p3)
        pc.remove(p3)
        pc.rebuild()
        assert pc.rebuild_count == 1

    def test_concurrent_queries_during_updates(self, three_atoms):
        import threading

        engine, preds, aset = three_atoms
        pc = PublishedClassifier(build(engine, aset, preds), rebuild_after=4)
        errors = []
        stop = threading.Event()

        def reader():
            headers = [engine.layout.header_from_int(v) for v in range(16)]
            while not stop.is_set():
                tree = pc.tree
                for h in headers:
                    if classify(tree, h) != atom_of_header(tree.atom_set, h):
                        errors.append(h)

        threads = [threading.Thread(target=reader) for _ in range(4)]
        for t in threads:
            t.start()
        rng = random.Random(2)
        added = []
        for _ in range(30):
            if added and rng.random() < 0.3:
                pc.remove(added.pop())
            else:
                p = prefix(engine, rng.getrandbits(4), rng.randint(1, 4))
                if p.node not in (0, 1) and all(q.node != p.node for q in pc.tree.sources):
                    pc.add(p)
                    added.append(p)
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
