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
from hypothesis import given, settings, strategies as st

from tests.conftest import (
    PathCopyingClassifier,
    reference_classify,
    reference_leaves,
)
from tests.test_atoms import LAYOUTS, Partition, partition, pred_of_headers
from tests.test_label_plane import nat_doc


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
        tree = build(aset)
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
        tree = build(aset)
        assert isinstance(tree.root, Internal)
        assert isinstance(tree.root.true_child, Leaf)
        assert isinstance(tree.root.false_child, Leaf)
        assert avg_leaf_depth(tree) == 1

    def test_degenerate_single_leaf(self, small_engine):
        aset = compute_atoms(small_engine, [])
        tree = build(aset)
        assert isinstance(tree.root, Leaf)
        assert avg_leaf_depth(tree) == 0

    def test_full_tree_over_independent_bits(self):
        layout = HeaderLayout((("a", 1), ("b", 1), ("c", 1)))
        engine = Engine(layout)
        preds = [
            engine.match(FieldConstraint.exact(f, 1)) for f in ("a", "b", "c")
        ]
        aset = compute_atoms(engine, preds)
        tree = build(aset)
        assert len(aset) == 8
        assert avg_leaf_depth(tree) == 3

    def test_pruning_discards_redundant_predicates(self, small_engine):
        # p2 subset of p1: the 0*** subtree never needs to test p2
        p1, p2 = prefix(small_engine, 8, 1), prefix(small_engine, 8, 2)
        aset = compute_atoms(small_engine, [p1, p2])
        tree = build(aset, strategy="order")
        assert isinstance(tree.root.false_child, Leaf)


class TestClassify:
    def test_three_atom_walks(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(aset)
        h = engine.layout.header_from_int(0b1010)
        assert classify(tree, h) == atom_of_header(aset, h)
        assert engine.sat_count(aset.pred_of(classify(tree, h))) == 4
        h2 = engine.layout.header_from_int(0b0111)
        assert engine.sat_count(aset.pred_of(classify(tree, h2))) == 8

    def test_single_leaf_any_header(self, small_engine):
        aset = compute_atoms(small_engine, [])
        tree = build(aset)
        for v in range(16):
            assert classify(tree, small_engine.layout.header_from_int(v)) == aset.order[0]

    def test_oracle_agreement_exhaustive(self, three_atoms):
        engine, preds, aset = three_atoms
        for strategy in (GREEDY, "order", RANDOM):
            tree = build(aset, strategy=strategy, seed=5)
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
        return build(aset), preds

    def test_path_soundness(self, small_engine):
        tree, _ = self.make_tree(small_engine)
        for leaf, conj in path_conjunctions(tree):
            assert conj == tree.atom_set.pred_of(leaf.atom)

    def test_pruned_form(self, small_engine):
        tree, _ = self.make_tree(small_engine)
        for leaf, conj in path_conjunctions(tree):
            assert not small_engine.is_false(conj)

    def test_strategy_dominance_directional(self, small_engine):
        tree, _ = self.make_tree(small_engine, n_preds=8, seed=3)
        greedy_depth = avg_leaf_depth(tree)
        depths = []
        for seed in range(20):
            t = build(tree.atom_set, strategy=RANDOM, seed=seed)
            depths.append(avg_leaf_depth(t))
        assert greedy_depth <= sum(depths) / len(depths)


class TestUpdates:
    def test_add_splits_straddled_leaves(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(aset)
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
        tree = build(aset)
        t2 = add_predicate(tree, preds[1])
        assert t2.root is tree.root
        assert t2.atom_set.members_of(preds[1]) == aset.members_of(preds[1])

    def test_sibling_versions_follow_only_their_own_grafts(self, three_atoms):
        # two adds to one version both split 10**, each its own way
        engine, preds, aset = three_atoms
        tree = build(aset)
        split_atom = tree.atom_set.atom_of(engine.layout.header_from_int(0b1000))
        a = add_predicate(tree, prefix(engine, 0b1000, 3))  # 100*
        b = add_predicate(tree, pred_of_headers(engine, 1 << 8 | 1 << 10))
        assert len(tree.grafts[split_atom]) == 2
        # and each branch splits its own child again
        a2 = add_predicate(a, pred_of_headers(engine, 1 << 8 | 1 << 12))
        b2 = add_predicate(b, pred_of_headers(engine, 1 << 10 | 1 << 11))
        # the parent sees neither graft, and each child only its own
        for t in (tree, a, b, a2, b2):
            assert sorted(i for i, _ in aptree.leaves(t)) == sorted(t.atom_set.order)
            for h in engine.layout.all_headers():
                assert classify(t, h) == atom_of_header(t.atom_set, h)

    def test_add_splits_only_straddled_leaves(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(aset)
        # 100*: inside 10**, disjoint from 11** and 0***
        p3 = prefix(engine, 0b1000, 3)
        t2 = add_predicate(tree, p3)
        assert len(t2.atom_set) == 4
        for h in engine.layout.all_headers():
            assert classify(t2, h) == atom_of_header(t2.atom_set, h)

    def test_remove_keeps_classification(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(aset)
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
        tree = build(aset)
        t2 = add_predicate(remove_predicate(tree, preds[1]), preds[1])
        for h in engine.layout.all_headers():
            assert classify(t2, h) == classify(tree, h)

    def test_remove_last_predicate(self, small_engine):
        p = prefix(small_engine, 8, 1)
        aset = compute_atoms(small_engine, [p])
        tree = build(aset)
        t2 = remove_predicate(tree, p)
        assert t2.sources == ()
        fresh = compute_atoms(small_engine, [])
        for i in t2.atom_set.order:
            assert small_engine.implies(t2.atom_set.pred_of(i), fresh.pred_of(0))

    def test_remove_unknown(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(aset)
        with pytest.raises(UnknownPredicate):
            remove_predicate(tree, prefix(engine, 0, 4))

    def test_add_constant_rejected(self, three_atoms):
        engine, preds, _ = three_atoms
        tree = build(compute_atoms(engine, preds))
        with pytest.raises(ValueError):
            add_predicate(tree, engine.true_)


class TestRebuild:
    def test_fixpoint_after_zero_updates(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(aset)
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
        tree = build(aset)
        for _ in range(6):
            p = prefix(small_engine, rng.getrandbits(4), rng.randint(1, 4))
            tree = add_predicate(tree, p)
        t2 = rebuild(tree)
        assert avg_leaf_depth(t2) <= avg_leaf_depth(tree)

    def test_rebuild_after_removal_coarsens(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(aset)
        t2 = rebuild(remove_predicate(tree, preds[1]))
        assert len(t2.atom_set) <= len(tree.atom_set)

    def test_update_rebuild_coherence(self, small_engine):
        rng = random.Random(23)
        preds = [prefix(small_engine, rng.getrandbits(4), rng.randint(1, 3))
                 for _ in range(4)]
        tree = build(compute_atoms(small_engine, preds))
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


def reference_refine(atom_set, p):
    """Yang & Lam's refinement step, conjoining p with every atom: the
    oracle for atoms.refine, which finds the straddled atoms by the index."""
    engine = atom_set.engine
    atoms = dict(atom_set.atoms)
    membership = dict(atom_set.membership)
    order, covered, next_id = [], 0, atom_set.next_id
    for i in atom_set.order:
        a = atom_set.atoms[i]
        t = engine.conj(a, p)
        if engine.is_false(t) or t == a:
            order.append(i)
            if t == a:
                covered |= 1 << i
            continue
        ti, fi = next_id, next_id + 1
        next_id += 2
        del atoms[i]
        atoms[ti], atoms[fi] = t, engine.diff(a, p)
        order += [ti, fi]
        covered |= 1 << ti
        for handle, bits in membership.items():
            if bits >> i & 1:
                membership[handle] = bits & ~(1 << i) | 1 << ti | 1 << fi
    membership[p.node] = covered
    return Partition(atoms, tuple(order), membership, next_id)


def by_function(part):
    """A partition with atom ids forgotten: atom predicates in order, and
    each source's atoms as a set of predicates."""
    preds = [part.atoms[i] for i in part.order]
    return preds, {
        handle: frozenset(part.atoms[i] for i in atoms.ids_of(bits))
        for handle, bits in part.membership.items()
    }


def writer_ops(width):
    """One update: add a header set, re-add or remove the k-th live source
    (k modulo the live count), or remove it and add it back."""
    full = (1 << (1 << width)) - 1
    return st.one_of(
        st.tuples(st.just("add"), st.integers(0, full)),
        st.tuples(st.sampled_from(["readd", "remove", "remove+add"]), st.integers(0, 50)),
    )


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_writer_streams_equal_the_reference(layout, data):
    """Random add/remove streams against reference_refine, exactly, after
    every update; then two versions refined from the last one."""
    engine = Engine(layout)
    width = layout.total_width
    full = (1 << (1 << width)) - 1
    start = data.draw(st.lists(st.integers(1, full - 1), max_size=4))
    aset = compute_atoms(engine, [pred_of_headers(engine, m) for m in start])
    for op, arg in data.draw(st.lists(writer_ops(width), max_size=12)):
        live = aset.sources
        if op == "add" or not live:
            steps = [("add", pred_of_headers(engine, arg if op == "add" else 0))]
        else:
            p = live[arg % len(live)]
            steps = {"readd": [("add", p)], "remove": [("remove", p)],
                     "remove+add": [("remove", p), ("add", p)]}[op]
        for kind, p in steps:
            if kind == "add":
                expected = reference_refine(aset, p)
                aset, _ = atoms.refine(aset, p)
            else:
                before = partition(aset)
                expected = before._replace(membership={
                    h: b for h, b in before.membership.items() if h != p.node})
                aset = atoms.drop_source(aset, p)
            assert partition(aset) == expected
            assert len(aset) == len(expected.order)
    for h in layout.all_headers():
        assert aset.atom_of(h) == atom_of_header(aset, h)
    # two versions refined from one parent share no new id, and each
    # equals its own reference (the second one up to its ids)
    p, q = (pred_of_headers(engine, data.draw(st.integers(0, full))) for _ in "pq")
    want_a, want_b = reference_refine(aset, p), reference_refine(aset, q)
    a, _ = atoms.refine(aset, p)
    b, _ = atoms.refine(aset, q)
    assert not (set(a.order) - set(aset.order)) & (set(b.order) - set(aset.order))
    assert partition(a) == want_a
    assert by_function(partition(b)) == by_function(want_b)


@pytest.mark.parametrize("layout", LAYOUTS.values(), ids=LAYOUTS.keys())
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_grafted_updates_equal_path_copying(layout, data):
    """Random add/remove streams through PublishedClassifier, rebuilds
    included, against the path-copying reference after every update: leaf
    multiset, depth sum, rebuild triggers and every header's atom; then
    every published version again, after all the later updates."""
    engine = Engine(layout)
    width = layout.total_width
    full = (1 << (1 << width)) - 1
    start = [pred_of_headers(engine, m)
             for m in data.draw(st.lists(st.integers(1, full - 1), max_size=4))]
    rebuild_after = data.draw(st.integers(2, 12))
    pc = PublishedClassifier(build(compute_atoms(engine, start)), rebuild_after)
    ref = PathCopyingClassifier(build(compute_atoms(engine, start)), rebuild_after)
    headers = list(layout.all_headers())
    versions = [(pc.tree, ref.tree)]
    for op, arg in data.draw(st.lists(writer_ops(width), max_size=16)):
        live = pc.tree.sources
        if op == "add" or not live:
            p = pred_of_headers(engine, arg if op == "add" else 0)
            steps = [] if p.node in (0, 1) else [("add", p)]
        else:
            p = live[arg % len(live)]
            steps = {"readd": [("add", p)], "remove": [("remove", p)],
                     "remove+add": [("remove", p), ("add", p)]}[op]
        for kind, p in steps:
            tree = (pc.add if kind == "add" else pc.remove)(p)
            want = (ref.add if kind == "add" else ref.remove)(p)
            assert sorted(aptree.leaves(tree)) == sorted(reference_leaves(want))
            assert tree.depth_sum == want.depth_sum
            assert [(r["trigger"], r["update"]) for r in pc.rebuilds] == ref.triggers
            for h in headers:
                assert classify(tree, h) == reference_classify(want, h)
            versions.append((tree, want))
    for tree, want in versions:
        for h in headers:
            assert classify(tree, h) == reference_classify(want, h) \
                == atom_of_header(tree.atom_set, h)


class CountedApplies:
    """Counts the engine's public BDD operations while it is installed."""

    OPS = ("conj", "disj", "neg", "diff", "split", "exists", "implies")

    def __init__(self, engine, monkeypatch):
        self.calls = dict.fromkeys(self.OPS, 0)
        for op in self.OPS:
            monkeypatch.setattr(engine, op, self._counted(op, getattr(engine, op)))

    def _counted(self, op, fn):
        def counted(*args):
            self.calls[op] += 1
            return fn(*args)
        return counted


class TestExactWriterPath:
    """The index-guided add and the rebuild against their references:
    refinement by every atom, compute_atoms, and the leaf walk."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_update_stream(self, seed, monkeypatch):
        pipe, ops = criterion_5_stream(seed)
        tree = pipe.tree
        for k, (op, pred) in enumerate(ops):
            if op == "add":
                expected = reference_refine(tree.atom_set, pred)
                applies = CountedApplies(pipe.engine, monkeypatch)
                before = len(tree.atom_set)
                tree = add_predicate(tree, pred)
                monkeypatch.undo()
                # one split per straddled atom, and nothing else
                split = len(tree.atom_set) - before
                assert applies.calls == dict(
                    dict.fromkeys(CountedApplies.OPS, 0), split=split
                )
                assert partition(tree.atom_set) == expected
            else:
                tree = remove_predicate(tree, pred)
            assert Fraction(tree.depth_sum, len(tree.atom_set)) == avg_leaf_depth(tree)
            if k % 250 == 249:
                fresh = compute_atoms(pipe.engine, tree.sources)
                rebuilt = rebuild(tree)
                assert rebuilt.atom_set == fresh
                assert rebuilt.depth_sum == sum(d for _, d in aptree.leaves(rebuilt))

    def test_rebuild_without_sources_is_one_atom(self, three_atoms):
        engine, preds, aset = three_atoms
        tree = build(aset)
        for p in preds:
            tree = remove_predicate(tree, p)
        rebuilt = rebuild(tree)
        assert rebuilt.atom_set == compute_atoms(engine, [])
        assert rebuilt.root == Leaf(rebuilt.atom_set.order[0])


class TestAtomIndex:
    """The writer's atom index against the linear-scan oracle, on the
    criterion-5 streams."""

    @pytest.mark.parametrize("seed", [0, 1])
    def test_index_follows_the_stream(self, seed):
        pipe, ops = criterion_5_stream(seed)
        layout = pipe.snapshot.layout
        rng = random.Random(seed)
        pool = [layout.header({name: rng.getrandbits(w) for name, w in layout.fields})
                for _ in range(4000)]
        classifier = PublishedClassifier(pipe.tree, rebuild_after=256)
        engine = pipe.engine
        for k, (op, pred) in enumerate(ops):
            (classifier.add if op == "add" else classifier.remove)(pred)
            aset = classifier.tree.atom_set
            # atoms are disjoint, so the index's atom is atom_of_header's
            # exactly when it holds on the header; the scan itself runs on
            # every 25th update
            for h in rng.sample(pool, 200):
                aid = aset.atom_of(h)
                assert engine.eval(aset.pred_of(aid), h)
                if k % 25 == 0:
                    assert aid == atom_of_header(aset, h)
            if classifier.rebuilds and classifier.rebuilds[-1]["update"] == classifier.updates:
                # a rebuild starts a fresh store, holding only the fresh index
                fresh = compute_atoms(pipe.engine, classifier.tree.sources)
                assert len(aset.store) == len(fresh.store)
        assert classifier.rebuild_count >= 3


class TestOpCacheLifetime:
    """Set-up, updates and rebuilds make no cached apply: the op cache
    serves only the public predicate algebra."""

    def assert_cache_stays_empty(self, doc):
        # perfbench's update stream for the 30-box snapshot, balanced; the
        # generator draws it after the snapshot, so it applies to any
        # snapshot made from that one
        _, updates, _ = generate(
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
            peak = max(peak, len(engine._cache))
        assert classifier.rebuild_count >= 4
        assert peak == 0
        tree = classifier.tree
        rng = random.Random(3)
        for _ in range(300):
            h = layout.header({name: rng.getrandbits(w) for name, w in layout.fields})
            assert classify(tree, h) == atom_of_header(tree.atom_set, h)

    def test_cache_ends_with_each_build_and_rebuild(self):
        # perfbench's live-update snapshot: no rewriter
        doc, _, _ = generate(WorkloadSpec(seed=2, box_count=30, rules_per_box=(20, 40),
                                          prefix_len=(1, 12), header_samples=0))
        self.assert_cache_stays_empty(doc)

    def test_nat_snapshot_closure_caches_nothing(self):
        # perfbench's query snapshot: its 3 NAT boxes run the rewrite closure
        self.assert_cache_stays_empty(nat_doc())


class TestPublishedClassifier:
    def test_publication_and_rebuild_trigger(self, three_atoms):
        engine, preds, aset = three_atoms
        pc = PublishedClassifier(build(aset), rebuild_after=3)
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
            build(compute_atoms(small_engine, [p]))
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
        pc = PublishedClassifier(build(aset))
        p3 = prefix(engine, 0b1000, 3)
        pc.add(p3)
        pc.remove(p3)
        pc.rebuild()
        assert pc.rebuild_count == 1

    def test_concurrent_queries_during_updates(self, three_atoms):
        import threading

        engine, preds, aset = three_atoms
        pc = PublishedClassifier(build(aset), rebuild_after=4)
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
