import copy
import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import event, find, given, settings, strategies as st

from atomtrace.atoms import atom_of_header, compute_atoms
from atomtrace import pipeline
from atomtrace.behavior import BoxTable, Delivered, Dropped, trace
from atomtrace.bdd import Engine, FieldConstraint, HeaderLayout
from atomtrace.label_plane import (
    LabeledPacket,
    decode_report,
    equivalence_check,
    serialize_tables,
    simulate_cloud,
)
from atomtrace.model import RewriteSpec, compile_network, parse_snapshot
from atomtrace.pipeline import build_pipeline
from atomtrace.workload import generate
from tests.conftest import REWRITE_DOC, atoms_by_predicate, doc_bytes
from workloads import WORKLOADS, add_nat_rewriters, snapshot_spec


def atoms_by_rep(pipe, *values):
    layout = pipe.snapshot.layout
    return [
        atom_of_header(pipe.atom_set, layout.header_from_int(v)) for v in values
    ]


class TestBuildPlane:
    def test_three_atom_tables(self, two_box_pipeline):
        pipe = two_box_pipeline
        plane = pipe.label_plane(agent_key=1)
        a10, a11, a0 = atoms_by_rep(pipe, 0b1010, 0b1100, 0b0001)
        assert len({plane.encode(a) for a in (a10, a11, a0)}) == 3
        s1 = plane.box_tables["s1"]
        assert s1.forward[plane.encode(a10)] == "p1"
        assert s1.forward[plane.encode(a11)] == "p1"
        s2 = plane.box_tables["s2"]
        assert s2.forward[plane.encode(a10)] == "pext"
        assert plane.encode(a11) not in s2.forward

    def test_firewall_permit_label_set(self, two_box_pipeline):
        pipe = two_box_pipeline
        plane = pipe.label_plane(agent_key=1)
        a10, a11, a0 = atoms_by_rep(pipe, 0b1010, 0b1100, 0b0001)
        permit = plane.box_tables["s1"].acl_permit[("ext", "in")]
        assert permit == {plane.encode(a10), plane.encode(a0)}

    def test_key_changes_values_not_structure(self, two_box_pipeline):
        pipe = two_box_pipeline
        p1 = pipe.label_plane(agent_key=1)
        p2 = pipe.label_plane(agent_key=2)
        assert set(p1.label_of) == set(p2.label_of)
        assert p1.label_of != p2.label_of
        for box in p1.box_tables:
            t1, t2 = p1.box_tables[box], p2.box_tables[box]
            remap = {p1.label_of[a]: p2.label_of[a] for a in p1.label_of}
            assert {remap[l]: p for l, p in t1.forward.items()} == t2.forward

    def test_label_bijectivity(self, two_box_pipeline):
        plane = two_box_pipeline.label_plane(agent_key=9)
        for atom in plane.label_of:
            assert plane.decode(plane.encode(atom)) == atom
        assert len(set(plane.label_of.values())) == len(plane.label_of)


class TestRewriteImage:
    """AtomSet.lands: the atoms a rewriter atom's headers land in."""

    def test_clear_top_bit(self):
        layout = HeaderLayout((("hi", 1), ("lo", 3)))
        engine = Engine(layout)
        p_match = engine.match(FieldConstraint.exact("hi", 1)) & engine.match(
            FieldConstraint.prefix("lo", 0, 1)
        )  # 10**
        p_other = engine.match(FieldConstraint.exact("hi", 0))  # 0***
        aset = compute_atoms(engine, [p_match, p_other])
        src = next(i for i in aset.order if aset.pred_of(i) == p_match)
        dst = next(i for i in aset.order if aset.pred_of(i) == p_other)
        assert aset.lands(aset.pred_of(src), (("hi", 0),)) == 1 << dst

    def test_non_intersecting_atom_rejected(self, rewrite_pipeline):
        # lands reads no match: the hi=0 atom's headers land in it whatever
        # the rewrite, but the closure walks only the match's members, so
        # the atom has no entry in the rewriter's table
        pipe = rewrite_pipeline
        (outside,) = atoms_by_rep(pipe, 0b0101)
        spec = pipe.snapshot.boxes[0].rewrite
        assert pipe.atom_set.lands(pipe.atom_set.pred_of(outside), spec.sets) == 1 << outside
        assert outside not in pipe.bmap.atom_rewrite["r1"]

    def test_identity_rewrite_is_fixpoint(self):
        layout = HeaderLayout((("hi", 1), ("lo", 3)))
        engine = Engine(layout)
        p_match = engine.match(FieldConstraint.exact("hi", 1))
        aset = compute_atoms(engine, [p_match])
        src = next(i for i in aset.order if aset.pred_of(i) == p_match)
        assert aset.lands(aset.pred_of(src), (("hi", 1),)) == 1 << src

    def test_image_split_detected(self):
        layout = HeaderLayout((("hi", 1), ("lo", 3)))
        engine = Engine(layout)
        # sources split the hi=0 space into two atoms; clearing hi on the
        # whole hi=1 atom straddles them
        p_match = engine.match(FieldConstraint.exact("hi", 1))
        p_half = engine.match(FieldConstraint.exact("hi", 0)) & engine.match(
            FieldConstraint.prefix("lo", 0, 1)
        )
        aset = compute_atoms(engine, [p_match, p_half])
        spec = RewriteSpec(match=(FieldConstraint.exact("hi", 1),), sets=(("hi", 0),))
        src = next(i for i in aset.order if aset.pred_of(i) == p_match)
        reached = aset.lands(aset.pred_of(src), spec.sets)
        image = reference_image(engine, aset.pred_of(src), spec)
        assert reached == sum(1 << i for i in aset.order
                              if not engine.is_false(image & aset.pred_of(i)))
        assert reached.bit_count() == 2 and not reached >> src & 1

    def test_contained_image_adds_no_node(self):
        layout = HeaderLayout((("src", 4), ("dst", 4)))
        engine = Engine(layout)
        preds = [engine.match(FieldConstraint.prefix("dst", v, n))
                 for v, n in ((0b1000, 1), (0b1100, 2), (0b0010, 3))]
        aset = compute_atoms(engine, preds)
        for aid in aset.members_of(preds[0]):
            sizes = len(engine._var), len(engine._cache), len(aset.store)
            assert aset.lands(aset.pred_of(aid), (("src", 0b0110),)) == 1 << aid
            assert (len(engine._var), len(engine._cache), len(aset.store)) == sizes

    def test_contained_nat_images_add_no_node(self):
        # perfbench's query snapshot, with each NAT box's src constant
        # replaced by one no source was built with
        pipe = build_pipeline(parse_snapshot(doc_bytes(nat_doc())))
        engine, aset = pipe.engine, pipe.atom_set
        checked = 0
        for box in pipe.snapshot.boxes:
            if box.rewrite is None:
                continue
            (name, value), = box.rewrite.sets
            sets = ((name, value ^ 0x5A5A5A5A),)
            for aid in aset.members_of(pipe.compiled.rewrite_match[box.id]):
                sizes = len(engine._var), len(engine._cache), len(aset.store)
                assert aset.lands(aset.pred_of(aid), sets) == 1 << aid
                assert (len(engine._var), len(engine._cache), len(aset.store)) == sizes
                checked += 1
        assert checked > 0

    def test_pipeline_closes_over_split_images(self):
        # same situation via the pipeline: the image predicate is added to
        # the sources so every rewriter image lands in a single atom
        doc = {
            "layout": [{"name": "hi", "width": 1}, {"name": "lo", "width": 3}],
            "boxes": [
                {
                    "id": "r",
                    "kind": "rewriter",
                    "ports": ["ext", "p1"],
                    "rules": [{"priority": 1, "match": [], "action": {"forward": "p1"}}],
                    "rewrite": {
                        "match": [{"field": "hi", "kind": "exact", "value": 1}],
                        "sets": [{"field": "hi", "value": 0}],
                    },
                },
                {
                    "id": "s",
                    "ports": ["pin", "a", "b"],
                    "rules": [
                        {"priority": 2,
                         "match": [{"field": "hi", "kind": "exact", "value": 0},
                                   {"field": "lo", "kind": "prefix", "value": 0,
                                    "length": 1}],
                         "action": {"forward": "a"}},
                        {"priority": 1,
                         "match": [{"field": "hi", "kind": "exact", "value": 0}],
                         "action": {"forward": "b"}},
                    ],
                },
            ],
            "links": [["r", "p1", "s", "pin"]],
        }
        pipe = build_pipeline(parse_snapshot(doc_bytes(doc)))
        assert "r" in pipe.bmap.atom_rewrite
        for src, dst in pipe.bmap.atom_rewrite["r"].items():
            assert dst in pipe.atom_set.order


class TestSimulateCloud:
    def test_delivered_matches_header_plane(self, two_box_pipeline):
        pipe = two_box_pipeline
        plane = pipe.label_plane(agent_key=3)
        (a10,) = atoms_by_rep(pipe, 0b1010)
        report = simulate_cloud(
            plane, pipe.snapshot, LabeledPacket(plane.encode(a10)), ("s1", "ext")
        )
        assert report.disposition == Delivered("s2", "pext")
        assert [h.box for h in report.hops] == ["s1", "s2"]

    def test_filtered_label_dropped(self, two_box_pipeline):
        pipe = two_box_pipeline
        plane = pipe.label_plane(agent_key=3)
        (a11,) = atoms_by_rep(pipe, 0b1100)
        report = simulate_cloud(
            plane, pipe.snapshot, LabeledPacket(plane.encode(a11)), ("s1", "ext")
        )
        assert report.disposition == Dropped("s1", "acl_in")

    def test_label_changes_at_rewriter(self, rewrite_pipeline):
        pipe = rewrite_pipeline
        plane = pipe.label_plane(agent_key=3)
        layout = pipe.snapshot.layout
        src = atom_of_header(pipe.atom_set, layout.header({"hi": 1, "lo": 2}))
        report = simulate_cloud(
            plane, pipe.snapshot, LabeledPacket(plane.encode(src)), ("r1", "ext")
        )
        assert report.disposition == Delivered("s2", "pext")
        assert report.hops[0].atom != report.hops[1].atom
        decoded = decode_report(plane, report)
        assert decoded.hops[0].atom == src


class TestEquivalence:
    def exhaustive(self, pipe, key=7):
        plane = pipe.label_plane(agent_key=key)
        return plane, equivalence_check(
            plane, pipe.tree, pipe.bmap, pipe.snapshot,
            list(pipe.snapshot.layout.all_headers()),
        )

    def test_two_box_exhaustive(self, two_box_pipeline):
        _, report = self.exhaustive(two_box_pipeline)
        assert report.ok
        assert report.checked == 16 * 2

    def test_loop_exhaustive(self, loop_pipeline):
        _, report = self.exhaustive(loop_pipeline)
        assert report.ok

    def test_rewrite_exhaustive(self, rewrite_pipeline):
        _, report = self.exhaustive(rewrite_pipeline)
        assert report.ok

    def test_corrupted_table_reports_divergence(self, two_box_pipeline):
        pipe = two_box_pipeline
        plane, _ = self.exhaustive(pipe)
        s2 = plane.box_tables["s2"]
        corrupted = dataclasses.replace(
            plane,
            box_tables={
                **plane.box_tables,
                "s2": BoxTable({}, s2.drop, s2.acl_permit, s2.rewrite),
            },
        )
        report = equivalence_check(
            corrupted, pipe.tree, pipe.bmap, pipe.snapshot,
            list(pipe.snapshot.layout.all_headers()),
        )
        assert not report.ok
        d = report.divergences[0]
        assert d.expected.disposition != d.actual.disposition

    def test_empty_network_vacuous(self):
        snap = parse_snapshot(doc_bytes(
            {"layout": [{"name": "h", "width": 4}], "boxes": [], "links": []}
        ))
        pipe = build_pipeline(snap)
        plane = pipe.label_plane()
        report = equivalence_check(
            plane, pipe.tree, pipe.bmap, snap, list(snap.layout.all_headers())
        )
        assert report.ok and report.checked == 0


class TestPrivacyShape:
    FORBIDDEN_KEYS = {"field", "kind", "value", "length", "lo", "hi", "match"}

    def assert_shape(self, obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                assert k not in self.FORBIDDEN_KEYS
                self.assert_shape(v)
        elif isinstance(obj, list):
            for v in obj:
                self.assert_shape(v)

    def test_serialized_tables_hold_only_labels(self, two_box_pipeline, rewrite_pipeline):
        for pipe in (two_box_pipeline, rewrite_pipeline):
            dump = serialize_tables(pipe.label_plane(agent_key=5))
            self.assert_shape(json.loads(json.dumps(dump)))

    def test_rewrite_soundness(self, rewrite_pipeline):
        pipe = rewrite_pipeline
        layout = pipe.snapshot.layout
        engine = pipe.engine
        for box in pipe.snapshot.boxes:
            if box.rewrite is None:
                continue
            for src, dst in pipe.bmap.atom_rewrite[box.id].items():
                target = pipe.atom_set.pred_of(dst)
                for h in layout.all_headers():
                    if not engine.eval(pipe.atom_set.pred_of(src), h):
                        continue
                    bits = list(h.bits)
                    for fname, value in box.rewrite.sets:
                        off = layout.field_offset(fname)
                        w = layout.field_width(fname)
                        for i in range(w):
                            bits[off + i] = (value >> (w - 1 - i)) & 1
                    from atomtrace.bdd import Header

                    assert engine.eval(target, Header(tuple(bits)))


# --- index-located images against an any-atom scan ---------------------------


def reference_image(engine, atom, spec):
    """Rewrite image built by projecting and pinning, without the index."""
    image = engine.exists(atom & engine.match_all(spec.match), [f for f, _ in spec.sets])
    for fname, value in spec.sets:
        image = image & engine.match(FieldConstraint.exact(fname, value))
    return image


def reference_preimage(engine, target, spec):
    """Headers whose rewritten form lands in target: pin, then project."""
    for fname, value in spec.sets:
        target = target & engine.match(FieldConstraint.exact(fname, value))
    return engine.exists(target, [f for f, _ in spec.sets])


def reference_containing(engine, aset, image):
    """Every atom that contains the image, by testing each one."""
    return [i for i in aset.order if engine.implies(image, aset.pred_of(i))]


def reference_build(engine, snap, compiled):
    """Rewrite closure and atom rewrite map by scanning all atoms per image.

    Returns (sources, atom set, atom_rewrite, closure rounds).
    """
    sources = list(compiled.all_preds)
    rewriters = [b for b in snap.boxes if b.rewrite is not None]
    rounds = 0
    while True:
        rounds += 1
        aset = compute_atoms(engine, sources)
        added = False
        for box in rewriters:
            match = compiled.rewrite_match[box.id]
            ids = aset.order if engine.is_true(match) else aset.members_of(match)
            for aid in ids:
                image = reference_image(engine, aset.pred_of(aid), box.rewrite)
                if engine.is_false(image) or reference_containing(engine, aset, image):
                    continue
                for tid in aset.order:
                    target = aset.pred_of(tid)
                    if engine.is_false(image & target):
                        continue
                    pre = reference_preimage(engine, target, box.rewrite)
                    if engine.is_false(pre) or engine.is_true(pre):
                        continue
                    if all(s.node != pre.node for s in sources):
                        sources.append(pre)
                        added = True
        if not added:
            break
    atom_rewrite = {}
    for box in rewriters:
        mapping = {}
        for aid in aset.members_of(compiled.rewrite_match[box.id]):
            image = reference_image(engine, aset.pred_of(aid), box.rewrite)
            (mapping[aid],) = reference_containing(engine, aset, image)
        atom_rewrite[box.id] = mapping
    return tuple(sources), aset, atom_rewrite, rounds


def nat_doc(acl_entry=None):
    """perfbench's query snapshot: 30 boxes, 3 of them NAT boxes that match
    a /4 dst prefix and set src.  acl_entry, when given, becomes the only
    ACL entry of the first NAT box, inbound on its external port."""
    w = WORKLOADS["query"]
    doc, _, _ = generate(snapshot_spec(w, w.snapshot_seed, 0))
    add_nat_rewriters(doc, w.nat_rewriters, random.Random(f"nat:{w.snapshot_seed}"))
    if acl_entry is not None:
        # the first box add_nat_rewriters drew: the same draw again
        rng = random.Random(f"nat:{w.snapshot_seed}")
        first = rng.sample(doc["boxes"], w.nat_rewriters)[0]
        first["acls"] = [{"port": first["ports"][-1], "dir": "in",
                          "default": "permit", "entries": [acl_entry(first)]}]
    return doc


def multi_field_doc(share=0.2):
    """nat_doc with a share of its rules narrowed on three more fields.
    Rule by rule, in box order, random.Random(5) draws random() < share;
    a chosen rule also gets a src prefix of length 1-12, a dport range
    (lo uniform in 0-65,535, width 1-4,096, clipped at 65,535) and proto
    6 or 17."""
    doc = nat_doc()
    rng = random.Random(5)
    for box in doc["boxes"]:
        for rule in box["rules"]:
            if rng.random() >= share:
                continue
            length = rng.randint(1, 12)
            src = rng.getrandbits(length) << (32 - length)
            lo = rng.randint(0, 65535)
            hi = min(lo + rng.randint(1, 4096) - 1, 65535)
            rule["match"] += [
                {"field": "src", "kind": "prefix", "value": src, "length": length},
                {"field": "dport", "kind": "range", "lo": lo, "hi": hi},
                {"field": "proto", "kind": "exact", "value": rng.choice((6, 17))},
            ]
    return doc


def src_and_dst_entry(box):
    """Deny src in the NAT constant's /1 and dst in a /14 inside the NAT
    match.  Rules are at most /12, so the /14 cuts a dst cell in two, and
    the image of that cell's atom straddles the entry's edge."""
    dst = box["rewrite"]["match"][0]["value"] | 0b1011001110 << 18
    src = box["rewrite"]["sets"][0]["value"]
    return {"match": [{"field": "src", "kind": "prefix", "value": src, "length": 1},
                      {"field": "dst", "kind": "prefix", "value": dst, "length": 14}],
            "verdict": "deny"}


def rewrites_by_predicate(aset, atom_rewrite):
    """Every rewrite table with each atom id read as its predicate."""
    return {box: {aset.pred_of(a): aset.pred_of(t) for a, t in table.items()}
            for box, table in atom_rewrite.items()}


class TestWitnessLocatedImages:
    """The closure's index-located images against reference_build's scan."""

    def assert_matches_reference(self, doc):
        snap = parse_snapshot(doc_bytes(doc))
        engine = Engine(snap.layout)
        sources, aset, atom_rewrite, rounds = reference_build(
            engine, snap, compile_network(snap, engine)
        )
        pipe = build_pipeline(snap, engine=engine)
        # a closure of more than one round refines, so its ids differ from
        # the reference's from-scratch ones: compare atoms by predicate
        assert pipe.sources == sources
        assert atoms_by_predicate(pipe.atom_set) == atoms_by_predicate(aset)
        assert rewrites_by_predicate(pipe.atom_set, pipe.bmap.atom_rewrite) == (
            rewrites_by_predicate(aset, atom_rewrite)
        )
        return rounds

    def test_nat_snapshot(self):
        assert self.assert_matches_reference(nat_doc()) == 1

    def test_straddling_images_take_a_second_round(self):
        assert self.assert_matches_reference(nat_doc(src_and_dst_entry)) >= 2


class TestClosureTables:
    """close_over_rewrites hands every rewriter's table to the behaviour map."""

    @pytest.mark.parametrize("acl_entry", [None, src_and_dst_entry])
    def test_table_keys_are_match_members(self, acl_entry):
        snap = parse_snapshot(doc_bytes(nat_doc(acl_entry)))
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        aset, rewrites = pipeline.close_over_rewrites(engine, snap, compiled)
        rewriters = [b.id for b in snap.boxes if b.rewrite is not None]
        assert list(rewrites) == rewriters
        for box in rewriters:
            assert set(rewrites[box]) == aset.members_of(compiled.rewrite_match[box])

    def test_contradictory_match_gets_an_empty_table(self):
        doc = copy.deepcopy(REWRITE_DOC)
        doc["boxes"][0]["rewrite"]["match"] = [
            {"field": "hi", "kind": "exact", "value": 0},
            {"field": "hi", "kind": "exact", "value": 1},
        ]
        pipe = build_pipeline(parse_snapshot(doc_bytes(doc)))
        assert pipe.bmap.atom_rewrite == {"r1": {}}
        (a0,) = atoms_by_rep(pipe, 0b0101)
        report = trace(pipe.bmap, pipe.snapshot, a0, ("r1", "ext"))
        assert report.disposition == Delivered("s2", "pext")
        assert [h.atom for h in report.hops] == [a0, a0]

    def test_unsplittable_straddle_raises(self, monkeypatch):
        # every preimage is false, so refining by it splits nothing in the
        # first round
        monkeypatch.setattr(Engine, "restrict", lambda self, p, sets: self.false_)
        with pytest.raises(RuntimeError):
            build_pipeline(parse_snapshot(doc_bytes(nat_doc(src_and_dst_entry))))


FIELDS = ("a", "b")


@st.composite
def two_field_docs(draw):
    """A 6-8-bit layout of fields a and b; 2-4 switches of 1-4 prefix rules,
    each on a, on b or on both; and one rewriter whose match is such a rule's
    and which sets one field."""
    widths = dict(zip(FIELDS, draw(st.tuples(st.integers(3, 4), st.integers(3, 4)))))

    def match():
        out = []
        for f in draw(st.sampled_from([("a",), ("b",), FIELDS])):
            length = draw(st.integers(1, widths[f]))
            value = draw(st.integers(0, (1 << length) - 1)) << (widths[f] - length)
            out.append({"field": f, "kind": "prefix", "value": value, "length": length})
        return out

    actions = st.sampled_from([{"forward": "p0"}, {"forward": "p1"}, "drop"])
    boxes = [
        {"id": f"s{i}", "kind": "switch", "ports": ["p0", "p1"],
         "rules": [{"priority": j, "match": match(), "action": draw(actions)}
                   for j in range(draw(st.integers(1, 4)))]}
        for i in range(draw(st.integers(2, 4)))
    ]
    f = draw(st.sampled_from(FIELDS))
    boxes.append({"id": "r", "kind": "rewriter", "ports": ["p0", "p1"],
                  "rules": [{"priority": 1, "match": [], "action": {"forward": "p1"}}],
                  "rewrite": {"match": match(), "sets": [
                      {"field": f, "value": draw(st.integers(0, (1 << widths[f]) - 1))}]}})
    return {"layout": [{"name": f, "width": widths[f]} for f in FIELDS],
            "boxes": boxes, "links": []}


def check_closure(doc) -> bool:
    """Build doc and check its rewrite closure exhaustively: every header of
    each table entry's source atom, rewritten, lands in the entry's target;
    the table covers the rewriter's match; and the atoms are the from-scratch
    atoms of the closure's sources.  Returns whether the closure refined, so
    took a second round."""
    snap = parse_snapshot(doc_bytes(doc))
    engine = Engine(snap.layout)
    compiled = compile_network(snap, engine)
    aset, rewrites = pipeline.close_over_rewrites(engine, snap, compiled)
    layout = snap.layout
    for box in snap.boxes:
        if box.rewrite is None:
            continue
        table = rewrites[box.id]
        assert set(table) == aset.members_of(compiled.rewrite_match[box.id])
        for src, tgt in table.items():
            for h in layout.all_headers():
                if engine.eval(aset.pred_of(src), h):
                    values = {f: layout.field_value(h, f) for f in FIELDS}
                    values.update(box.rewrite.sets)
                    assert atom_of_header(aset, layout.header(values)) == tgt
    assert atoms_by_predicate(aset) == atoms_by_predicate(compute_atoms(engine, aset.sources))
    return len(aset.sources) > len({p.node for p in compiled.all_preds})


class TestClosureOnTwoFields:
    """Closures of any number of rounds, on small two-field snapshots."""

    @settings(max_examples=60, deadline=None)
    @given(two_field_docs())
    def test_every_image_lands_in_its_target(self, doc):
        event("closure rounds: 2+" if check_closure(doc) else "closure rounds: 1")

    def test_some_closures_take_two_rounds(self):
        # find raises NoSuchExample when no drawn snapshot refines
        find(two_field_docs(), check_closure,
             settings=settings(database=None, deadline=None))


# --- the label plane is a relabelling of the behaviour map -------------------


def tables_through(plane, new):
    """Every label table with each label l replaced by new[l]."""
    return {
        box: BoxTable(
            {new[l]: port for l, port in t.forward.items()},
            frozenset(new[l] for l in t.drop),
            {pd: frozenset(new[l] for l in ls) for pd, ls in t.acl_permit.items()},
            {new[a]: new[b] for a, b in t.rewrite.items()},
        )
        for box, t in plane.box_tables.items()
    }


class TestRelabelling:
    """trace and simulate_cloud share one walk, so the label tables must be
    the atom tables with every atom id replaced by its label."""

    def assert_relabelling(self, pipe):
        plane = pipe.label_plane(agent_key=11)
        assert tables_through(plane, plane.atom_of) == pipe.bmap.tables
        rewriters = [b.id for b in pipe.snapshot.boxes if b.rewrite is not None]
        assert pipe.bmap.atom_rewrite == {b: pipe.bmap.tables[b].rewrite for b in rewriters}

    def test_fixtures(self, two_box_pipeline, rewrite_pipeline, loop_pipeline):
        for pipe in (two_box_pipeline, rewrite_pipeline, loop_pipeline):
            self.assert_relabelling(pipe)

    def test_nat_snapshot(self):
        pipe = build_pipeline(parse_snapshot(doc_bytes(nat_doc())))
        assert sum(len(m) for m in pipe.bmap.atom_rewrite.values()) > 0
        self.assert_relabelling(pipe)


# --- labels are a keyed blake2b PRF, computed without OpenSSL ----------------


def reference_labels(atom_ids, key):
    labels, used = {}, set()
    for aid in sorted(atom_ids):
        attempt = 0
        while True:
            digest = hashlib.blake2b(
                f"{key}:{aid}:{attempt}".encode(), digest_size=4
            ).digest()
            label = int.from_bytes(digest, "big")
            if label not in used:
                break
            attempt += 1
        used.add(label)
        labels[aid] = label
    return labels


class TestLabelPrf:
    @pytest.mark.parametrize("key", [0, 7])
    def test_labels_equal_hashlib_blake2b(self, key):
        pipe = build_pipeline(parse_snapshot(doc_bytes(nat_doc())))
        plane = pipe.label_plane(agent_key=key)
        assert plane.label_of == reference_labels(pipe.atom_set.order, key)

    def test_import_leaves_openssl_unloaded(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, atomtrace, atomtrace.cli; print('_hashlib' in sys.modules)"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"
