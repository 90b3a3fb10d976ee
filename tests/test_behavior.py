import pytest

from atomtrace.atoms import UnknownPredicate, atom_of_header
from atomtrace.behavior import (
    BadIngress,
    Delivered,
    Dropped,
    Loop,
    compile_behavior_map,
    identify,
    reference_trace,
    reports_agree,
    trace,
)
from atomtrace.bdd import Engine
from atomtrace.model import compile_network
from atomtrace.workload import WorkloadSpec, generate
from atomtrace.model import parse_snapshot
from tests.conftest import doc_bytes


def port_atoms(bmap, box, port):
    return {a for a, p in bmap.tables[box].forward.items() if p == port}


class TestBehaviorMap:
    def test_port_atoms(self, two_box_pipeline):
        pipe = two_box_pipeline
        h10 = pipe.snapshot.layout.header_from_int(0b1010)
        h11 = pipe.snapshot.layout.header_from_int(0b1100)
        a10 = atom_of_header(pipe.atom_set, h10)
        a11 = atom_of_header(pipe.atom_set, h11)
        assert port_atoms(pipe.bmap, "s2", "pext") == {a10}
        assert port_atoms(pipe.bmap, "s1", "p1") == {a10, a11}

    def test_permit_atoms(self, two_box_pipeline):
        pipe = two_box_pipeline
        layout = pipe.snapshot.layout
        a10 = atom_of_header(pipe.atom_set, layout.header_from_int(0b1010))
        a0 = atom_of_header(pipe.atom_set, layout.header_from_int(0b0001))
        a11 = atom_of_header(pipe.atom_set, layout.header_from_int(0b1100))
        permit = pipe.bmap.tables["s1"].acl_permit[("ext", "in")]
        assert a10 in permit and a0 in permit and a11 not in permit

    def test_box_with_no_rules_has_empty_port_atoms(self, small_engine):
        doc = {
            "layout": [{"name": "h", "width": 4}],
            "boxes": [{"id": "b", "ports": ["p"], "rules": []}],
            "links": [],
        }
        snap = parse_snapshot(doc_bytes(doc))
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        from atomtrace.atoms import compute_atoms

        aset = compute_atoms(engine, compiled.all_preds)
        bmap = compile_behavior_map(compiled, aset, snap, {})
        assert port_atoms(bmap, "b", "p") == frozenset()

    def test_missing_membership(self, two_box_pipeline, two_box):
        from atomtrace.atoms import compute_atoms

        pipe = two_box_pipeline
        stale = compute_atoms(pipe.engine, [])  # not built over all_preds
        with pytest.raises(UnknownPredicate):
            compile_behavior_map(pipe.compiled, stale, two_box, {})


class TestTrace:
    def test_delivered(self, two_box_pipeline):
        pipe = two_box_pipeline
        a10 = atom_of_header(
            pipe.atom_set, pipe.snapshot.layout.header_from_int(0b1010)
        )
        report = trace(pipe.bmap, pipe.snapshot, a10, ("s1", "ext"))
        assert report.disposition == Delivered("s2", "pext")
        assert [h.box for h in report.hops] == ["s1", "s2"]

    def test_acl_in_drop(self, two_box_pipeline):
        pipe = two_box_pipeline
        a11 = atom_of_header(
            pipe.atom_set, pipe.snapshot.layout.header_from_int(0b1100)
        )
        report = trace(pipe.bmap, pipe.snapshot, a11, ("s1", "ext"))
        assert report.disposition == Dropped("s1", "acl_in")

    def test_loop(self, loop_pipeline):
        pipe = loop_pipeline
        a = atom_of_header(pipe.atom_set, pipe.snapshot.layout.header_from_int(0b1010))
        report = trace(pipe.bmap, pipe.snapshot, a, ("l1", "ext1"))
        assert report.disposition == Loop("l1", a)
        assert [h.box for h in report.hops] == ["l1", "l2", "l1"]

    def test_bad_ingress(self, two_box_pipeline):
        pipe = two_box_pipeline
        with pytest.raises(BadIngress):
            trace(pipe.bmap, pipe.snapshot, 0, ("s1", "p1"))


class TestIdentify:
    @pytest.mark.parametrize(
        "value,expected",
        [
            (0b1010, Delivered("s2", "pext")),
            (0b1100, Dropped("s1", "acl_in")),
            (0b0001, Dropped("s1", "no_route")),
        ],
    )
    def test_two_box_outcomes(self, two_box_pipeline, value, expected):
        pipe = two_box_pipeline
        h = pipe.snapshot.layout.header_from_int(value)
        report = identify(pipe.tree, pipe.bmap, pipe.snapshot, h, ("s1", "ext"))
        assert report.disposition == expected

    def test_rewriter_chain(self, rewrite_pipeline):
        pipe = rewrite_pipeline
        layout = pipe.snapshot.layout
        # 10xx is rewritten to 00xx and delivered; 11xx passes unmodified
        # and is unroutable at s2
        h = layout.header({"hi": 1, "lo": 0b010})
        report = identify(pipe.tree, pipe.bmap, pipe.snapshot, h, ("r1", "ext"))
        assert report.disposition == Delivered("s2", "pext")
        assert report.hops[0].atom != report.hops[1].atom  # atom changed mid-path
        h2 = layout.header({"hi": 1, "lo": 0b110})
        report2 = identify(pipe.tree, pipe.bmap, pipe.snapshot, h2, ("r1", "ext"))
        assert report2.disposition == Dropped("s2", "no_route")

    def test_rule_drop_reason(self):
        doc = {
            "layout": [{"name": "h", "width": 4}],
            "boxes": [
                {
                    "id": "b",
                    "ports": ["ext", "p"],
                    "rules": [
                        {"priority": 2,
                         "match": [{"field": "h", "kind": "prefix", "value": 12,
                                    "length": 2}],
                         "action": "drop"},
                        {"priority": 1,
                         "match": [{"field": "h", "kind": "prefix", "value": 8,
                                    "length": 1}],
                         "action": {"forward": "p"}},
                    ],
                }
            ],
            "links": [],
        }
        from atomtrace.pipeline import build_pipeline

        pipe = build_pipeline(parse_snapshot(doc_bytes(doc)))
        layout = pipe.snapshot.layout
        r1 = identify(pipe.tree, pipe.bmap, pipe.snapshot,
                      layout.header_from_int(0b1100), ("b", "ext"))
        assert r1.disposition == Dropped("b", "rule_drop")
        r2 = identify(pipe.tree, pipe.bmap, pipe.snapshot,
                      layout.header_from_int(0b0100), ("b", "ext"))
        assert r2.disposition == Dropped("b", "no_route")


class TestReferenceAgreement:
    def assert_agreement_exhaustive(self, pipe):
        layout = pipe.snapshot.layout
        for ingress in sorted(pipe.snapshot.external_ports):
            for h in layout.all_headers():
                atom_report = identify(pipe.tree, pipe.bmap, pipe.snapshot, h, ingress)
                raw = reference_trace(pipe.snapshot, h, ingress)
                assert reports_agree(pipe.atom_set, atom_report, raw), (
                    ingress, h, atom_report, raw)

    def test_two_box_fixture(self, two_box_pipeline):
        self.assert_agreement_exhaustive(two_box_pipeline)

    def test_loop_fixture(self, loop_pipeline):
        self.assert_agreement_exhaustive(loop_pipeline)

    def test_rewrite_fixture(self, rewrite_pipeline):
        self.assert_agreement_exhaustive(rewrite_pipeline)

    def test_randomized_104_bit_workload(self):
        from atomtrace.pipeline import build_pipeline

        doc, _, headers = generate(
            WorkloadSpec(seed=5, box_count=6, rules_per_box=(2, 6),
                         header_samples=300)
        )
        snap = parse_snapshot(doc_bytes(doc))
        pipe = build_pipeline(snap)
        for values in headers:
            h = snap.layout.header(values)
            for ingress in sorted(snap.external_ports):
                atom_report = identify(pipe.tree, pipe.bmap, pipe.snapshot, h, ingress)
                raw = reference_trace(snap, h, ingress)
                assert reports_agree(pipe.atom_set, atom_report, raw)

    def test_termination_bound(self, loop_pipeline):
        pipe = loop_pipeline
        bound = len(pipe.snapshot.boxes) * len(pipe.atom_set)
        for h in pipe.snapshot.layout.all_headers():
            for ingress in sorted(pipe.snapshot.external_ports):
                report = identify(pipe.tree, pipe.bmap, pipe.snapshot, h, ingress)
                assert len(report.hops) <= bound + 1
