import copy
import json
import random

import pytest

from atomtrace.bdd import Engine, HeaderLayout
from atomtrace.model import (
    BadConstraint,
    DuplicatePort,
    SnapshotError,
    SnapshotSyntaxError,
    UnknownBoxRef,
    compile_network,
    parse_snapshot,
)
from tests.conftest import TWO_BOX_DOC, doc_bytes


def small_doc(rules, acls=None):
    return {
        "layout": [{"name": "h", "width": 4}],
        "boxes": [
            {
                "id": "b1",
                "kind": "switch",
                "ports": ["p1", "p2"],
                "rules": rules,
                "acls": acls or [],
            }
        ],
        "links": [],
    }


class TestParse:
    def test_two_box_document(self, two_box):
        assert len(two_box.links) == 1
        assert two_box.external_ports == {("s1", "ext"), ("s2", "pext")}

    def test_link_to_missing_box(self):
        doc = copy.deepcopy(TWO_BOX_DOC)
        doc["links"] = [["s1", "p1", "nope", "pin"]]
        with pytest.raises(UnknownBoxRef):
            parse_snapshot(doc_bytes(doc))

    def test_duplicate_priority_names_box(self):
        doc = small_doc(
            [
                {"priority": 1, "match": [], "action": "drop"},
                {"priority": 1, "match": [], "action": "drop"},
            ]
        )
        with pytest.raises(SnapshotSyntaxError, match="b1.*priority 1"):
            parse_snapshot(doc_bytes(doc))

    def test_bad_json(self):
        with pytest.raises(SnapshotSyntaxError):
            parse_snapshot(b"{not json")

    def test_duplicate_port(self):
        doc = small_doc([])
        doc["boxes"][0]["ports"] = ["p1", "p1"]
        with pytest.raises(DuplicatePort):
            parse_snapshot(doc_bytes(doc))

    def test_port_in_two_links(self):
        doc = copy.deepcopy(TWO_BOX_DOC)
        doc["links"].append(["s1", "p1", "s2", "pext"])
        with pytest.raises(DuplicatePort):
            parse_snapshot(doc_bytes(doc))

    def test_bad_constraint_field(self):
        doc = small_doc(
            [{"priority": 1, "match": [{"field": "zz", "kind": "exact", "value": 1}],
              "action": "drop"}]
        )
        with pytest.raises(BadConstraint):
            parse_snapshot(doc_bytes(doc))

    def test_dotted_quad_on_32_bit_field(self):
        doc = {
            "layout": [{"name": "dst", "width": 32}],
            "boxes": [
                {
                    "id": "b",
                    "ports": ["p"],
                    "rules": [
                        {
                            "priority": 1,
                            "match": [
                                {"field": "dst", "kind": "prefix",
                                 "value": "10.0.0.0", "length": 8}
                            ],
                            "action": {"forward": "p"},
                        }
                    ],
                }
            ],
            "links": [],
        }
        snap = parse_snapshot(doc_bytes(doc))
        assert snap.boxes[0].rules[0].match[0].value == 10 << 24

    def test_dotted_quad_rejected_on_narrow_field(self):
        doc = small_doc(
            [{"priority": 1,
              "match": [{"field": "h", "kind": "exact", "value": "1.2.3.4"}],
              "action": "drop"}]
        )
        with pytest.raises(BadConstraint):
            parse_snapshot(doc_bytes(doc))


    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 1.5, True])
    @pytest.mark.parametrize("where", ["value", "length", "priority", "width", "set"])
    def test_non_integer_numbers_rejected(self, where, bad):
        # parse_snapshot takes the parsed document, so inf and nan need no
        # JSON spelling here; each used to be truncated, or to raise
        # OverflowError from int(inf)
        constraint = {"field": "h", "kind": "prefix", "value": 8, "length": 1}
        rule = {"priority": 1, "match": [constraint], "action": "drop"}
        doc = small_doc([rule])
        if where == "width":
            doc["layout"][0]["width"] = bad
        elif where == "priority":
            rule["priority"] = bad
        elif where == "set":
            doc["boxes"][0].update(kind="rewriter", rewrite={
                "match": [], "sets": [{"field": "h", "value": bad}]})
        else:
            constraint[where] = bad
        with pytest.raises(SnapshotError):
            parse_snapshot(doc)


class TestCompile:
    def test_priority_resolution(self):
        doc = small_doc(
            [
                {"priority": 2,
                 "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 2}],
                 "action": {"forward": "p1"}},
                {"priority": 1,
                 "match": [{"field": "h", "kind": "prefix", "value": 8, "length": 1}],
                 "action": {"forward": "p2"}},
            ]
        )
        snap = parse_snapshot(doc_bytes(doc))
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        p1 = compiled.port_preds[("b1", "p1")]
        p2 = compiled.port_preds[("b1", "p2")]
        assert engine.sat_count(p1) == 4  # 10**
        assert engine.sat_count(p2) == 4  # 11** = 1*** minus 10**
        assert {v for v in range(16) if engine.eval(p1, snap.layout.header_from_int(v))} \
            == set(range(8, 12))
        assert {v for v in range(16) if engine.eval(p2, snap.layout.header_from_int(v))} \
            == set(range(12, 16))

    def test_acl_default_permit_with_deny_entry(self):
        doc = small_doc(
            [],
            acls=[{
                "port": "p1",
                "dir": "in",
                "default": "permit",
                "entries": [
                    {"match": [{"field": "h", "kind": "prefix", "value": 12, "length": 2}],
                     "verdict": "deny"}
                ],
            }],
        )
        snap = parse_snapshot(doc_bytes(doc))
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        permitted = compiled.acl_preds[("b1", "p1", "in")]
        assert engine.sat_count(permitted) == 12

    def test_box_with_no_rules(self):
        snap = parse_snapshot(doc_bytes(small_doc([])))
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        assert all(engine.is_false(p) for p in compiled.port_preds.values())
        assert compiled.all_preds == ()

    def test_priority_soundness_exhaustive(self, two_box, two_box_pipeline):
        engine = two_box_pipeline.engine
        compiled = two_box_pipeline.compiled
        for box in two_box.boxes:
            for h in two_box.layout.all_headers():
                fired = [
                    p for p in box.ports
                    if engine.eval(compiled.port_preds[(box.id, p)], h)
                ]
                assert len(fired) <= 1

    def test_priority_soundness_randomized_104_bits(self):
        from atomtrace.workload import WorkloadSpec, generate

        doc, _, headers = generate(WorkloadSpec(seed=7, box_count=5, header_samples=200))
        snap = parse_snapshot(doc_bytes(doc))
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        for values in headers:
            h = snap.layout.header(values)
            for box in snap.boxes:
                fired = [
                    p for p in box.ports
                    if engine.eval(compiled.port_preds[(box.id, p)], h)
                ]
                assert len(fired) <= 1

    def test_acl_first_match_agrees_with_interpreter(self):
        rng = random.Random(3)
        entries = []
        for _ in range(5):
            length = rng.randint(0, 4)
            value = rng.getrandbits(4) & ~((1 << (4 - length)) - 1) if length else 0
            entries.append(
                {"match": [{"field": "h", "kind": "prefix", "value": value,
                            "length": length}],
                 "verdict": rng.choice(["permit", "deny"])}
            )
        doc = small_doc([], acls=[{"port": "p1", "dir": "in", "default": "deny",
                                   "entries": entries}])
        snap = parse_snapshot(doc_bytes(doc))
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        permitted = compiled.acl_preds[("b1", "p1", "in")]
        acl = snap.boxes[0].acls[0]

        def interp(h):
            for e, raw in zip(acl.entries, entries):
                c = e.match[0]
                length = c.length
                v = snap.layout.field_value(h, "h")
                if length == 0 or (v >> (4 - length)) == (c.value >> (4 - length)):
                    return e.verdict == "permit"
            return False

        for h in snap.layout.all_headers():
            assert engine.eval(permitted, h) == interp(h)

    def test_compile_deterministic(self, two_box):
        e1, e2 = Engine(two_box.layout), Engine(two_box.layout)
        c1 = compile_network(two_box, e1)
        c2 = compile_network(two_box, e2)
        assert [p.node for p in c1.all_preds] == [p.node for p in c2.all_preds]

    def test_layout_mismatch(self, two_box):
        from atomtrace.bdd import EngineMismatch

        engine = Engine(HeaderLayout((("h", 5),)))
        with pytest.raises(EngineMismatch):
            compile_network(two_box, engine)
