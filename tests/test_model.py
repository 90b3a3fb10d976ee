import copy
import json
import random

import pytest

from atomtrace.bdd import Engine, FieldConstraint, HeaderLayout
from atomtrace.model import (
    Acl,
    AclEntry,
    BadConstraint,
    Box,
    DuplicatePort,
    FwdRule,
    NetworkSnapshot,
    SnapshotError,
    SnapshotSyntaxError,
    UnknownBoxRef,
    compile_network,
    parse_snapshot,
)
from atomtrace.workload import WorkloadSpec, generate
from tests.conftest import TWO_BOX_DOC, doc_bytes, live_nodes, match_nodes


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


    @pytest.mark.parametrize("bad", [float("inf"), float("nan"), 1.5, True,
                                     "1_000", " 7 ", "\u0661\u0660", "+5"])
    @pytest.mark.parametrize("where", ["value", "length", "priority", "width", "set"])
    def test_non_integer_numbers_rejected(self, where, bad):
        # parse_snapshot takes the parsed document, so inf and nan need no
        # JSON spelling here; each used to be truncated, or to raise
        # OverflowError from int(inf).  int() reads each string, but a field
        # value is an int or a string of ASCII digits
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

    def test_non_ascii_dotted_quad_rejected(self):
        doc = {
            "layout": [{"name": "dst", "width": 32}],
            "boxes": [{"id": "s", "ports": ["p"], "rules": [
                {"priority": 1, "action": "drop", "match": [
                    {"field": "dst", "kind": "exact", "value": "\u0661.2.3.4"}]}]}],
            "links": [],
        }
        with pytest.raises(BadConstraint):
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


# --- first-match compilation against the per-rule fold it replaced ----------

FM_LAYOUT = HeaderLayout((("a", 3), ("b", 4)))
FM_PORTS = ("p1", "p2", "p3")


def fold_first_match(engine, entries):
    """Reference: each entry fires on its match minus every earlier entry's;
    None entries only shadow.  The result keeps the empty actions out."""
    won, higher = {}, engine.false_
    for action, m in entries:
        fires = engine.diff(m, higher)
        higher = engine.disj(higher, m)
        if action is not None:
            won[action] = engine.disj(won.get(action, engine.false_), fires)
    return {a: p for a, p in won.items() if not engine.is_false(p)}


def fold_box(engine, box):
    """Reference: a box's ({port: predicate}, drop predicate), by the fold."""
    ports, drop, higher = {}, engine.false_, engine.false_
    for rule in sorted(box.rules, key=lambda r: -r.priority):
        m = engine.match_all(rule.match)
        fires = engine.diff(m, higher)
        higher = engine.disj(higher, m)
        if rule.out_port is None:
            drop = engine.disj(drop, fires)
        else:
            ports[rule.out_port] = engine.disj(ports.get(rule.out_port, engine.false_), fires)
    return ports, drop


def fold_acl(engine, acl):
    """Reference: an ACL's permitted set, folding the entries from the last."""
    permitted = engine.true_ if acl.default == "permit" else engine.false_
    for entry in reversed(acl.entries):
        m = engine.match_all(entry.match)
        if entry.verdict == "permit":
            permitted = engine.disj(m, engine.diff(permitted, m))
        else:
            permitted = engine.diff(permitted, m)
    return permitted


def random_constraints(rng):
    out = []
    for _ in range(rng.choice([0, 1, 1, 2, 2, 3])):
        name, width = rng.choice(FM_LAYOUT.fields)
        kind = rng.choice(["exact", "prefix", "range"])
        if kind == "exact":
            out.append(FieldConstraint.exact(name, rng.getrandbits(width)))
        elif kind == "prefix":
            out.append(FieldConstraint.prefix(name, rng.getrandbits(width), rng.randint(0, width)))
        else:
            lo = rng.randrange(1 << width)
            out.append(FieldConstraint.range_(name, lo, rng.randint(lo, (1 << width) - 1)))
    return tuple(out)


def random_matches(rng, n):
    """n constraint lists in priority order; some repeat an earlier one
    (a duplicate) or narrow it (a shadowed entry)."""
    out = []
    for _ in range(n):
        roll = rng.random()
        if out and roll < 0.2:
            out.append(rng.choice(out))
        elif out and roll < 0.4:
            out.append(rng.choice(out) + random_constraints(rng))
        else:
            out.append(random_constraints(rng))
    return out


def random_snapshot(seed):
    """Two boxes over FM_LAYOUT: random rules (drops included) and an ACL
    with a permit default and one with a deny default on each."""
    rng = random.Random(seed)
    boxes = []
    for bid in ("b1", "b2"):
        matches = random_matches(rng, rng.randint(0, 10))
        rules = tuple(
            FwdRule(k, m, rng.choice(FM_PORTS + (None,))) for k, m in enumerate(matches)
        )
        acls = tuple(
            Acl(port, "in", tuple(
                AclEntry(m, rng.choice(["permit", "deny"]))
                for m in random_matches(rng, rng.randint(0, 6))
            ), default)
            for port, default in (("p1", "permit"), ("p2", "deny"))
        )
        boxes.append(Box(bid, "switch", FM_PORTS, rules, acls))
    return NetworkSnapshot(FM_LAYOUT, tuple(boxes), ())


def generated_with_acls():
    doc, _, _ = generate(WorkloadSpec(seed=11, box_count=12, rules_per_box=(10, 30),
                                      acls_per_box=(1, 1), acl_entries=(1, 5),
                                      prefix_len=(1, 12), header_samples=0))
    return parse_snapshot(doc_bytes(doc))


class TestFirstMatch:
    """Engine.first_match and compile_network against the fold, handle for
    handle on one engine."""

    @pytest.mark.parametrize("seed", range(40))
    def test_entries(self, seed):
        rng = random.Random(seed)
        engine = Engine(FM_LAYOUT)
        entries = [
            (rng.choice(["x", "y", "z", None]), engine.match_all(m))
            for m in random_matches(rng, rng.randint(0, 12))
        ]
        assert engine.first_match(entries) == fold_first_match(engine, entries)

    def test_empty_and_constant_entries(self):
        engine = Engine(FM_LAYOUT)
        t, f = engine.true_, engine.false_
        assert engine.first_match([]) == {}
        assert engine.first_match([("x", f), (None, f)]) == {}
        assert engine.first_match([(None, t), ("x", t)]) == {}
        assert engine.first_match([("x", f), ("y", t), ("x", t)]) == {"y": t}

    @pytest.mark.parametrize("seed", range(30))
    def test_compile_network(self, seed):
        snap = random_snapshot(seed)
        engine = Engine(FM_LAYOUT)
        compiled = compile_network(snap, engine)
        for box in snap.boxes:
            ports, drop = fold_box(engine, box)
            for port in box.ports:
                assert compiled.port_preds[(box.id, port)] == ports.get(port, engine.false_)
            assert compiled.drop_preds[box.id] == drop
            for acl in box.acls:
                assert compiled.acl_preds[(box.id, acl.port, acl.direction)] == \
                    fold_acl(engine, acl)

    def test_generated_snapshot(self):
        snap = generated_with_acls()
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        for box in snap.boxes:
            ports, drop = fold_box(engine, box)
            assert {p: compiled.port_preds[(box.id, p)] for p in ports} == ports
            assert compiled.drop_preds[box.id] == drop
            for acl in box.acls:
                assert compiled.acl_preds[(box.id, acl.port, acl.direction)] == \
                    fold_acl(engine, acl)


class TestCompileKeepsNoGarbage:
    """compile_network leaves behind only the nodes of what it compiled and
    of the rule and ACL matches, and no op-cache entries."""

    SNAPSHOTS = {"generated": generated_with_acls, "small 0": lambda: random_snapshot(0),
                 "small 1": lambda: random_snapshot(1), "small 2": lambda: random_snapshot(2)}

    @pytest.mark.parametrize("name", SNAPSHOTS)
    def test_no_op_cache_entries(self, name):
        snap = self.SNAPSHOTS[name]()
        engine = Engine(snap.layout)
        compile_network(snap, engine)
        assert engine._cache == {}

    @pytest.mark.parametrize("name", SNAPSHOTS)
    def test_every_node_is_reachable(self, name):
        snap = self.SNAPSHOTS[name]()
        engine = Engine(snap.layout)
        compiled = compile_network(snap, engine)
        nodes = len(engine._var)
        roots = [p.node for p in compiled.all_preds] + match_nodes(snap, engine)
        assert len(engine._var) == nodes  # the matches were built already
        assert live_nodes(engine, roots + [0, 1]) == set(range(nodes))
