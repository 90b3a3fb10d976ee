import copy
import io
import json
import sys

import pytest

from atomtrace import HeaderLayout, cli, parse_snapshot
from atomtrace.atoms import UnknownPredicate, atom_of_header
from atomtrace.bdd import MAX_WIDTH
from atomtrace.pipeline import build_pipeline
from tests.conftest import (
    TWO_BOX_DOC,
    PathCopyingClassifier,
    doc_bytes,
    live_nodes,
    match_nodes,
    reference_leaves,
)


@pytest.fixture
def snapshot_file(tmp_path):
    path = tmp_path / "two_box.json"
    path.write_bytes(doc_bytes(TWO_BOX_DOC))
    return str(path)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBasicCommands:
    def test_compile(self, capsys, snapshot_file, two_box_pipeline):
        code, out, _ = run(capsys, "compile", "--snapshot", snapshot_file)
        assert code == 0
        data = json.loads(out)
        assert data["boxes"] == 2
        assert data["port_sat_counts"]["s2:pext"] == 4
        # the store holds the compiled predicates, the rule and ACL
        # matches and the atoms, and nothing else
        pipe = two_box_pipeline
        engine = pipe.engine
        roots = [p.node for p in pipe.compiled.all_preds]
        roots += [pipe.atom_set.pred_of(i).node for i in pipe.atom_set.order]
        roots += match_nodes(pipe.snapshot, engine)
        assert data["bdd_nodes"] == len(engine._var) == len(live_nodes(engine, roots + [0, 1]))

    def test_atoms(self, capsys, snapshot_file):
        code, out, _ = run(capsys, "atoms", "--snapshot", snapshot_file)
        assert code == 0
        data = json.loads(out)
        assert data["atom_count"] == 3
        assert sorted(a["sat_count"] for a in data["atoms"]) == [4, 4, 8]

    def test_tree_stats(self, capsys, snapshot_file):
        code, out, _ = run(capsys, "tree-stats", "--snapshot", snapshot_file)
        assert code == 0
        data = json.loads(out)
        assert data["atom_count"] == data["leaf_count"] == 3
        assert data["version"] == 0
        # 0***, 10** and 11**: three terminals below tests of bits 0 and 1
        assert data["index_nodes"] == 5

    def test_classify_header_flag(self, capsys, snapshot_file, two_box_pipeline):
        code, out, _ = run(
            capsys, "classify", "--snapshot", snapshot_file, "--header", '{"h": 10}'
        )
        assert code == 0
        pipe = two_box_pipeline
        expected = atom_of_header(
            pipe.atom_set, pipe.snapshot.layout.header_from_int(10)
        )
        assert json.loads(out) == {"atom": expected}

    def test_classify_stdin(self, capsys, snapshot_file, monkeypatch):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"h": 10}\n{"h": 3}\n'))
        code, out, _ = run(capsys, "classify", "--snapshot", snapshot_file)
        assert code == 0
        assert len(out.strip().splitlines()) == 2

    def test_trace(self, capsys, snapshot_file, monkeypatch):
        monkeypatch.setattr(
            sys, "stdin",
            io.StringIO('{"header": {"h": 10}, "ingress": ["s1", "ext"]}\n'),
        )
        code, out, _ = run(capsys, "trace", "--snapshot", snapshot_file)
        assert code == 0
        report = json.loads(out)
        assert report["disposition"] == {"kind": "delivered", "box": "s2", "port": "pext"}

    def test_labels_dump_is_label_only(self, capsys, snapshot_file):
        code, out, _ = run(capsys, "labels", "--snapshot", snapshot_file, "--key", "5")
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"s1", "s2"}
        assert "field" not in out and "match" not in out

    def test_check_exhaustive_ok(self, capsys, snapshot_file):
        code, out, _ = run(capsys, "check", "--snapshot", snapshot_file, "--exhaustive")
        assert code == 0
        assert json.loads(out)["divergence_count"] == 0

    def test_missing_snapshot_is_usage_error(self, capsys):
        code, _, err = run(capsys, "compile", "--snapshot", "missing.json")
        assert code == 1
        assert "missing.json" in err

    def test_missing_updates_file_is_usage_error(self, capsys, snapshot_file, tmp_path):
        missing = str(tmp_path / "missing.jsonl")
        code, out, err = run(capsys, "update", "--snapshot", snapshot_file,
                             "--updates", missing)
        assert code == 1
        assert out == ""
        assert "missing.jsonl" in err

    def test_unwritable_gen_output_is_usage_error(self, capsys, tmp_path):
        out_path = str(tmp_path / "nodir" / "x.json")
        code, out, err = run(capsys, "gen", "--out", out_path)
        assert code == 1
        assert out == ""
        assert "x.json" in err

    def test_bad_json_snapshot(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "compile", "--snapshot", str(path))
        assert code == 1

    def test_non_utf8_snapshot_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(doc_bytes(TWO_BOX_DOC).replace(b'"s2"', b'"s\xff"'))
        code, out, err = run(capsys, "compile", "--snapshot", str(path))
        assert code == 1
        assert out == ""
        assert "latin.json" in err and "can't decode byte 0xff" in err

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1


def _edit(doc, path, value):
    """doc with the item at path (keys and indexes) replaced by value."""
    doc = copy.deepcopy(doc)
    *parents, last = path
    target = doc
    for key in parents:
        target = target[key]
    target[last] = value
    return doc


def _rewriter(rewrite):
    doc = _edit(TWO_BOX_DOC, ("boxes", 1, "kind"), "rewriter")
    return _edit(doc, ("boxes", 1, "rewrite"), rewrite)


# snapshots whose layout is valid but whose JSON types are wrong: each used
# to raise a TypeError or AttributeError (exit 3)
BAD_TYPES = {
    "boxes-not-a-list": (_edit(TWO_BOX_DOC, ("boxes",), 5), "'boxes' must be a list"),
    "box-not-an-object": (_edit(TWO_BOX_DOC, ("boxes", 1), 5), "'boxes' must be a list"),
    "rule-not-an-object": (_edit(TWO_BOX_DOC, ("boxes", 0, "rules"), [5]),
                           "box 's1': 'rules' must be a list of objects"),
    "acl-not-an-object": (_edit(TWO_BOX_DOC, ("boxes", 0, "acls"), [5]),
                          "box 's1': 'acls' must be a list of objects"),
    "acl-entry-not-an-object": (
        _edit(TWO_BOX_DOC, ("boxes", 0, "acls", 0, "entries"), ["deny"]),
        "box 's1' acl: 'entries' must be a list of objects"),
    "port-id-a-list": (_edit(TWO_BOX_DOC, ("boxes", 0, "ports"), [["ext"], "p1"]),
                       "box 's1': ports must be a list of strings"),
    "link-endpoint-a-list": (_edit(TWO_BOX_DOC, ("links", 0, 2), ["s2"]), "bad link"),
    "rewrite-not-an-object": (_rewriter(5), "box 's2' rewrite: not an object"),
    "rewrite-field-a-list": (_rewriter({"sets": [{"field": ["h"], "value": 1}]}),
                             "box 's2' rewrite: bad field"),
}


@pytest.mark.parametrize("doc, message", BAD_TYPES.values(), ids=BAD_TYPES.keys())
def test_snapshot_type_error_is_usage_error(capsys, tmp_path, doc, message):
    path = tmp_path / "bad.json"
    path.write_bytes(doc_bytes(doc))
    code, _, err = run(capsys, "compile", "--snapshot", str(path))
    assert code == 1
    assert message in err


class TestGenAndUpdate:
    def test_gen_writes_files(self, capsys, tmp_path):
        out_path = tmp_path / "snap.json"
        upd_path = tmp_path / "updates.jsonl"
        hdr_path = tmp_path / "headers.jsonl"
        code, out, _ = run(
            capsys, "gen", "--seed", "3", "--boxes", "3", "--out", str(out_path),
            "--updates-out", str(upd_path), "--headers-out", str(hdr_path),
            "--update-count", "10",
        )
        assert code == 0
        assert out_path.exists() and upd_path.exists() and hdr_path.exists()
        code2, _, _ = run(capsys, "compile", "--snapshot", str(out_path))
        assert code2 == 0

    def test_gen_deterministic(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "--seed", "7", "--out", str(a))
        run(capsys, "gen", "--seed", "7", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("flag, message", [
        ("--boxes", "need at least one box"),
        ("--rules", "rules_per_box range (1, 0) is empty"),
    ])
    def test_gen_zero_count_is_usage_error(self, capsys, tmp_path, flag, message):
        code, out, err = run(capsys, "gen", flag, "0", "--out", str(tmp_path / "s.json"))
        assert code == 1
        assert out == ""
        assert message in err

    @pytest.mark.parametrize("argv, message", [
        (("check", "--sample", "0"), "--sample: must be at least 1, not 0"),
        (("check", "--sample", "-4"), "--sample: must be at least 1, not -4"),
        (("update", "--rebuild-threshold", "0"), "--rebuild-threshold: must be at least 1"),
        (("update", "--rebuild-threshold", "-3"), "--rebuild-threshold: must be at least 1"),
        (("gen", "--sample", "-3"), "--sample: must be at least 0, not -3"),
        (("gen", "--update-count", "-2"), "--update-count: must be at least 0, not -2"),
    ])
    def test_negative_or_empty_count_is_usage_error(
        self, capsys, snapshot_file, tmp_path, argv, message
    ):
        # every other argument is valid, so the count alone is refused
        upd = tmp_path / "upd.jsonl"
        upd.write_text("")
        rest = {
            "check": ("--snapshot", snapshot_file),
            "update": ("--snapshot", snapshot_file, "--updates", str(upd)),
            "gen": ("--out", str(tmp_path / "s.json")),
        }[argv[0]]
        code, out, err = run(capsys, *argv, *rest)
        assert code == 1
        assert out == ""
        assert message in err
        assert not (tmp_path / "s.json").exists()

    def test_update_stream(self, capsys, tmp_path):
        snap = tmp_path / "snap.json"
        upd = tmp_path / "upd.jsonl"
        run(capsys, "gen", "--seed", "5", "--boxes", "3", "--out", str(snap),
            "--updates-out", str(upd), "--update-count", "20")
        code, out, _ = run(
            capsys, "update", "--snapshot", str(snap), "--updates", str(upd)
        )
        assert code == 0
        lines = [json.loads(l) for l in out.strip().splitlines()]
        summary = lines[-1]
        assert summary["updates"] > 0
        assert "p95_ms" in summary
        # p90_ms is perfbench's update metric
        assert summary["p50_ms"] <= summary["p90_ms"] <= summary["p95_ms"]

    def test_update_summary_reads_grafted_leaves(self, capsys, tmp_path):
        # no rebuild runs, so every split atom's leaf is a graft
        snap = tmp_path / "snap.json"
        upd = tmp_path / "upd.jsonl"
        run(capsys, "gen", "--seed", "6", "--boxes", "3", "--out", str(snap),
            "--updates-out", str(upd), "--update-count", "20")
        code, out, _ = run(
            capsys, "update", "--snapshot", str(snap), "--updates", str(upd)
        )
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["rebuilds"] == 0
        assert summary["leaf_count"] == summary["atom_count"]
        pipe = build_pipeline(parse_snapshot(snap.read_bytes()))
        ref = PathCopyingClassifier(pipe.tree, rebuild_after=256)
        for line in upd.read_text().splitlines():
            obj = json.loads(line)
            pred = cli._resolve_update_pred(pipe, obj["pred"])
            try:
                (ref.add if obj["op"] == "add" else ref.remove)(pred)
            except UnknownPredicate:
                pass
        assert summary["atom_count"] > len(pipe.atom_set)  # some adds split
        depths = [d for _, d in reference_leaves(ref.tree)]
        assert summary["leaf_count"] == len(depths)
        assert summary["avg_leaf_depth"] == sum(depths) / len(depths)
        assert summary["max_depth"] == max(depths)

    def test_update_reports_rebuild_triggers(self, capsys, tmp_path):
        snap = tmp_path / "snap.json"
        upd = tmp_path / "upd.jsonl"
        run(capsys, "gen", "--seed", "5", "--boxes", "3", "--out", str(snap),
            "--updates-out", str(upd), "--update-count", "20")
        code, out, _ = run(capsys, "update", "--snapshot", str(snap),
                           "--updates", str(upd), "--rebuild-threshold", "8")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        log = summary["rebuild_log"]
        assert summary["rebuilds"] == len(log) >= 2
        assert {r["trigger"] for r in log} <= {"count", "depth"}
        assert all(r["ms"] >= 0 and r["update"] > 0 for r in log)

    def test_update_reports_engine_memory(self, capsys, tmp_path):
        snap = tmp_path / "snap.json"
        upd = tmp_path / "upd.jsonl"
        run(capsys, "gen", "--seed", "5", "--boxes", "3", "--out", str(snap),
            "--updates-out", str(upd), "--update-count", "20")
        code, out, _ = run(capsys, "update", "--snapshot", str(snap),
                           "--updates", str(upd), "--rebuild-threshold", "1")
        assert code == 0
        summary = json.loads(out.strip().splitlines()[-1])
        assert summary["bdd_nodes"] > 2
        # every update rebuilds, and each rebuild empties the op cache
        assert summary["rebuilds"] == summary["updates"] == 20
        assert summary["op_cache_entries"] == 0
        # and starts a fresh index store: one terminal per atom, and at
        # least atom_count - 1 tests above them
        assert summary["index_nodes"] >= 2 * summary["atom_count"] - 1

    def test_update_by_rule_reference(self, capsys, snapshot_file, tmp_path):
        upd = tmp_path / "upd.jsonl"
        upd.write_text(
            json.dumps({"op": "remove", "pred": {"box": "s2", "port": "pext"}}) + "\n"
        )
        code, out, _ = run(
            capsys, "update", "--snapshot", snapshot_file, "--updates", str(upd)
        )
        assert code == 0
        assert json.loads(out.strip().splitlines()[-1])["updates"] == 1


class TestBadInputLines:
    """A bad input line is a usage error: exit 1, naming the line."""

    def stdin(self, monkeypatch, text):
        monkeypatch.setattr(sys, "stdin", io.StringIO(text))

    def test_trace_unknown_ingress(self, capsys, snapshot_file, monkeypatch):
        self.stdin(monkeypatch,
                   '{"header": {"h": 10}, "ingress": ["s1", "ext"]}\n'
                   '{"header": {"h": 10}, "ingress": ["s1", "nope"]}\n')
        code, out, err = run(capsys, "trace", "--snapshot", snapshot_file)
        assert code == 1
        assert len(out.strip().splitlines()) == 1
        assert "line 2" in err and "BadIngress" in err

    @pytest.mark.parametrize("ingress", [["s1", ["ext"]], [["s1"], "ext"]])
    def test_trace_malformed_ingress(self, capsys, snapshot_file, monkeypatch, ingress):
        self.stdin(monkeypatch,
                   '{"header": {"h": 10}, "ingress": ["s1", "ext"]}\n'
                   + json.dumps({"header": {"h": 10}, "ingress": ingress}) + "\n")
        code, out, err = run(capsys, "trace", "--snapshot", snapshot_file)
        assert code == 1
        assert len(out.strip().splitlines()) == 1
        assert "line 2" in err and "[box, port] pair of strings" in err

    def test_trace_missing_header(self, capsys, snapshot_file, monkeypatch):
        self.stdin(monkeypatch, '\n{"ingress": ["s1", "ext"]}\n')
        code, _, err = run(capsys, "trace", "--snapshot", snapshot_file)
        assert code == 1
        assert "line 2" in err and "header" in err

    def test_classify_out_of_range(self, capsys, snapshot_file, monkeypatch):
        self.stdin(monkeypatch, '{"h": 3}\n{"h": 16}\n')
        code, _, err = run(capsys, "classify", "--snapshot", snapshot_file)
        assert code == 1
        assert "line 2" in err and "ValueOutOfRange" in err

    @pytest.mark.parametrize("bad, message", [
        ({"pred": {"box": "s2", "port": "pext"}}, "KeyError: 'op'"),
        ({"op": "add", "pred": []}, "constant predicate"),
        ({"op": "add", "pred": 5}, "upd.jsonl: line 2: TypeError: bad update predicate 5"),
    ])
    def test_update_bad_line(self, capsys, snapshot_file, tmp_path, bad, message):
        upd = tmp_path / "upd.jsonl"
        upd.write_text(
            json.dumps({"op": "remove", "pred": {"box": "s2", "port": "pext"}})
            + "\n" + json.dumps(bad) + "\n"
        )
        code, out, err = run(
            capsys, "update", "--snapshot", snapshot_file, "--updates", str(upd)
        )
        assert code == 1
        assert len(out.strip().splitlines()) == 1
        assert "line 2" in err and message in err

    def test_update_non_utf8_line(self, capsys, snapshot_file, tmp_path):
        upd = tmp_path / "upd.jsonl"
        upd.write_bytes(
            json.dumps({"op": "remove", "pred": {"box": "s2", "port": "pext"}}).encode()
            + b"\n\xff\xfe{}\n"
        )
        code, out, err = run(
            capsys, "update", "--snapshot", snapshot_file, "--updates", str(upd)
        )
        assert code == 1
        assert len(out.strip().splitlines()) == 1
        assert "upd.jsonl: line 2" in err

    @pytest.mark.parametrize("command, where, bad", [
        ("compile", "snapshot",
         doc_bytes(TWO_BOX_DOC).replace(b'"value": 8', b'"value": ' + b"9" * 5000, 1)),
        ("compile", "snapshot", b"[" * 200_000),
        ("trace", "stdin", b"[" * 100_000),
        ("classify", "stdin", b"[" * 100_000),
        ("update", "upd.jsonl", b"[" * 100_000),
    ], ids=["snapshot-digits", "snapshot-depth", "trace-depth", "classify-depth",
            "update-depth"])
    def test_digit_or_depth_limit(self, capsys, snapshot_file, monkeypatch, tmp_path,
                                  command, where, bad):
        # json.loads raises a plain ValueError past the integer digit limit
        # and a RecursionError past the nesting limit; both used to exit 3
        argv = [command, "--snapshot", snapshot_file]
        if where == "snapshot":
            path = tmp_path / "deep.json"
            path.write_bytes(bad)
            argv[2], named = str(path), "deep.json: invalid JSON"
        elif where == "stdin":
            self.stdin(monkeypatch, "\n" + bad.decode() + "\n")
            named = "line 2"
        else:
            path = tmp_path / where
            path.write_bytes(b"\n" + bad + b"\n")
            argv += ["--updates", str(path)]
            named = "upd.jsonl: line 2"
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert named in err


# JSON field values that are not integers: each float or bool used to be
# truncated, or to raise OverflowError (exit 3) from int(inf), and int() read
# each string, though none is plain ASCII digits
NON_INTEGERS = ["Infinity", "-Infinity", "NaN", "1.5", "true",
                '"1_000"', '" 7 "', '"\u0661\u0660"', '"+5"']


class TestNonIntegerValues:
    """A float, a bool or a string other than ASCII digits is a usage error
    (exit 1), never truncated or read."""

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_trace_header(self, capsys, snapshot_file, monkeypatch, value):
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            '{"header": {"h": 10}, "ingress": ["s1", "ext"]}\n'
            f'{{"header": {{"h": {value}}}, "ingress": ["s1", "ext"]}}\n'))
        code, out, err = run(capsys, "trace", "--snapshot", snapshot_file)
        assert code == 1
        assert len(out.strip().splitlines()) == 1
        assert "line 2" in err and "not an integer" in err

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_classify_header(self, capsys, snapshot_file, monkeypatch, value):
        monkeypatch.setattr(sys, "stdin", io.StringIO(f'{{"h": 3}}\n{{"h": {value}}}\n'))
        code, out, err = run(capsys, "classify", "--snapshot", snapshot_file)
        assert code == 1
        assert len(out.strip().splitlines()) == 1
        assert "line 2" in err and "not an integer" in err

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_compile_snapshot_constraint(self, capsys, tmp_path, value):
        text = doc_bytes(TWO_BOX_DOC).decode()
        match = '{"field": "h", "kind": "prefix", "value": 8, "length": 1}'
        assert match in text
        path = tmp_path / "bad.json"
        path.write_text(text.replace(match, match.replace('"value": 8', f'"value": {value}'), 1))
        code, _, err = run(capsys, "compile", "--snapshot", str(path))
        assert code == 1
        assert "box 's1' rule: bad integer" in err

    @pytest.mark.parametrize("value", NON_INTEGERS)
    def test_update_inline_predicate(self, capsys, snapshot_file, tmp_path, value):
        upd = tmp_path / "upd.jsonl"
        upd.write_text(
            json.dumps({"op": "remove", "pred": {"box": "s2", "port": "pext"}}) + "\n"
            f'{{"op": "add", "pred": [{{"field": "h", "kind": "exact", "value": {value}}}]}}\n'
        )
        code, out, err = run(
            capsys, "update", "--snapshot", snapshot_file, "--updates", str(upd)
        )
        assert code == 1
        assert len(out.strip().splitlines()) == 1
        assert "line 2" in err and "bad integer" in err

    def test_decimal_strings_still_accepted(self, capsys, snapshot_file):
        code, out, _ = run(
            capsys, "classify", "--snapshot", snapshot_file, "--header", '{"h": "10"}'
        )
        assert code == 0
        assert out == run(capsys, "classify", "--snapshot", snapshot_file,
                          "--header", '{"h": 10}')[1]


# constraints whose values do not fit an 8-bit field, or whose range is
# reversed: each used to get past the parser and exit 3 from match_all
OUT_OF_RANGE = {
    "exact-300": ({"kind": "exact", "value": 300}, "exact value 300 vs width 8"),
    "exact-minus-1": ({"kind": "exact", "value": -1}, "exact value -1 vs width 8"),
    "prefix-999": ({"kind": "prefix", "value": 999, "length": 4},
                   "prefix value 999 vs width 8"),
    "range-9-3": ({"kind": "range", "lo": 9, "hi": 3}, "range [9,3] vs width 8"),
    "range-0-256": ({"kind": "range", "lo": 0, "hi": 256}, "range [0,256] vs width 8"),
}


@pytest.mark.parametrize("constraint, message", OUT_OF_RANGE.values(),
                         ids=OUT_OF_RANGE.keys())
def test_out_of_range_constraint_is_usage_error(capsys, tmp_path, constraint, message):
    doc = _edit(TWO_BOX_DOC, ("layout", 0, "width"), 8)
    doc = _edit(doc, ("boxes", 1, "rules", 0, "match"), [{"field": "h", **constraint}])
    path = tmp_path / "bad.json"
    path.write_bytes(doc_bytes(doc))
    code, _, err = run(capsys, "compile", "--snapshot", str(path))
    assert code == 1
    assert f"box 's2' rule: {message}" in err


def _wide_doc(width):
    """A rewriter and a switch on one field of the given width, whose
    matches all test its last bit."""
    top = (1 << width) - 1
    x = {"field": "x"}
    return {
        "layout": [{"name": "x", "width": width}],
        "boxes": [
            {"id": "a", "kind": "rewriter", "ports": ["ext", "p"],
             "rules": [
                 {"priority": 2, "match": [{**x, "kind": "exact", "value": top}],
                  "action": "drop"},
                 {"priority": 1, "match": [{**x, "kind": "range", "lo": 1, "hi": top - 1}],
                  "action": {"forward": "p"}}],
             "acls": [{"port": "ext", "dir": "in", "default": "permit", "entries": [
                 {"match": [{**x, "kind": "exact", "value": top - 2}], "verdict": "deny"}]}],
             "rewrite": {"match": [{**x, "kind": "range", "lo": 5, "hi": top - 5}],
                         "sets": [{"field": "x", "value": 3}]}},
            {"id": "b", "ports": ["q", "out"],
             "rules": [{"priority": 1, "match": [{**x, "kind": "range", "lo": 2, "hi": top - 3}],
                        "action": {"forward": "out"}}]},
        ],
        "links": [["a", "p", "b", "q"]],
    }


def _run_every_command(capsys, monkeypatch, tmp_path, width) -> dict:
    """Each snapshot command's (exit code, stderr) on _wide_doc(width)."""
    top = (1 << width) - 1
    snap, upd = tmp_path / "wide.json", tmp_path / "upd.jsonl"
    snap.write_bytes(doc_bytes(_wide_doc(width)))
    pred = [{"field": "x", "kind": "range", "lo": 7, "hi": top - 9}]
    upd.write_text(json.dumps({"op": "add", "pred": pred}) + "\n"
                   + json.dumps({"op": "remove", "pred": pred}) + "\n")
    header = json.dumps({"x": top - 4})
    commands = {
        "compile": [], "atoms": [], "tree-stats": [], "classify": ["--header", header],
        "trace": [], "update": ["--updates", str(upd)], "labels": [],
        "check": ["--sample", "20"],
    }
    out = {}
    for name, extra in commands.items():
        monkeypatch.setattr(sys, "stdin", io.StringIO(
            json.dumps({"header": {"x": top - 4}, "ingress": ["a", "ext"]}) + "\n"))
        code, _, err = run(capsys, name, "--snapshot", str(snap), *extra)
        out[name] = (code, err)
    return out


class TestLayoutWidth:
    """Layouts are capped below the width at which the BDD recursions run
    out of interpreter frames (500 bits exited 3 from compile and check)."""

    def test_every_command_works_at_the_bound(self, capsys, monkeypatch, tmp_path):
        results = _run_every_command(capsys, monkeypatch, tmp_path, MAX_WIDTH)
        assert [(name, err) for name, (code, err) in results.items() if code != 0] == []

    def test_one_bit_past_the_bound_is_usage_error(self, capsys, monkeypatch, tmp_path):
        results = _run_every_command(capsys, monkeypatch, tmp_path, MAX_WIDTH + 1)
        for code, err in results.values():
            assert code == 1
            assert f"layout is {MAX_WIDTH + 1} bits wide" in err

    def test_ipv6_five_tuple_is_valid(self):
        layout = HeaderLayout((("src", 128), ("dst", 128), ("proto", 8), ("sport", 16),
                               ("dport", 16)))
        assert layout.total_width == 296


class TestBenchAndExitCodes:
    def test_check_reports_divergence_with_exit_2(self, capsys, snapshot_file,
                                                  monkeypatch):
        from atomtrace.label_plane import EquivalenceReport, Divergence
        from atomtrace.behavior import BehaviorReport, Dropped

        fake = BehaviorReport((), Dropped("s1", "acl_in"))
        report = EquivalenceReport(
            1, (Divergence(None, ("s1", "ext"), fake, fake),)
        )
        monkeypatch.setattr(cli, "equivalence_check", lambda *a, **k: report)
        code, out, _ = run(capsys, "check", "--snapshot", snapshot_file, "--exhaustive")
        assert code == 2
        assert json.loads(out)["divergence_count"] == 1

    def test_internal_error_is_exit_3(self, capsys, snapshot_file, monkeypatch):
        monkeypatch.setattr(cli, "build_pipeline",
                            lambda *a, **k: (_ for _ in ()).throw(RuntimeError("boom")))
        code, _, err = run(capsys, "compile", "--snapshot", snapshot_file)
        assert code == 3
        assert "boom" in err
