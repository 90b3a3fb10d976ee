import io
import json
import sys

import pytest

from atomtrace import cli
from atomtrace.atoms import atom_of_header
from tests.conftest import TWO_BOX_DOC, doc_bytes


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
    def test_compile(self, capsys, snapshot_file):
        code, out, _ = run(capsys, "compile", "--snapshot", snapshot_file)
        assert code == 0
        data = json.loads(out)
        assert data["boxes"] == 2
        assert data["port_sat_counts"]["s2:pext"] == 4

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

    def test_bad_json_snapshot(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        code, _, err = run(capsys, "compile", "--snapshot", str(path))
        assert code == 1

    def test_unknown_subcommand(self, capsys):
        assert cli.main(["frobnicate"]) == 1


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
