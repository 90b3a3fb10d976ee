import pytest

from atomtrace.bdd import HeaderLayout
from atomtrace.model import parse_snapshot
from atomtrace.pipeline import build_pipeline
from atomtrace.workload import (
    InfeasibleSpec,
    WorkloadSpec,
    generate,
    snapshot_bytes,
)


class TestGenerate:
    def test_same_seed_byte_identical(self):
        spec = WorkloadSpec(seed=42, box_count=6, update_count=20)
        d1, u1, h1 = generate(spec)
        d2, u2, h2 = generate(spec)
        assert snapshot_bytes(d1) == snapshot_bytes(d2)
        assert u1 == u2 and h1 == h2

    def test_different_seeds_differ(self):
        d1, _, _ = generate(WorkloadSpec(seed=1))
        d2, _, _ = generate(WorkloadSpec(seed=2))
        assert snapshot_bytes(d1) != snapshot_bytes(d2)

    @pytest.mark.parametrize("seed", range(5))
    def test_generated_snapshots_validate(self, seed):
        doc, _, _ = generate(WorkloadSpec(seed=seed, box_count=5, update_count=10))
        snap = parse_snapshot(snapshot_bytes(doc))
        assert len(snap.boxes) == 5
        # connected: spanning tree guarantees >= box_count - 1 links
        assert len(snap.links) >= 4
        assert snap.external_ports

    def test_small_layout(self):
        layout = HeaderLayout((("h", 4),))
        doc, _, headers = generate(
            WorkloadSpec(seed=3, layout=layout, box_count=2, rule_field="h",
                         prefix_len=(1, 3), header_samples=10)
        )
        snap = parse_snapshot(snapshot_bytes(doc))
        assert snap.layout == layout
        for h in headers:
            assert 0 <= h["h"] < 16

    def test_predicate_count_regression_floor(self):
        # pinned after one measurement: a 50x200 workload must keep
        # compiling to a rich predicate set
        doc, _, _ = generate(
            WorkloadSpec(seed=0, box_count=50, rules_per_box=(100, 200),
                         prefix_len=(1, 12), header_samples=0)
        )
        pipe = build_pipeline(parse_snapshot(snapshot_bytes(doc)))
        assert len(pipe.compiled.all_preds) >= 100

    def test_infeasible_specs(self):
        with pytest.raises(InfeasibleSpec):
            generate(WorkloadSpec(box_count=0))
        with pytest.raises(InfeasibleSpec):
            generate(WorkloadSpec(layout=HeaderLayout((("h", 4),)),
                                  rule_field="h", prefix_len=(1, 8)))
        for name in ("rules_per_box", "acls_per_box", "acl_entries", "prefix_len"):
            with pytest.raises(InfeasibleSpec, match=f"{name} range .* is empty"):
                generate(WorkloadSpec(**{name: (2, 1)}))

    def test_update_stream_removes_only_live(self):
        _, updates, _ = generate(WorkloadSpec(seed=9, update_count=200, add_ratio=0.5))
        live = set()
        for u in updates:
            key = tuple((c["value"], c["length"]) for c in u["pred"])
            if u["op"] == "add":
                assert key not in live
                live.add(key)
            else:
                assert key in live
                live.remove(key)
