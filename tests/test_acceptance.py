"""Acceptance gate: one test per shipping criterion, each printing a
PASS/FAIL line with the measured numbers.

The large-snapshot criteria share a module-scoped pool of seeded synthetic
pipelines so the whole gate stays inside its runtime budget.
"""

import os
import random
import statistics
import threading
import time

import pytest

from atomtrace import aptree
from atomtrace.atoms import atom_of_header
from atomtrace.behavior import identify, reference_trace, reports_agree
from atomtrace.label_plane import equivalence_check, serialize_tables
from atomtrace.pipeline import build_pipeline
from atomtrace.workload import WorkloadSpec, generate, generate_snapshot, snapshot_bytes
from atomtrace.model import parse_snapshot
from tests.conftest import LOOP_DOC, REWRITE_DOC, TWO_BOX_DOC, doc_bytes
from tests import load

HEADERS_PER_SNAPSHOT = 10_000


def random_headers(layout, n, seed):
    rng = random.Random(seed)
    return [
        layout.header({name: rng.getrandbits(w) for name, w in layout.fields})
        for _ in range(n)
    ]


# 25 seeds; mostly small, a few mid-size, two at the 50-box / 200-rule cap
def _pool_spec(seed: int) -> WorkloadSpec:
    if seed >= 23:
        return WorkloadSpec(seed=seed, box_count=50, rules_per_box=(100, 200),
                            prefix_len=(1, 12), header_samples=0)
    if seed >= 20:
        return WorkloadSpec(seed=seed, box_count=20, rules_per_box=(20, 40),
                            prefix_len=(1, 10), header_samples=0)
    return WorkloadSpec(seed=seed, box_count=4 + seed % 7,
                        rules_per_box=(2, 8 + 2 * (seed % 5)),
                        header_samples=0)


@pytest.fixture(scope="module")
def pool():
    return [build_pipeline(generate_snapshot(_pool_spec(s))) for s in range(25)]


@pytest.fixture(scope="module")
def fixture_pipelines():
    return {
        name: build_pipeline(parse_snapshot(doc_bytes(doc)))
        for name, doc in [
            ("two_box", TWO_BOX_DOC), ("loop", LOOP_DOC), ("rewrite", REWRITE_DOC)
        ]
    }


@pytest.fixture
def announce(capsys):
    def _a(line):
        with capsys.disabled():
            print(line)
    return _a


def test_criterion_1_oracle_equivalence(pool, fixture_pipelines, announce):
    """Tree classification agrees with the linear-scan oracle everywhere."""
    start = time.perf_counter()
    mismatches = 0
    checked = 0
    for i, pipe in enumerate(pool):
        for h in random_headers(pipe.snapshot.layout, HEADERS_PER_SNAPSHOT, i):
            checked += 1
            if aptree.classify(pipe.tree, h) != atom_of_header(pipe.atom_set, h):
                mismatches += 1
    for pipe in fixture_pipelines.values():
        assert pipe.snapshot.layout.total_width <= 12
        for h in pipe.snapshot.layout.all_headers():
            checked += 1
            if aptree.classify(pipe.tree, h) != atom_of_header(pipe.atom_set, h):
                mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 120.0
    announce(
        f"ACCEPTANCE 1 (oracle equivalence): {'PASS' if ok else 'FAIL'} — "
        f"{checked} classifications on 25 snapshots + 3 exhaustive fixtures, "
        f"{mismatches} mismatches, {elapsed:.1f}s"
    )
    assert mismatches == 0
    assert elapsed < 120.0, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_2_partition_proofs(pool, announce):
    """Disjointness, totality, and membership reconstruction, handle-exact."""
    for pipe in pool:
        engine = pipe.engine
        aset = pipe.atom_set
        preds = [aset.pred_of(i) for i in aset.order]
        for i, a in enumerate(preds):
            for b in preds[i + 1:]:
                assert engine.is_false(engine.conj(a, b))
        total = engine.false_
        for a in preds:
            total = engine.disj(total, a)
        assert total.node == engine.true_.node
        for p in pipe.sources:
            rebuilt = engine.false_
            for aid in aset.members_of(p):
                rebuilt = engine.disj(rebuilt, aset.pred_of(aid))
            assert rebuilt.node == p.node
    announce(
        "ACCEPTANCE 2 (partition proofs): PASS — disjointness, totality and "
        f"membership reconstruction handle-exact on all {len(pool)} snapshots"
    )


def test_criterion_3_behavioral_soundness(pool, fixture_pipelines, announce):
    """identify() equals the raw-header reference simulator everywhere."""
    divergences = 0
    checked = 0

    def check(pipe, headers):
        nonlocal divergences, checked
        for h in headers:
            for ingress in sorted(pipe.snapshot.external_ports):
                checked += 1
                got = identify(pipe.tree, pipe.bmap, pipe.snapshot, h, ingress)
                raw = reference_trace(pipe.snapshot, h, ingress)
                if not reports_agree(pipe.atom_set, got, raw):
                    divergences += 1

    saw_loop = False
    for name, pipe in fixture_pipelines.items():
        headers = list(pipe.snapshot.layout.all_headers())
        check(pipe, headers)
        if name == "loop":
            from atomtrace.behavior import Loop
            outcomes = [
                identify(pipe.tree, pipe.bmap, pipe.snapshot, h, ingress).disposition
                for h in headers for ingress in sorted(pipe.snapshot.external_ports)
            ]
            saw_loop = any(isinstance(d, Loop) for d in outcomes)
    for seed in (5, 23):  # one small, one 50-box 104-bit workload
        pipe = pool[seed]
        check(pipe, random_headers(pipe.snapshot.layout, 10_000 // max(
            1, len(pipe.snapshot.external_ports)), seed + 100))
    ok = divergences == 0 and saw_loop
    announce(
        f"ACCEPTANCE 3 (behavioral soundness): {'PASS' if ok else 'FAIL'} — "
        f"{checked} traces vs reference simulator, {divergences} divergences, "
        f"loop fixture reports Loop: {saw_loop}"
    )
    assert saw_loop
    assert divergences == 0


def test_criterion_4_strategy_dominance(announce):
    """Greedy never loses to the mean of 20 random-order builds."""
    ratios = []
    for seed in range(10):
        spec = WorkloadSpec(seed=seed + 1000, box_count=15,
                            rules_per_box=(15, 30), prefix_len=(1, 10),
                            header_samples=0)
        pipe = build_pipeline(generate_snapshot(spec))
        nonconstant = [p for p in pipe.sources
                       if not pipe.engine.is_false(p) and not pipe.engine.is_true(p)]
        assert len(nonconstant) >= 50, f"workload {seed} too small: {len(nonconstant)}"
        greedy = float(aptree.avg_leaf_depth(pipe.tree))
        randoms = [
            float(aptree.avg_leaf_depth(
                aptree.build(pipe.atom_set, strategy=aptree.RANDOM, seed=r)))
            for r in range(20)
        ]
        mean = statistics.mean(randoms)
        assert greedy <= mean, f"workload {seed}: greedy {greedy} > random mean {mean}"
        ratios.append(greedy / mean)
    announce(
        "ACCEPTANCE 4 (strategy dominance): PASS — greedy avg depth beat the "
        f"20-random-build mean on 10/10 workloads; depth ratios "
        f"min={min(ratios):.2f} mean={statistics.mean(ratios):.2f} "
        f"max={max(ratios):.2f}"
    )


def test_criterion_5_update_correctness(announce):
    """10^3 mixed updates: incremental cells nest in fresh atoms, and both
    trees classify every header into the same fresh atom."""
    violations = 0
    for seed in (0, 1):
        doc, updates, _ = generate(
            WorkloadSpec(seed=seed, box_count=8, rules_per_box=(5, 15),
                         prefix_len=(1, 16), update_count=1000, header_samples=0)
        )
        pipe = build_pipeline(parse_snapshot(snapshot_bytes(doc)))
        engine = pipe.engine
        tree = pipe.tree
        for u in updates:
            pred = engine.match_all(
                [_to_constraint(pipe.snapshot.layout, c) for c in u["pred"]]
            )
            if u["op"] == "add":
                tree = aptree.add_predicate(tree, pred)
            else:
                tree = aptree.remove_predicate(tree, pred)
        rebuilt = aptree.rebuild(tree)
        fresh = rebuilt.atom_set

        # every incremental cell sits inside exactly one fresh atom
        cell_home = {}
        for cid in tree.atom_set.order:
            cell = tree.atom_set.pred_of(cid)
            homes = [fid for fid in fresh.order
                     if engine.implies(cell, fresh.pred_of(fid))]
            if len(homes) != 1:
                violations += 1
            else:
                cell_home[cid] = homes[0]

        for h in random_headers(pipe.snapshot.layout, 10_000, seed + 7):
            cell = aptree.classify(tree, h)
            if cell_home.get(cell) != aptree.classify(rebuilt, h):
                violations += 1
    announce(
        f"ACCEPTANCE 5 (update correctness): {'PASS' if not violations else 'FAIL'}"
        f" — 2x1000 mixed updates, cell containment + 2x10^4 header consistency, "
        f"{violations} violations"
    )
    assert violations == 0


def _to_constraint(layout, c):
    from atomtrace.bdd import FieldConstraint

    return FieldConstraint.prefix(c["field"], c["value"], c["length"])


def _update_ops(pipe, updates):
    return [
        (u["op"], pipe.engine.match_all(
            [_to_constraint(pipe.snapshot.layout, c) for c in u["pred"]]))
        for u in updates
    ]


def test_criterion_6_live_update_latency(announce):
    """p95 update latency under 4 query threads stays below 50 ms, and no
    concurrent query ever returns a wrong atom for the version it saw."""
    doc, updates, _ = generate(
        WorkloadSpec(seed=4, box_count=30, rules_per_box=(20, 40),
                     prefix_len=(1, 12), update_count=300, header_samples=0)
    )
    pipe = build_pipeline(parse_snapshot(snapshot_bytes(doc)))
    assert len(pipe.sources) >= 100, f"want a 100-predicate snapshot, got {len(pipe.sources)}"
    classifier = aptree.PublishedClassifier(pipe.tree, rebuild_after=10_000)
    headers = random_headers(pipe.snapshot.layout, 500, 11)
    run = load.run_updates_under_load(
        classifier, _update_ops(pipe, updates), headers, query_threads=4,
        oracle=lambda tree, h: atom_of_header(tree.atom_set, h),
    )
    p = run.percentiles()
    ok = p["p95"] < 50.0 and run.query_errors == 0
    announce(
        f"ACCEPTANCE 6 (live-update latency): {'PASS' if ok else 'FAIL'} — "
        f"{len(run.latencies_ms)} updates on a {len(pipe.sources)}-predicate "
        f"snapshot, p50={p['p50']:.2f}ms p95={p['p95']:.2f}ms (<50ms), "
        f"{run.queries_done} concurrent queries, {run.query_errors} wrong"
    )
    assert p["p95"] < 50.0
    assert run.query_errors == 0
    assert run.queries_done > 0


@pytest.fixture(scope="module")
def hundred_pred_pipeline():
    pipe = build_pipeline(generate_snapshot(
        WorkloadSpec(seed=4, box_count=30, rules_per_box=(20, 40),
                     prefix_len=(1, 12), header_samples=0)))
    assert len(pipe.sources) >= 100
    return pipe


def test_criterion_7_throughput(hundred_pred_pipeline, announce):
    pipe = hundred_pred_pipeline
    headers = random_headers(pipe.snapshot.layout, 10_000, 2) * 10
    qps = load.classify_throughput(pipe.tree, headers)
    ok = qps >= 100_000
    announce(
        f"ACCEPTANCE 7 (throughput, single thread): {'PASS' if ok else 'FAIL'} — "
        f"{qps:,.0f} queries/s on a {len(pipe.sources)}-predicate snapshot "
        f"(floor 100,000)"
    )
    assert qps >= 100_000


def test_criterion_7_scaling(hundred_pred_pipeline, announce):
    cpus = os.cpu_count() or 1
    if cpus < 4:
        announce(
            f"ACCEPTANCE 7 (throughput, 1->4 scaling): SKIP — host has {cpus} "
            f"CPU(s); the >=2x scaling clause needs at least 4 cores to be "
            f"physically attainable"
        )
        pytest.skip(f"host has {cpus} CPU(s); 1->4 worker scaling needs >= 4 cores")
    pipe = hundred_pred_pipeline
    headers = random_headers(pipe.snapshot.layout, 10_000, 2) * 10
    one = load.classify_throughput(pipe.tree, headers)
    four = load.parallel_throughput(pipe.tree, headers, 4)
    factor = four / one
    announce(
        f"ACCEPTANCE 7 (throughput, 1->4 scaling): "
        f"{'PASS' if factor >= 2.0 else 'FAIL'} — {factor:.2f}x (floor 2.0x)"
    )
    assert factor >= 2.0


def test_criterion_8_label_plane_equivalence(pool, fixture_pipelines, announce):
    divergences = 0
    checked = 0
    for pipe in fixture_pipelines.values():
        plane = pipe.label_plane(agent_key=17)
        report = equivalence_check(
            plane, pipe.tree, pipe.bmap, pipe.snapshot,
            pipe.snapshot.layout.all_headers(),
        )
        checked += report.checked
        divergences += len(report.divergences)
    pipe = pool[23]  # 50-box 104-bit workload
    plane = pipe.label_plane(agent_key=17)
    n = 10_000 // max(1, len(pipe.snapshot.external_ports))
    report = equivalence_check(
        plane, pipe.tree, pipe.bmap, pipe.snapshot,
        random_headers(pipe.snapshot.layout, n, 31),
    )
    checked += report.checked
    divergences += len(report.divergences)

    # privacy shape: the serialized in-cloud tables carry labels and port
    # names only, never field constraints or header bits
    forbidden = {"field", "kind", "value", "length", "lo", "hi", "match"}
    def keys_of(obj):
        if isinstance(obj, dict):
            for k, v in obj.items():
                yield k
                yield from keys_of(v)
        elif isinstance(obj, list):
            for v in obj:
                yield from keys_of(v)
    leaked = forbidden & set(keys_of(serialize_tables(plane)))
    ok = divergences == 0 and not leaked
    announce(
        f"ACCEPTANCE 8 (label-plane equivalence): {'PASS' if ok else 'FAIL'} — "
        f"{checked} ingress traces (3 exhaustive fixtures + 104-bit samples), "
        f"{divergences} divergences, leaked constraint keys: {sorted(leaked) or 'none'}"
    )
    assert divergences == 0
    assert not leaked


def test_criterion_9_rebuild_under_load(announce):
    """A forced rebuild swap is invisible to readers and never deepens the
    tree for the live predicate set."""
    doc, updates, _ = generate(
        WorkloadSpec(seed=6, box_count=10, rules_per_box=(8, 16),
                     update_count=400, header_samples=0)
    )
    pipe = build_pipeline(parse_snapshot(snapshot_bytes(doc)))
    classifier = aptree.PublishedClassifier(pipe.tree, rebuild_after=10_000)
    for op, pred in _update_ops(pipe, updates):
        classifier.add(pred) if op == "add" else classifier.remove(pred)
    pre = classifier.tree
    pre_depth = aptree.avg_leaf_depth(pre)

    headers = random_headers(pipe.snapshot.layout, 500, 21)
    stop = threading.Event()
    errors = []
    done = [0] * 4

    def reader(i):
        k = i
        while not stop.is_set():
            tree = classifier.tree
            h = headers[k % len(headers)]
            k += 4
            if aptree.classify(tree, h) != atom_of_header(tree.atom_set, h):
                errors.append((tree.version, h))
            done[i] += 1

    threads = [threading.Thread(target=reader, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    time.sleep(0.05)
    rebuilt = classifier.rebuild()
    time.sleep(0.05)
    stop.set()
    for t in threads:
        t.join()

    post_depth = aptree.avg_leaf_depth(rebuilt)
    ok = not errors and post_depth <= pre_depth and rebuilt.version == pre.version + 1
    announce(
        f"ACCEPTANCE 9 (rebuild under load): {'PASS' if ok else 'FAIL'} — "
        f"{sum(done)} queries across the swap, {len(errors)} wrong/failed; "
        f"avg depth {float(pre_depth):.2f} -> {float(post_depth):.2f} "
        f"(must not grow)"
    )
    assert not errors
    assert sum(done) > 0
    assert rebuilt.version == pre.version + 1
    assert post_depth <= pre_depth
