"""Canonical digests of a pipeline and of the versions an update stream
publishes, and the golden file that pins them for perfbench's snapshots.

A digest names what a reader can observe, never where it lives.  A BDD is
hashed over its structure -- its variable and the hashes of its low and
high children -- not over its node handle, so equal diagrams in engines
that number their nodes differently hash alike.  A version's digest covers
its atoms (ids, order, predicates, next id), its sources and their
membership bitsets, the built tree's nodes, the sorted leaves with their depths and
depth_sum, and the atom that classify names for each of a fixed sample of
headers.  A pipeline's digest adds every box table, the rewrite tables and
the label plane under a fixed key.

Run `python -m tests.digest` from the repository root to print the digests,
and `python -m tests.digest --write` to rewrite the golden file.  A change
that rewrites it should say why.
"""

from __future__ import annotations

import json
import random
import sys
from hashlib import blake2b
from pathlib import Path

from atomtrace import aptree
from atomtrace.aptree import Internal, PublishedClassifier
from atomtrace.model import _parse_match, parse_snapshot
from atomtrace.pipeline import Pipeline, build_pipeline
from atomtrace.workload import WorkloadSpec, generate, snapshot_bytes

# perfbench/workloads.py holds the snapshot recipes (tests/conftest.py adds
# the same path under pytest)
PERFBENCH = str(Path(__file__).resolve().parent.parent / "perfbench")
if PERFBENCH not in sys.path:
    sys.path.append(PERFBENCH)

import workloads as bench  # noqa: E402
from tests.test_label_plane import multi_field_doc, nat_doc  # noqa: E402

GOLDEN = Path(__file__).with_name("digests.json")
LABEL_KEY = 7
HEADER_SAMPLE = 256
REBUILD_AFTER = 256  # perfbench's, and the CLI's default --rebuild-threshold


def _hex(*parts) -> str:
    return blake2b(json.dumps(parts, separators=(",", ":")).encode(), digest_size=16).hexdigest()


class StructuralHash:
    """Hashes of one engine's BDDs over their structure, memoised by node."""

    def __init__(self, engine):
        self.engine = engine
        self.memo = {0: "F", 1: "T"}

    def node(self, root: int) -> str:
        var, lo, hi, memo = self.engine._var, self.engine._lo, self.engine._hi, self.memo
        stack = [root]
        while stack:
            n = stack[-1]
            if n in memo:
                stack.pop()
                continue
            l, h = lo[n], hi[n]
            if l in memo and h in memo:
                memo[n] = _hex(var[n], memo[l], memo[h])
                stack.pop()
            else:
                stack += [c for c in (l, h) if c not in memo]
        return memo[root]

    def __call__(self, p) -> str:
        return self.node(p.node)


def tree_nodes(tree, h: StructuralHash) -> list:
    """The built tree in preorder: a predicate hash per test, an id per leaf."""
    out, stack = [], [tree.root]
    while stack:
        node = stack.pop()
        if isinstance(node, Internal):
            out.append(h(node.pred))
            stack += [node.false_child, node.true_child]
        else:
            out.append(node.atom)
    return out


def version_digest(tree, h: StructuralHash, headers) -> str:
    aset = tree.atom_set
    return _hex(
        [[i, h(aset.pred_of(i))] for i in aset.order],
        aset.next_id,
        [[h(p), aset.member_bits(p)] for p in aset.sources],
        tree_nodes(tree, h),
        sorted(aptree.leaves(tree)),
        tree.depth_sum,
        tree.version,
        tree.structural_updates,
        [aptree.classify(tree, x) for x in headers],
    )


def _table(t) -> list:
    return [
        sorted(t.forward.items()),
        sorted(t.drop),
        [[port, d, sorted(ks)] for (port, d), ks in sorted(t.acl_permit.items())],
        sorted(t.rewrite.items()),
    ]


def pipeline_digest(pipe: Pipeline, h: StructuralHash, headers) -> str:
    plane = pipe.label_plane(LABEL_KEY)
    return _hex(
        version_digest(pipe.tree, h, headers),
        [[b, _table(t)] for b, t in sorted(pipe.bmap.tables.items())],
        [[b, sorted(r.items())] for b, r in sorted(pipe.bmap.atom_rewrite.items())],
        sorted(plane.label_of.items()),
        [[b, _table(t)] for b, t in sorted(plane.box_tables.items())],
    )


# --- perfbench's snapshots and streams --------------------------------------


def _spec(snapshot: str, updates: int) -> WorkloadSpec:
    w = bench.WORKLOADS["build-large" if snapshot == "large" else "query"]
    return bench.snapshot_spec(w, w.snapshot_seed, updates)


# name: (snapshot, updates, pinned stream positions).  The update counts are
# what perfbench's 40 s runs apply per update phase; live-update's stream
# rebuilds on the count trigger after updates 256 and 512.  query's snapshot
# is the query one with its 3 NAT boxes (nat_doc); the generator draws the
# updates after the snapshot, so the stream does not change the snapshot.
# multi-field is that snapshot with a fifth of its rules also constrained on
# src, dport and proto (multi_field_doc), under query's stream.
WORKLOADS = {
    "query": ("nat", 100, (0, 1, 25, 50, 75, 100)),
    "multi-field": ("multi", 100, (0, 100)),
    "live-update": ("query", 700, (0, 1, 100, 255, 256, 257, 511, 512, 513, 700)),
    "build-large": ("large", 40, (0, 1, 20, 40)),
}


def workload_digests(name: str) -> dict:
    """The pipeline's digest; each pinned version's digest as published and
    as re-read at the end of the stream; a chain over every version's
    digest; and the digest of a manual rebuild after the stream."""
    snapshot, count, positions = WORKLOADS[name]
    doc, updates, _ = generate(_spec(snapshot, count))
    if snapshot == "nat":
        doc = nat_doc()
    elif snapshot == "multi":
        doc = multi_field_doc()
    pipe = build_pipeline(parse_snapshot(snapshot_bytes(doc)))
    layout = pipe.snapshot.layout
    rng = random.Random(f"digest:{name}")
    headers = [layout.header({f: rng.getrandbits(w) for f, w in layout.fields})
               for _ in range(HEADER_SAMPLE)]
    ops = [(u["op"], pipe.engine.match_all(_parse_match(u["pred"], layout, "update")))
           for u in updates]
    h = StructuralHash(pipe.engine)
    classifier = PublishedClassifier(pipe.tree, rebuild_after=REBUILD_AFTER)
    chain = version_digest(classifier.tree, h, headers)
    kept, versions = {0: classifier.tree}, {"0": chain}
    for i, (op, p) in enumerate(ops, 1):
        tree = (classifier.add if op == "add" else classifier.remove)(p)
        digest = version_digest(tree, h, headers)
        chain = _hex(chain, digest)
        if i in positions:
            kept[i], versions[str(i)] = tree, digest
    for i, tree in kept.items():
        if version_digest(tree, h, headers) != versions[str(i)]:
            raise AssertionError(f"{name}: version {i} reads differently after the stream")
    return {
        "pipeline": pipeline_digest(pipe, h, headers),
        "versions": versions,
        "chain": chain,
        "rebuilds": [[r["trigger"], r["update"]] for r in classifier.rebuilds],
        "rebuilt": version_digest(classifier.rebuild(), h, headers),
    }


def all_digests() -> dict:
    return {name: workload_digests(name) for name in WORKLOADS}


if __name__ == "__main__":
    digests = all_digests()
    text = json.dumps(digests, indent=1, sort_keys=True) + "\n"
    if sys.argv[1:] == ["--write"]:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
