"""Command-line entry point: gen, compile, atoms, tree-stats, classify,
trace, update, labels, check.

All input and output is line-delimited JSON; diagnostics go to stderr.
Exit codes: 0 success, 1 usage or parse error, 2 divergence or invariant
failure, 3 internal error.  A bad input line (malformed JSON, too many
digits or too deep nesting, a missing key, an out-of-range field value,
an unknown or malformed ingress, an unknown op, an added constant
predicate) is a usage error: it stops the command with exit 1 and a
message naming the line.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
import time

from . import aptree, bench
from .atoms import UnknownPredicate
from .bdd import Header, HeaderLayout, Predicate
from .behavior import BadIngress, identify
from .label_plane import equivalence_check, serialize_tables
from .model import SnapshotError, parse_snapshot, _parse_match
from .pipeline import Pipeline, build_pipeline
from .workload import InfeasibleSpec, WorkloadSpec, generate, snapshot_bytes, TUPLE5

log = logging.getLogger("atomtrace")

SMALL = HeaderLayout((("h", 4),))


class UsageError(Exception):
    pass


# what parsing one line of outside input raises when the line is bad
# (json.JSONDecodeError, an integer past the digit limit and
# bdd.ValueOutOfRange are ValueErrors; nesting past the recursion limit is
# a RecursionError)
_BAD_INPUT = (KeyError, TypeError, ValueError, RecursionError)


def _bad_line(lineno: int, e: Exception, source: str = "") -> UsageError:
    where = f"{source}: line {lineno}" if source else f"line {lineno}"
    return UsageError(f"{where}: {type(e).__name__}: {e}")


def _count(least: int):
    """An argparse type for a count: an int no smaller than least."""

    def count(text: str) -> int:
        value = int(text)
        if value < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, not {value}")
        return value

    return count


def _load_pipeline(args) -> Pipeline:
    try:
        with open(args.snapshot, "rb") as f:
            data = f.read()
    except OSError as e:
        raise UsageError(f"cannot read snapshot {args.snapshot!r}: {e}")
    try:
        snapshot = parse_snapshot(data)
    except SnapshotError as e:
        raise UsageError(f"{args.snapshot}: {e}")
    return build_pipeline(snapshot, strategy=args.strategy, seed=args.seed)


def _parse_header(pipe: Pipeline, obj) -> Header:
    if not isinstance(obj, dict):
        raise TypeError(f"a header is a JSON object of field values, not {obj!r}")
    return pipe.snapshot.layout.header(obj)


def _parse_ingress(obj) -> tuple[str, str]:
    if not (isinstance(obj, list) and len(obj) == 2 and all(isinstance(x, str) for x in obj)):
        raise TypeError(f"an ingress is a [box, port] pair of strings, not {obj!r}")
    return obj[0], obj[1]


def _resolve_update_pred(pipe: Pipeline, spec) -> Predicate:
    """An update names a predicate by rule/ACL reference or inline constraints."""
    engine = pipe.engine
    if isinstance(spec, list):
        return engine.match_all(_parse_match(spec, pipe.snapshot.layout, "update"))
    if isinstance(spec, dict):
        box = spec.get("box")
        if "port" in spec:
            return pipe.compiled.port_preds[(box, spec["port"])]
        if "acl" in spec:
            port, direction = spec["acl"]
            return pipe.compiled.acl_preds[(box, port, direction)]
    raise TypeError(f"bad update predicate {spec!r}")


def cmd_gen(args) -> int:
    layout = SMALL if args.layout == "small" else TUPLE5
    spec = WorkloadSpec(
        seed=args.seed,
        layout=layout,
        box_count=args.boxes,
        rules_per_box=(max(1, args.rules // 2), args.rules),
        rule_field="h" if args.layout == "small" else "dst",
        prefix_len=(1, 3) if args.layout == "small" else (1, 8),
        update_count=args.update_count,
        header_samples=args.sample,
    )
    try:
        doc, updates, headers = generate(spec)
    except InfeasibleSpec as e:
        raise UsageError(f"gen: {e}")
    _write(args.out, snapshot_bytes(doc))
    if args.updates_out:
        _write(args.updates_out, "".join(json.dumps(u) + "\n" for u in updates).encode())
    if args.headers_out:
        _write(args.headers_out, "".join(json.dumps(h) + "\n" for h in headers).encode())
    print(json.dumps({"snapshot": args.out, "updates": len(updates), "headers": len(headers)}))
    return 0


def _write(path: str, data: bytes) -> None:
    try:
        with open(path, "wb") as f:
            f.write(data)
    except OSError as e:
        raise UsageError(f"cannot write {path!r}: {e}")


def cmd_compile(args) -> int:
    pipe = _load_pipeline(args)
    engine = pipe.engine
    ports = {
        f"{b}:{p}": engine.sat_count(pred)
        for (b, p), pred in sorted(pipe.compiled.port_preds.items())
    }
    print(
        json.dumps(
            {
                "boxes": len(pipe.snapshot.boxes),
                "predicates": len(pipe.compiled.all_preds),
                "port_sat_counts": ports,
                "bdd_nodes": len(engine._var),
            }
        )
    )
    return 0


def cmd_atoms(args) -> int:
    pipe = _load_pipeline(args)
    engine = pipe.engine
    out = {
        "atom_count": len(pipe.atom_set),
        "atoms": [
            {"id": i, "sat_count": engine.sat_count(pipe.atom_set.pred_of(i))}
            for i in pipe.atom_set.order
        ],
        "membership": [
            sorted(pipe.atom_set.members_of(p)) for p in pipe.sources
        ],
    }
    print(json.dumps(out))
    return 0


def cmd_tree_stats(args) -> int:
    pipe = _load_pipeline(args)
    tree = pipe.tree
    print(json.dumps(_tree_stats(tree)))
    return 0


def _tree_stats(tree) -> dict:
    ls = aptree.leaves(tree)
    return {
        "version": tree.version,
        "atom_count": len(tree.atom_set),
        "leaf_count": len(ls),
        "avg_leaf_depth": float(aptree.avg_leaf_depth(tree)),
        "max_depth": max(d for _, d in ls),
        "structural_updates": tree.structural_updates,
        "index_nodes": len(tree.atom_set.store),
    }


def cmd_classify(args) -> int:
    pipe = _load_pipeline(args)
    lines = [(1, args.header)] if args.header else enumerate(sys.stdin, 1)
    for lineno, line in lines:
        if not line.strip():
            continue
        try:
            h = _parse_header(pipe, json.loads(line))
        except _BAD_INPUT as e:
            raise _bad_line(lineno, e) from e
        print(json.dumps({"atom": aptree.classify(pipe.tree, h)}))
    return 0


def cmd_trace(args) -> int:
    pipe = _load_pipeline(args)
    for lineno, line in enumerate(sys.stdin, 1):
        if not line.strip():
            continue
        try:
            obj = json.loads(line)
            h = _parse_header(pipe, obj["header"])
            ingress = _parse_ingress(obj["ingress"])
        except _BAD_INPUT as e:
            raise _bad_line(lineno, e) from e
        try:
            report = identify(pipe.tree, pipe.bmap, pipe.snapshot, h, ingress)
        except BadIngress as e:
            raise _bad_line(lineno, e) from e
        print(json.dumps(report.to_json()))
    return 0


def cmd_update(args) -> int:
    pipe = _load_pipeline(args)
    classifier = aptree.PublishedClassifier(
        pipe.tree, rebuild_after=args.rebuild_threshold
    )
    latencies = []
    try:
        f = open(args.updates, "rb")  # json.loads decodes each line inside its try
    except OSError as e:
        raise UsageError(f"cannot read updates {args.updates!r}: {e}")
    with f:
        for lineno, line in enumerate(f, 1):
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
                op = obj["op"]
                pred = _resolve_update_pred(pipe, obj["pred"])
            except _BAD_INPUT as e:
                raise _bad_line(lineno, e, args.updates) from e
            if op not in ("add", "remove"):
                raise UsageError(f"{args.updates}: line {lineno}: unknown op {op!r}")
            if op == "add" and (pipe.engine.is_true(pred) or pipe.engine.is_false(pred)):
                raise UsageError(
                    f"{args.updates}: line {lineno}: cannot add a constant predicate")
            start = time.perf_counter()
            try:
                (classifier.add if op == "add" else classifier.remove)(pred)
            except UnknownPredicate as e:
                print(json.dumps({"op": op, "error": str(e)}))
                continue
            ms = (time.perf_counter() - start) * 1000.0
            latencies.append(ms)
            print(json.dumps({"op": op, "ms": round(ms, 4)}))
    s = sorted(latencies)
    engine = classifier.tree.engine
    summary = {
        "updates": len(latencies),
        "p50_ms": bench.percentile(s, 0.5),
        "p90_ms": bench.percentile(s, 0.9),
        "p95_ms": bench.percentile(s, 0.95),
        "p99_ms": bench.percentile(s, 0.99),
        "rebuilds": classifier.rebuild_count,
        "rebuild_log": classifier.rebuilds,
        "bdd_nodes": len(engine._var),
        "op_cache_entries": len(engine._cache),
    }
    summary.update(_tree_stats(classifier.tree))
    print(json.dumps(summary))
    return 0


def cmd_labels(args) -> int:
    pipe = _load_pipeline(args)
    plane = pipe.label_plane(agent_key=args.key)
    print(json.dumps(serialize_tables(plane)))
    return 0


def cmd_check(args) -> int:
    import random

    pipe = _load_pipeline(args)
    plane = pipe.label_plane(agent_key=args.key)
    layout = pipe.snapshot.layout
    if args.exhaustive:
        if layout.total_width > 20:
            raise UsageError("--exhaustive needs a layout of at most 20 bits")
        headers = list(layout.all_headers())
    else:
        rng = random.Random(args.seed)
        headers = [
            layout.header({n: rng.getrandbits(w) for n, w in layout.fields})
            for _ in range(args.sample)
        ]
    report = equivalence_check(plane, pipe.tree, pipe.bmap, pipe.snapshot, headers)
    print(
        json.dumps(
            {
                "checked": report.checked,
                "divergences": [
                    {
                        "ingress": list(d.ingress),
                        "expected": d.expected.to_json(),
                        "actual": d.actual.to_json(),
                    }
                    for d in report.divergences[:10]
                ],
                "divergence_count": len(report.divergences),
            }
        )
    )
    return 0 if report.ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="atomtrace")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        return p

    p = add("gen", cmd_gen, help="generate a synthetic snapshot")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--boxes", type=int, default=4)
    p.add_argument("--rules", type=int, default=8)
    p.add_argument("--layout", choices=["small", "tuple5"], default="tuple5")
    p.add_argument("--update-count", type=_count(0), default=0)
    p.add_argument("--sample", type=_count(0), default=100)
    p.add_argument("--out", required=True)
    p.add_argument("--updates-out")
    p.add_argument("--headers-out")

    for name, fn in [
        ("compile", cmd_compile),
        ("atoms", cmd_atoms),
        ("tree-stats", cmd_tree_stats),
        ("classify", cmd_classify),
        ("trace", cmd_trace),
        ("update", cmd_update),
        ("labels", cmd_labels),
        ("check", cmd_check),
    ]:
        p = add(name, fn)
        p.add_argument("--snapshot", required=True)
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--strategy", choices=["greedy", "order", "random"], default="greedy")
        if name == "classify":
            p.add_argument("--header", help="single header JSON; otherwise read stdin")
        if name == "update":
            p.add_argument("--updates", required=True)
            p.add_argument("--rebuild-threshold", type=_count(1), default=256)
        if name in ("labels", "check"):
            p.add_argument("--key", type=int, default=0)
        if name == "check":
            p.add_argument("--exhaustive", action="store_true")
            p.add_argument("--sample", type=_count(1), default=1000)

    return parser


def main(argv=None) -> int:
    logging.basicConfig(
        level=os.environ.get("APB_LOG", "WARNING").upper(), stream=sys.stderr
    )
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    try:
        return args.fn(args)
    except (UsageError, SnapshotError, json.JSONDecodeError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except AssertionError as e:
        print(f"invariant failure: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - CLI boundary
        log.exception("internal error")
        print(f"internal error: {e}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
