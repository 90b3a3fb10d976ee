"""The three benchmark workloads: inputs, timed phases and oracle checks.

Every workload runs the same steps in one process:

1. generate the snapshot and its update stream from the workload's fixed
   snapshot seed, and the request lines from the run's seed (untimed);
2. ``setup_repeats`` times: set up (parse the snapshot bytes, build the
   pipeline and the label plane), then run a slice of the closed-loop query
   phase on the main thread.  Each request line goes JSON -> header ->
   classify -> trace -> JSON, and the same packet then goes through the
   label plane (encode -> simulate_cloud -> decode).  Without a reader,
   an open-loop update phase follows: a writer applies the generator's
   update stream to a ``PublishedClassifier`` on a fixed schedule;
3. check a fixed request sample against the repository's oracles (untimed);
4. ``live-update`` only: one longer open-loop update phase, with a reader
   thread beside the writer;
5. check the trees published at fixed positions of the update stream
   (untimed).

Load never uses more than two threads: the main thread and, in
``live-update`` only, one reader.
"""

from __future__ import annotations

import gc
import json
import random
import resource
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Callable, Optional

from atomtrace import aptree, behavior, pipeline
from atomtrace.aptree import PublishedClassifier
from atomtrace.atoms import atom_of_header
from atomtrace.bench import percentile
from atomtrace.behavior import Delivered, Dropped, Loop, reference_trace, reports_agree
from atomtrace.label_plane import LabeledPacket, decode_report, simulate_cloud
from atomtrace.model import _parse_match, parse_snapshot
from atomtrace.pipeline import Pipeline, build_pipeline
from atomtrace.workload import WorkloadSpec, generate, snapshot_bytes

from tracing import NO_REQUEST, Tracer, dump, median_s, per_request, self_times

RATE_BLOCK = 1000  # requests per block of a throughput metric
REQUEST_POOL = 4096
REBUILD_AFTER = 256  # the CLI's default --rebuild-threshold
NAT_PREFIX_LEN = 4  # each NAT box matches 1/16 of the dst space
# The 30-box snapshot of query and live-update.  With seed 2's snapshot and
# NAT boxes, 15 of 2,000 request lines show the loop-detection defect (see
# check); with seed 0's, none do.
QUERY_SNAPSHOT_SEED = 2
SPAN_SAMPLE_REQUESTS = 200  # requests per thread whose spans are written out


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    snapshot: str  # "query": 30 boxes; "large": 50 boxes of 100-200 rules
    snapshot_seed: int
    nat_rewriters: int
    query_share: float  # share of --seconds spent in the query phase
    update_rate: float  # writer schedule, updates per second
    reader: bool  # a reader thread runs beside the writer
    setup_repeats: int  # set-ups per run; setup_s is their median
    check_sample: int  # request lines checked at each position

    def update_count(self, seconds: float) -> int:
        """Updates in one update phase: with a reader there is one phase,
        otherwise one per set-up."""
        total = self.update_rate * seconds * (1.0 - self.query_share)
        return max(1, round(total if self.reader else total / self.setup_repeats))

    def check_positions(self, updates: int) -> list[int]:
        """Update-stream positions whose published tree is checked.

        Fixed positions make the failure count a function of the code and
        the seed only, never of thread timing.
        """
        if self.reader:
            return sorted({round(updates * j / 4) for j in range(5)})
        return [0, updates]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "query",
            "per-packet layers dominate; 3 NAT boxes make set-up run the rewrite-image routines",
            snapshot="query",
            snapshot_seed=QUERY_SNAPSHOT_SEED,
            nat_rewriters=3,
            query_share=0.5,
            update_rate=25.0,
            reader=False,
            setup_repeats=5,
            check_sample=600,
        ),
        Workload(
            "build-large",
            "seed-23 snapshot: set-up is mostly atoms work, and queries walk a deeper tree",
            snapshot="large",
            snapshot_seed=23,
            nat_rewriters=0,
            query_share=0.5,
            update_rate=10.0,
            reader=False,
            setup_repeats=5,
            check_sample=100,
        ),
        Workload(
            "live-update",
            "the only workload where a paced writer runs beside a reader thread",
            snapshot="query",
            snapshot_seed=QUERY_SNAPSHOT_SEED,
            nat_rewriters=0,
            query_share=0.3,
            update_rate=25.0,
            reader=True,
            setup_repeats=15,
            check_sample=150,
        ),
    )
}


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def snapshot_spec(w: Workload, seed: int, updates: int) -> WorkloadSpec:
    if w.snapshot == "large":
        return WorkloadSpec(seed=seed, box_count=50, rules_per_box=(100, 200),
                            prefix_len=(1, 12), update_count=updates, header_samples=0)
    return WorkloadSpec(seed=seed, box_count=30, rules_per_box=(20, 40),
                        prefix_len=(1, 12), update_count=updates, header_samples=0)


def add_nat_rewriters(doc: dict, count: int, rng: random.Random) -> None:
    """Turn count boxes into rewriters that match a dst prefix and set src."""
    for box in rng.sample(doc["boxes"], count):
        box["kind"] = "rewriter"
        box["rewrite"] = {
            "match": [{
                "field": "dst",
                "kind": "prefix",
                "value": rng.getrandbits(NAT_PREFIX_LEN) << (32 - NAT_PREFIX_LEN),
                "length": NAT_PREFIX_LEN,
            }],
            "sets": [{"field": "src", "value": rng.getrandbits(32)}],
        }


@dataclass
class Inputs:
    snapshot_bytes: bytes
    lines: list[str]  # what `atomtrace trace` reads on stdin
    updates: list[dict]  # the generator's update stream


def make_inputs(w: Workload, seed: int, seconds: float) -> Inputs:
    # The snapshot and its update stream are the same for every seed, and
    # the seed draws the requests.  Set-up time, memory and update cost
    # follow the snapshot and the stream: over ten seeds, per-seed snapshots
    # spread live-update's set-up time 0.34 and query's peak RSS 0.10 of
    # the median, and per-seed streams spread the p90 update time 0.28.
    doc, updates, _ = generate(snapshot_spec(w, w.snapshot_seed, w.update_count(seconds)))
    if w.nat_rewriters:
        add_nat_rewriters(doc, w.nat_rewriters, random.Random(f"nat:{w.snapshot_seed}"))
    snapshot = parse_snapshot(doc)
    layout = snapshot.layout
    ingresses = sorted(snapshot.external_ports)
    rng = random.Random(f"requests:{seed}")
    lines = [
        json.dumps({
            "header": {name: rng.getrandbits(width) for name, width in layout.fields},
            "ingress": list(rng.choice(ingresses)),
        })
        for _ in range(REQUEST_POOL)
    ]
    return Inputs(snapshot_bytes(doc), lines, updates)


# ---------------------------------------------------------------------------
# One request, through the module boundaries a traced run puts spans on
# ---------------------------------------------------------------------------


def encode_report(report) -> str:
    return json.dumps(report.to_json())


SPAN_NAMES = {
    "json_decode": "cli.json_decode",
    "header": "bdd.header",
    "classify": "aptree.classify",
    "trace": "behavior.trace",
    "json_encode": "cli.json_encode",
    "label_encode": "label_plane.encode",
    "simulate": "label_plane.simulate_cloud",
    "decode": "label_plane.decode_report",
}


@dataclass(frozen=True)
class Layers:
    """The module functions one request calls; a traced copy wraps each in a span."""

    json_decode: Callable
    header: Callable
    classify: Callable
    trace: Callable
    json_encode: Callable
    label_encode: Callable
    simulate: Callable
    decode: Callable

    def traced(self, tracer: Tracer) -> "Layers":
        return Layers(**{
            f.name: tracer.wrap(SPAN_NAMES[f.name], getattr(self, f.name))
            for f in fields(self)
        })


def plain_layers(pipe: Pipeline, plane) -> Layers:
    return Layers(json.loads, pipe.snapshot.layout.header, aptree.classify,
                  behavior.trace, encode_report, plane.encode, simulate_cloud,
                  decode_report)


def identify(L: Layers, tree, pipe: Pipeline, line: str):
    obj = L.json_decode(line)
    h = L.header(obj["header"])
    ingress = tuple(obj["ingress"])
    atom = L.classify(tree, h)
    report = L.trace(pipe.bmap, pipe.snapshot, atom, ingress)
    out = L.json_encode(report)
    return h, ingress, atom, report, out


def cloud(L: Layers, plane, pipe: Pipeline, atom: int, ingress):
    label = L.label_encode(atom)
    return L.decode(plane, L.simulate(plane, pipe.snapshot, LabeledPacket(label), ingress))


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------


# The stages build_pipeline calls, as (module, the name it looks them up by,
# span name).
BUILD_STAGES = (
    (pipeline, "compile_network", "model.compile_network"),
    (pipeline, "close_over_rewrites", "pipeline.close_over_rewrites"),
    (aptree, "build", "aptree.build"),
    (pipeline, "compile_behavior_map", "behavior.compile_behavior_map"),
)


@contextmanager
def traced_build_stages(tracer: Tracer):
    """While open, each build stage runs inside a span of its own."""
    saved = [(module, name, getattr(module, name)) for module, name, _ in BUILD_STAGES]
    for (module, name, span), (_, _, fn) in zip(BUILD_STAGES, saved):
        setattr(module, name, tracer.wrap(span, fn))
    try:
        yield
    finally:
        for module, name, fn in saved:
            setattr(module, name, fn)


def setup(data: bytes, tracer: Optional[Tracer]):
    """parse + build_pipeline + label_plane(); traced, each stage gets a span."""
    if tracer is None:
        pipe = build_pipeline(parse_snapshot(data))
        return pipe, pipe.label_plane()
    root = tracer.begin("setup")
    snapshot = tracer.wrap("model.parse_snapshot", parse_snapshot)(data)
    with traced_build_stages(tracer):
        pipe = build_pipeline(snapshot)
    plane = tracer.wrap("label_plane.build", pipe.label_plane)()
    tracer.finish(root)
    return pipe, plane


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


@dataclass
class CheckResult:
    position: int
    whole_answer: bool
    attempted: int = 0
    failed: int = 0
    # failures no known defect explains (see README.md); any makes a run
    # incorrect
    unexplained: int = 0


def check(pipe: Pipeline, plane, L: Layers, tree, lines: list[str], position: int,
          whole_answer: bool, stale: bool, rewriters: bool) -> CheckResult:
    """Check each line's answer on one published tree.

    The atom must be the linear-scan oracle's atom on that tree's
    partition.  With whole_answer, the report must also agree with the
    raw-header reference simulator, and the decoded label-plane report
    must equal the header-plane report.  An exception is a failure.

    Two known defects explain whole-answer failures: a behaviour map and
    label plane that are stale because updates changed the tree, and,
    with rewriters, a loop both simulators report after a different
    number of hops.  Every other failure is unexplained.
    """
    res = CheckResult(position, whole_answer)
    for line in lines:
        res.attempted += 1
        try:
            h, ingress, atom, report, _ = identify(L, tree, pipe, line)
            ok = atom == atom_of_header(tree.atom_set, h)
        except Exception:  # noqa: BLE001 - any error is a failed answer
            ok = False
        if not ok:
            res.failed += 1
            res.unexplained += 1
            continue
        if not whole_answer:
            continue
        try:
            ref = reference_trace(pipe.snapshot, h, ingress)
            cloud_ok = cloud(L, plane, pipe, atom, ingress) == report
            ok = cloud_ok and reports_agree(tree.atom_set, report, ref)
            loop_hops = (rewriters and cloud_ok and isinstance(report.disposition, Loop)
                         and isinstance(ref.disposition, Loop))
        except Exception:  # noqa: BLE001 - any error is a failed answer
            ok = loop_hops = False
        if not ok:
            res.failed += 1
            if not (stale or loop_hops):
                res.unexplained += 1
    return res


# ---------------------------------------------------------------------------
# Timed phases
# ---------------------------------------------------------------------------


@dataclass
class QueryStats:
    identify_s: list[float] = field(default_factory=list)
    cloud_s: list[float] = field(default_factory=list)
    untraced_identify_s: list[float] = field(default_factory=list)
    traced_identify_s: list[float] = field(default_factory=list)
    hops: int = 0
    rewrite_hops: int = 0
    dispositions: dict = field(default_factory=lambda: {"delivered": 0, "dropped": 0, "loop": 0})


def rewrite_hops(pipe: Pipeline, report) -> int:
    """Hops at which the packet's atom was rewritten before leaving the box."""
    hops = report.hops if isinstance(report.disposition, Delivered) else report.hops[:-1]
    return sum(1 for hop in hops if hop.atom in pipe.bmap.atom_rewrite.get(hop.box, ()))


DISPOSITION = {Delivered: "delivered", Dropped: "dropped", Loop: "loop"}


def query_phase(stats: QueryStats, pipe: Pipeline, plane, lines: list[str],
                duration: float, tracer: Optional[Tracer]) -> None:
    """One closed-loop client on the main thread for duration seconds.

    Requests continue the numbering of the ones already in stats.  A
    traced run traces every other request, so the means of the traced and
    the untraced ones give the tracing overhead.
    """
    plain = plain_layers(pipe, plane)
    traced = plain.traced(tracer) if tracer is not None else None
    tree = pipe.tree
    n = len(lines)
    k = len(stats.identify_s)
    clock = time.perf_counter
    deadline = clock() + duration
    while True:
        use_trace = traced is not None and k % 2 == 1
        L = traced if use_trace else plain
        t0 = clock()
        if use_trace:
            tracer.current_request = k
            root = tracer.begin("query.identify")
        _, ingress, atom, report, _ = identify(L, tree, pipe, lines[k % n])
        if use_trace:
            tracer.finish(root)
        t1 = clock()
        if use_trace:
            root = tracer.begin("query.cloud")
        cloud(L, plane, pipe, atom, ingress)
        if use_trace:
            tracer.finish(root)
        t2 = clock()
        stats.identify_s.append(t1 - t0)
        stats.cloud_s.append(t2 - t1)
        if tracer is not None:
            (stats.traced_identify_s if use_trace else stats.untraced_identify_s).append(t1 - t0)
        stats.hops += len(report.hops)
        stats.rewrite_hops += rewrite_hops(pipe, report)
        stats.dispositions[DISPOSITION[type(report.disposition)]] += 1
        k += 1
        if t2 >= deadline:
            return


@dataclass
class UpdateStats:
    latency_s: list[float] = field(default_factory=list)  # from the due time
    service_s: list[float] = field(default_factory=list)  # from the actual start
    late_s: list[float] = field(default_factory=list)  # actual start - due time
    rebuilt: list[bool] = field(default_factory=list)  # the update triggered a rebuild
    rebuilds: list[dict] = field(default_factory=list)
    reader_identify_s: list[float] = field(default_factory=list)
    reader_traced_requests: int = 0
    reader_error: Optional[BaseException] = None
    trees: dict = field(default_factory=dict)  # position -> tree, of the last phase


def update_ops(pipe: Pipeline, updates: list[dict]) -> list:
    """The update stream as (op, predicate) on pipe's engine."""
    layout = pipe.snapshot.layout
    return [(u["op"], pipe.engine.match_all(_parse_match(u["pred"], layout, "update")))
            for u in updates]


def update_phase(stats: UpdateStats, w: Workload, pipe: Pipeline, plane, lines: list[str],
                 ops: list, positions: list[int], tracer: Optional[Tracer],
                 reader_tracer: Optional[Tracer]) -> PublishedClassifier:
    """Open-loop writer: update i is due at start + i / rate.

    Latency counts from the due time, so a stall also delays the updates
    queued behind it; late_s records how far behind schedule the writer ran.
    """
    if tracer is not None:
        tracer.current_request = NO_REQUEST
    classifier = PublishedClassifier(pipe.tree, rebuild_after=REBUILD_AFTER)
    stats.trees[0] = classifier.tree
    stop = threading.Event()
    clock = time.perf_counter

    def read() -> None:
        L = plain_layers(pipe, plane)
        if reader_tracer is not None:
            L = L.traced(reader_tracer)
        n = len(lines)
        k = 0
        try:
            while not stop.is_set():
                t0 = clock()
                if reader_tracer is not None:
                    reader_tracer.current_request = k
                    root = reader_tracer.begin("query.identify")
                identify(L, classifier.tree, pipe, lines[k % n])
                if reader_tracer is not None:
                    reader_tracer.finish(root)
                stats.reader_identify_s.append(clock() - t0)
                k += 1
        except BaseException as e:  # re-raised by the writer after join
            stats.reader_error = e
        stats.reader_traced_requests = k if reader_tracer is not None else 0

    reader = threading.Thread(target=read, name="reader") if w.reader else None
    if reader is not None:
        reader.start()
    try:
        start = clock()
        for i, (op, pred) in enumerate(ops):
            due = start + i / w.update_rate
            if reader is not None:
                delay = due - clock()
                if delay > 0:
                    time.sleep(delay)
            else:
                # Alone, the writer spins until the update is due.  A sleeping
                # writer leaves the CPU idle between updates, and then the
                # host's wake-up sets the tail: on a 2-CPU shared host, over
                # five alternating phases of the same 100 updates, p90 was
                # 6-15 ms sleeping and 5.2-5.8 ms spinning.  Beside a reader,
                # spinning would hold the GIL the reader needs.
                while clock() < due:
                    pass
            structural = classifier.tree.structural_updates
            rebuilds = classifier.rebuild_count
            s = clock()
            if tracer is not None:
                span = tracer.begin("aptree.update")
            (classifier.add if op == "add" else classifier.remove)(pred)
            if tracer is not None:
                tracer.finish(span)
            e = clock()
            stats.latency_s.append(e - due)
            stats.service_s.append(e - s)
            stats.late_s.append(s - due)
            stats.rebuilt.append(classifier.rebuild_count != rebuilds)
            if stats.rebuilt[-1]:
                trigger = "count" if structural + 1 >= REBUILD_AFTER else "depth"
                stats.rebuilds.append({"update": i, "trigger": trigger,
                                       "service_ms": (e - s) * 1e3})
            if i + 1 in positions:
                stats.trees[i + 1] = classifier.tree
    finally:
        stop.set()
        if reader is not None:
            reader.join()
    if stats.reader_error is not None:
        raise RuntimeError("reader thread failed") from stats.reader_error
    return classifier


# ---------------------------------------------------------------------------
# A whole run
# ---------------------------------------------------------------------------


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def block_rate(durations: list[float]) -> float:
    """Median over consecutive blocks of RATE_BLOCK requests of requests per second.

    A block the host or the collector stalled is one slow block among
    dozens, where it would move a rate over the whole run.
    """
    blocks = [durations[i:i + RATE_BLOCK]
              for i in range(0, max(1, len(durations) - RATE_BLOCK + 1), RATE_BLOCK)]
    return statistics.median(len(b) / sum(b) for b in blocks)


def pipeline_sizes(pipe: Pipeline) -> dict:
    engine = pipe.engine
    return {
        "predicates": len(pipe.compiled.all_preds),
        "sources": len(pipe.sources),
        "atoms": len(pipe.atom_set),
        "rewriter_entries": sum(len(m) for m in pipe.bmap.atom_rewrite.values()),
        "bdd_nodes": len(engine._var),
        "op_cache_entries": len(engine._cache),
        "avg_depth": float(aptree.avg_leaf_depth(pipe.tree)),
        "max_depth": aptree.max_depth(pipe.tree),
    }


def run(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    inputs = make_inputs(w, seed, seconds)
    tracer = Tracer() if traced else None
    reader_tracer = Tracer() if traced and w.reader else None
    positions = w.check_positions(len(inputs.updates))

    # Set-ups, query phases and (without a reader) update phases alternate,
    # so each metric samples the whole run rather than one stretch of it:
    # the host's speed drifts over seconds.  Each update phase applies the
    # same stream to its own set-up's engine, so all do the same work.
    # Each timed section starts from an empty young generation, so where
    # the collector runs inside it depends on that section's work.
    setup_s = []
    q = QueryStats()
    u = UpdateStats()
    for _ in range(w.setup_repeats):
        pipe = plane = classifier = None  # let the previous build go before the next
        gc.collect()
        t0 = time.perf_counter()
        pipe, plane = setup(inputs.snapshot_bytes, tracer)
        setup_s.append(time.perf_counter() - t0)
        sizes = pipeline_sizes(pipe)
        gc.collect()
        query_phase(q, pipe, plane, inputs.lines,
                    seconds * w.query_share / w.setup_repeats, tracer)
        if not w.reader:
            ops = update_ops(pipe, inputs.updates)
            gc.collect()
            classifier = update_phase(u, w, pipe, plane, inputs.lines, ops, positions,
                                      tracer, None)
    plain = plain_layers(pipe, plane)
    sample = inputs.lines[: w.check_sample]
    rewriters = bool(pipe.bmap.atom_rewrite)
    checks = [check(pipe, plane, plain, pipe.tree, sample, 0, whole_answer=True,
                    stale=False, rewriters=rewriters)]

    gc.collect()
    # peak RSS before the reader phase: how the reader and writer threads
    # interleave moves the allocator's high-water mark there by ~20 MB
    rss_mb = peak_rss_mb()
    if w.reader:
        # One continuous stream beside the reader: it crosses the rebuild
        # threshold, and its checks see positions of that one stream.
        ops = update_ops(pipe, inputs.updates)
        gc.collect()
        classifier = update_phase(u, w, pipe, plane, inputs.lines, ops, positions,
                                  tracer, reader_tracer)

    # Whole answers after updates are what live-update measures; the other
    # workloads' update phases only time the writer, so there the atom is
    # checked.
    for pos in positions[1:]:
        checks.append(check(pipe, plane, plain, u.trees[pos], sample, pos,
                            whole_answer=w.reader, stale=True, rewriters=rewriters))
    if tracer is not None:
        tracer.current_request = NO_REQUEST
        span = tracer.begin("aptree.rebuild")
        t0 = time.perf_counter()
        classifier.rebuild()
        rebuild_s = time.perf_counter() - t0
        tracer.finish(span)
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)
    # Failures of known defects are counted in failed, never hidden; any
    # other failure makes the run incorrect.
    correct = all(c.unexplained == 0 for c in checks)

    served = len(q.identify_s)
    properties = dict(sizes)
    properties.update({
        "requests": served,
        "reader_requests": len(u.reader_identify_s),
        "cloud_packets": len(q.cloud_s),
        "hops_per_query": q.hops / served,
        "rewrite_hops_per_query": q.rewrite_hops / served,
        "share_delivered": q.dispositions["delivered"] / served,
        "share_dropped": q.dispositions["dropped"] / served,
        "share_loop": q.dispositions["loop"] / served,
        "updates_applied": len(u.latency_s),
        "update_p50_ms": percentile(sorted(u.latency_s), 0.50) * 1e3,
        "update_rate_per_s": w.update_rate,
        "rebuilds": u.rebuilds,
        "late_max_ms": max(u.late_s) * 1e3,
        "peak_rss_after_updates_mb": peak_rss_mb(),
        "checks": [vars(c) for c in checks],
    })
    if u.reader_identify_s:
        properties["reader_identify_max_ms"] = max(u.reader_identify_s) * 1e3

    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "properties": properties}
    if not traced:
        identify_s = q.identify_s + u.reader_identify_s  # in the order served
        ranked = sorted(identify_s)
        result["metrics"] = {
            "setup_s": (statistics.median(setup_s), "s"),
            "identify_qps": (block_rate(identify_s), "1/s"),
            "identify_p50_us": (percentile(ranked, 0.50) * 1e6, "us"),
            "identify_p99_us": (percentile(ranked, 0.99) * 1e6, "us"),
            "cloud_pps": (block_rate(q.cloud_s), "1/s"),
            "update_p90_ms": (percentile(sorted(u.latency_s), 0.90) * 1e3, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
        }
        result["samples"] = {"identify": len(identify_s), "cloud": len(q.cloud_s),
                             "update": len(u.latency_s), "setup": len(setup_s)}
        return result

    tracers = [t for t in (tracer, reader_tracer) if t is not None]
    selfs = self_times(tracers)
    traced_requests = len(q.traced_identify_s) + u.reader_traced_requests
    cloud_requests = len(q.traced_identify_s)
    plain_updates = [s for s, rebuilt in zip(u.service_s, u.rebuilt) if not rebuilt]
    result["metrics"] = {
        "cli.json_decode_us": (per_request(selfs, "cli.json_decode", traced_requests), "us"),
        "bdd.header_us": (per_request(selfs, "bdd.header", traced_requests), "us"),
        "aptree.classify_us": (per_request(selfs, "aptree.classify", traced_requests), "us"),
        "behavior.trace_us": (per_request(selfs, "behavior.trace", traced_requests), "us"),
        "cli.json_encode_us": (per_request(selfs, "cli.json_encode", traced_requests), "us"),
        "label_plane.simulate_us": (
            per_request(selfs, "label_plane.simulate_cloud", cloud_requests), "us"),
        "label_plane.decode_us": (
            per_request(selfs, "label_plane.decode_report", cloud_requests), "us"),
        "trace.overhead_us": ((statistics.fmean(q.traced_identify_s)
                               - statistics.fmean(q.untraced_identify_s)) * 1e6, "us"),
        "aptree.avg_depth": (sizes["avg_depth"], "levels"),
        "aptree.max_depth": (sizes["max_depth"], "levels"),
        "behavior.hops_per_query": (properties["hops_per_query"], "hops"),
        "behavior.share_delivered": (properties["share_delivered"], "ratio"),
        "behavior.share_dropped": (properties["share_dropped"], "ratio"),
        "behavior.share_loop": (properties["share_loop"], "ratio"),
        "label_plane.rewrite_hops_per_query": (properties["rewrite_hops_per_query"], "hops"),
        "model.parse_snapshot_s": (median_s(selfs, "model.parse_snapshot"), "s"),
        "model.compile_network_s": (median_s(selfs, "model.compile_network"), "s"),
        "pipeline.close_over_rewrites_s": (
            median_s(selfs, "pipeline.close_over_rewrites"), "s"),
        "aptree.build_s": (median_s(selfs, "aptree.build"), "s"),
        "behavior.compile_behavior_map_s": (
            median_s(selfs, "behavior.compile_behavior_map"), "s"),
        "label_plane.build_s": (median_s(selfs, "label_plane.build"), "s"),
        "atoms.count": (sizes["atoms"], "count"),
        "atoms.sources": (sizes["sources"], "count"),
        "bdd.nodes": (sizes["bdd_nodes"], "count"),
        "bdd.op_cache_entries": (sizes["op_cache_entries"], "count"),
        "aptree.update_ms": (statistics.median(plain_updates) * 1e3, "ms"),
        "aptree.rebuild_ms": (rebuild_s * 1e3, "ms"),
        "aptree.rebuilds": (len(u.rebuilds), "count"),
        "live.late_max_ms": (properties["late_max_ms"], "ms"),
    }
    result["spans"] = dump(tracers, SPAN_SAMPLE_REQUESTS)
    return result
