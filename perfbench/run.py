"""atomtrace benchmark: one workload per process, or every workload in turn.

    python3 perfbench/run.py --workload query --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 1

A run prints a readable report, then, as its last line, one JSON object
with the keys correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end metrics; with --trace 1 they are the per-layer
metrics taken from spans.  The full record (environment, workload
properties, checks, metrics, and with --trace 1 a sample of the spans) is
written to perfbench/out/.  See perfbench/README.md for every metric.

Exit codes: 0 success, 1 usage error, 2 the atomtrace sources are missing
or a workload process failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("query", "build-large", "live-update")
CHILD_TIMEOUT_S = 900


def git_commit(root: Path):
    """The checked-out commit, read from .git without running git; None if absent."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.exists():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "seed": seed,
        "commit": git_commit(ROOT),
    }


def import_workloads():
    """The workload module, importing atomtrace from this checkout's src/ only."""
    if not (SRC / "atomtrace" / "__init__.py").is_file():
        raise ImportError(f"atomtrace sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import atomtrace
    import workloads

    if Path(atomtrace.__file__).resolve().parent != SRC / "atomtrace":
        raise ImportError(f"atomtrace imported from {atomtrace.__file__}, not {SRC}")
    return workloads


def run_one(args) -> int:
    try:
        workloads = import_workloads()
    except ImportError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    w = workloads.WORKLOADS[args.workload]
    result = workloads.run(w, args.seed, args.seconds, traced=bool(args.trace))
    record = {"workload": w.name, "why": w.why, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(args.seed), **result}
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record) + "\n")

    ratio = result["failed"] / result["attempted"]
    print(f"workload {w.name}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"environment {json.dumps(record['environment'])}")
    props = {k: v for k, v in result["properties"].items() if k != "checks"}
    print(f"properties {json.dumps(props)}")
    for c in result["properties"]["checks"]:
        kind = "whole answer" if c["whole_answer"] else "classify"
        print(f"check after {c['position']} updates ({kind}): "
              f"{c['failed']}/{c['attempted']} failed, {c['unexplained']} unexplained")
    for name, (value, unit) in result["metrics"].items():
        print(f"{name:36s} {value:14.4f} {unit}")
    print(f"{'failed_ratio':36s} {ratio:14.4f} ratio "
          f"({result['failed']}/{result['attempted']} checks)")
    print(f"record {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in result["metrics"].items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in a fresh process, one after the other."""
    results = {}
    status = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:  # run() has killed and reaped it
            print(f"error: workload {name} ran over {CHILD_TIMEOUT_S} s", file=sys.stderr)
            status = 2
            continue
        sys.stdout.write(proc.stdout)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"error: workload {name} exited {proc.returncode}", file=sys.stderr)
            status = 2
            continue
        results[name] = json.loads(lines[-1])
    names = [n for n in WORKLOAD_NAMES if n in results]
    if names:
        metrics = list(results[names[0]]["metrics"])
        print(f"{'metric':36s}" + "".join(f"{n:>16s}" for n in names))
        for m in metrics:
            unit = results[names[0]]["metrics"][m]["unit"]
            print(f"{m + ' [' + unit + ']':36s}"
                  + "".join(f"{results[n]['metrics'][m]['value']:16.4f}" for n in names))
        print(f"{'failed_ratio':36s}"
              + "".join(f"{results[n]['failed'] / results[n]['attempted']:16.4f}"
                        for n in names))
    OUT.mkdir(exist_ok=True)
    (OUT / f"all-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(results, indent=1) + "\n")
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 1 if e.code else 0
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 1
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
