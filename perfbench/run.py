#!/usr/bin/env python3
"""Build and run the end-to-end benchmark for one workload.

    python3 perfbench/run.py --workload a2a_send --seed 1 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
the `perfbench` binary (CMake) under $CARGO_TARGET_DIR, or
`.bench_build` when that is unset; later runs rebuild incrementally.
Each run first executes the binary's arithmetic self-test, then the
workload. Everything the binary prints is passed through; the last
line is one JSON object with `correct`, `attempted`, `failed` and
`metrics`: the `end_to_end` metrics of BENCHMARK.json with --trace 0,
its `per_layer` metrics with --trace 1. With --trace 1 the span file
is written to <build dir>/spans/<workload>-seed<seed>.json.

The exit status is 0 only when the build, the self-test and every
correctness gate pass, and when the metadata each metric was emitted
with (unit, direction) matches BENCHMARK.json.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = ROOT / "BENCHMARK.json"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure and build the binary (incrementally); return its
    path."""
    pkg = build_dir / "perfbench"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    cmd = ["cmake", "-S", str(HERE), "-B", str(pkg),
           "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("cmake configure failed")
    cmd = ["cmake", "--build", str(pkg), "--target", "perfbench",
           "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return pkg / "perfbench"


def declared_metrics(report, declared):
    """Pick the declared metrics out of the report, checking that each
    was emitted with the declared unit and direction. A per-layer
    metric the workload does not exercise is reported as 0."""
    emitted = dict(report["end_to_end"])
    emitted.update(report["per_layer"])
    out, problems, absent = {}, [], []
    for spec in declared:
        name = spec["name"]
        m = emitted.get(name)
        if m is None:
            absent.append(name)
            out[name] = {"value": 0, "unit": spec["unit"]}
            continue
        if m["unit"] != spec["unit"] or m["better"] != spec["better"]:
            problems.append(
                f"{name}: emitted {m['unit']}/{m['better']}, "
                f"BENCHMARK.json says {spec['unit']}/{spec['better']}")
        out[name] = {"value": m["value"], "unit": m["unit"]}
    return out, problems, absent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads(SPEC.read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload!r}")

    build_dir = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = build(build_dir)
    if subprocess.run([str(binary), "--self-test"]).returncode != 0:
        fail("self-test failed")

    cmd = [str(binary), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = build_dir / "spans"
        spans.mkdir(parents=True, exist_ok=True)
        span_file = spans / f"{args.workload}-seed{args.seed}.json"
        cmd += ["--span-file", str(span_file)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    report_line = lines.pop() if lines else ""
    for line in lines + [report_line]:
        print(line)
    try:
        report = json.loads(report_line)["report"]
    except (ValueError, KeyError):
        fail(f"no report from the benchmark (exit {proc.returncode})")

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics, problems, absent = declared_metrics(report, declared)
    for p in problems:
        print(f"METADATA MISMATCH: {p}")
    if absent:
        print("not exercised by this workload (reported as 0): " +
              ", ".join(absent))
    if args.trace:
        print(f"span file: {span_file}")
    correct = (proc.returncode == 0 and report["correct"] and
               not problems)
    print(json.dumps({"correct": correct,
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
