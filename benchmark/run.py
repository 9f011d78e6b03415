#!/usr/bin/env python3
"""Build and run the dbgc repository benchmark (see benchmark/README.md).

One run of one workload; the last line of stdout is the run's JSON result:

    python3 benchmark/run.py --workload urban-full --seed 7 --seconds 15 \\
        --trace 0

Every workload, untraced (--repeat times) and then traced (a quarter of
the length, still whole cycles through each input), with a table of every
metric (the median of the repeats) and the tracing overhead; exits non-zero
if any correctness check fails. benchmark/agree.py compares two such result
directories:

    python3 benchmark/run.py [--seed N] [--seconds S] [--repeat R] \\
        [--out DIR]

Smoke check, about a second per workload in both modes; checks the emitted
metrics against BENCHMARK.json and the trace files:

    python3 benchmark/run.py --smoke [--binary PATH]

The benchmark builds itself (CMake, Release) into $CARGO_TARGET_DIR, by
default .bench_build/ under the repository root. Span traces are written
beside the binary, as trace-<workload>.json. Only the Python standard
library is used.
"""

import argparse
import json
import math
import os
import pathlib
import statistics
import subprocess
import sys

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def build_dir():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def trace_path(binary, workload):
    return pathlib.Path(binary).resolve().parent / f"trace-{workload}.json"


def build():
    """Configures and builds dbgc_bench; exits 1 (printing no result) if
    either step fails, e.g. when the library sources are missing."""
    out = build_dir()
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(out), "--target", "dbgc_bench", "-j", "4"],
    ]
    for step in steps:
        # Build chatter goes to stderr: stdout's last line is the result.
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            print("run.py: build failed: " + " ".join(step), file=sys.stderr)
            sys.exit(1)
    return out / "dbgc_bench"


def bench_argv(binary, workload, seed, seconds, trace, out=None):
    argv = [str(binary), "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace),
            "--trace-out", str(trace_path(binary, workload))]
    if out is not None:
        argv += ["--out", str(out)]
    return argv


def run_one(binary, workload, seed, seconds, trace, out=None):
    """Runs one workload; returns (exit code, parsed result or None)."""
    proc = subprocess.run(
        bench_argv(binary, workload, seed, seconds, trace, out),
        stdout=subprocess.PIPE, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return proc.returncode, None


def full_set(binary, bench, seed, seconds, repeat, out_dir):
    out_dir.mkdir(parents=True, exist_ok=True)
    names = [w["name"] for w in bench["workloads"]]
    traced_seconds = max(1.0, seconds / 4)
    ok = True
    runs = {}  # (workload, trace) -> metrics of each run
    for w in names:
        plan = [(0, seconds, f"{w}.{k}.json") for k in range(repeat)]
        plan.append((1, traced_seconds, f"{w}.traced.json"))
        for trace, secs, name in plan:
            path = out_dir / name
            path.unlink(missing_ok=True)
            code, result = run_one(binary, w, seed, secs, trace, path)
            good = code == 0 and bool(result and result["correct"])
            ok = ok and good
            print(f"{w:16s} trace={trace} {secs:g}s: "
                  f"{'ok' if good else f'FAILED (exit {code})'}", flush=True)
            if path.exists():
                metrics = json.loads(path.read_text())["metrics"]
                runs.setdefault((w, trace), []).append(metrics)
    results = {key: {name: statistics.median(m[name]["value"] for m in ms)
                     for name in ms[0]}
               for key, ms in runs.items()}

    for title, metrics, trace in (("end-to-end", bench["end_to_end"], 0),
                                  ("per-layer", bench["per_layer"], 1)):
        print(f"\n{title}\n{'metric':28s} {'unit':10s}" +
              "".join(f"{n:>16s}" for n in names))
        for m in metrics:
            row = f"{m['name']:28s} {m['unit']:10s}"
            for n in names:
                v = results.get((n, trace), {}).get(m["name"])
                row += f"{v:16.6g}" if v is not None else f"{'-':>16s}"
            print(row)
    print("\ntracing overhead (traced frame_ms_p50 / untraced - 1):")
    for n in names:
        e2e = results.get((n, 0), {}).get("frame_ms_p50")
        traced = results.get((n, 1), {}).get("frame_ms_p50")
        if e2e and traced:
            print(f"  {n:16s} {traced / e2e - 1:+.4f}")
    print(f"\nresults in {out_dir}")
    return 0 if ok else 1


def check_result(result, declared, where):
    """Problems with one run's result line against the declared metrics."""
    if set(result) != RESULT_KEYS:
        return [f"{where}: result keys {sorted(result)}"]
    problems = []
    if result["correct"] is not True:
        problems.append(f"{where}: not correct")
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append(f"{where}: attempted {result['attempted']}")
    if result["failed"] != 0:
        problems.append(f"{where}: failed {result['failed']}")
    metrics = result["metrics"]
    for name in sorted(set(declared) - set(metrics)):
        problems.append(f"{where}: missing metric {name}")
    for name in sorted(set(metrics) - set(declared)):
        problems.append(f"{where}: undeclared metric {name}")
    for name, m in metrics.items():
        value = m.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append(f"{where}: {name} is not a finite number")
        if name in declared and m.get("unit") != declared[name]:
            problems.append(f"{where}: {name} has unit {m.get('unit')}")
    return problems


def check_trace(path, where):
    """Problems with a span file: it must parse, and every parent exist."""
    try:
        spans = json.loads(path.read_text())["spans"]
    except (OSError, KeyError, json.JSONDecodeError) as e:
        return [f"{where}: trace file {path}: {e!r}"]
    ids = {s["id"] for s in spans}
    problems = [] if spans else [f"{where}: trace has no spans"]
    for s in spans:
        if s["parent"] != -1 and s["parent"] not in ids:
            problems.append(f"{where}: span {s['id']} has no parent")
        if s["end_ns"] < s["start_ns"] or s["self_ns"] < 0:
            problems.append(f"{where}: span {s['id']} has negative time")
    return problems


def smoke(binary, bench):
    declared = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
                1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for w in [w["name"] for w in bench["workloads"]]:
        for trace in (0, 1):
            where = f"{w} trace={trace}"
            trace_path(binary, w).unlink(missing_ok=True)
            code, result = run_one(binary, w, 1, 1, trace)
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, no result")
                continue
            problems += check_result(result, declared[trace], where)
            if trace == 1:
                problems += check_trace(trace_path(binary, w), where)
        print(f"smoke {w}: done", flush=True)
    for p in problems:
        print("smoke: " + p)
    print("smoke: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=20230316)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="full set: untraced runs per workload")
    parser.add_argument("--out", type=pathlib.Path,
                        help="full set: directory for the per-run results")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--binary", type=pathlib.Path,
                        help="use this dbgc_bench instead of building one")
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    binary = args.binary if args.binary else build()

    if args.workload:
        # One run: become the benchmark process, so nothing outlives it.
        sys.stdout.flush()
        sys.stderr.flush()
        argv = bench_argv(binary, args.workload, args.seed, seconds,
                          args.trace)
        os.execv(argv[0], argv)
    if args.smoke:
        return smoke(binary, bench)
    return full_set(binary, bench, args.seed, seconds, max(1, args.repeat),
                    args.out or build_dir() / "results")


if __name__ == "__main__":
    sys.exit(main())
