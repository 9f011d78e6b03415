#!/usr/bin/env python3
"""Check that two result sets of the benchmark agree within its bounds.

    python3 benchmark/agree.py SET_A SET_B

A result set is a directory written by `python3 benchmark/run.py --out DIR`
(optionally with --repeat): one <workload>.<k>.json per untraced run; the
traced runs, <workload>.traced.json, are ignored. For every (end-to-end
metric, workload) pair in both sets, prints each set's median over its runs
and their difference as a share of SET_A's, next to the metric's bound in
BENCHMARK.json. Values a run marks "exact" (a pure function of the fixed
corpus: bpp, d1_psnr_db, max_err_over_q, points_kept) must be equal in
every run of both sets, whatever their seeds. Exits 1 if any pair
disagrees.
"""

import json
import math
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load_set(directory):
    """{workload: [run record, ...]} of the untraced runs in `directory`."""
    runs = {}
    for path in sorted(pathlib.Path(directory).glob("*.json")):
        if path.name.endswith(".traced.json"):
            continue
        run = json.loads(path.read_text())
        runs.setdefault(run["workload"], []).append(run)
    return runs


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    set_a, set_b = load_set(argv[1]), load_set(argv[2])
    workloads = [w["name"] for w in bench["workloads"]
                 if w["name"] in set_a and w["name"] in set_b]
    if not workloads:
        print("agree: the sets share no workload", file=sys.stderr)
        return 1

    disagreements = 0
    print(f"{'workload':16s} {'metric':20s} {'a':>14s} {'b':>14s} "
          f"{'diff':>9s} {'bound':>7s}  verdict")
    for w in workloads:
        runs = set_a[w] + set_b[w]
        for name, bound in bounds.items():
            if any(name not in run["metrics"] for run in runs):
                print(f"{w:16s} {name:20s} missing")
                disagreements += 1
                continue
            values = [run["metrics"][name]["value"] for run in runs]
            va = statistics.median(values[:len(set_a[w])])
            vb = statistics.median(values[len(set_a[w]):])
            if va == vb:
                diff = 0.0
            else:
                diff = (vb - va) / abs(va) if va else math.inf
            if set_a[w][0]["metrics"][name].get("exact"):
                ok = len(set(values)) == 1
                shown = "exact"
            else:
                ok = abs(diff) <= bound
                shown = f"{bound:7.4f}"
            disagreements += 0 if ok else 1
            print(f"{w:16s} {name:20s} {va:14.6g} {vb:14.6g} {diff:+9.4f} "
                  f"{shown:>7s}  {'agree' if ok else 'DISAGREE'}")
    print(f"\n{disagreements} disagreement(s)")
    return 1 if disagreements else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
