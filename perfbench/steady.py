#!/usr/bin/env python3
"""Steadiness check for the planner benchmark.

    python3 perfbench/steady.py [--workload W ...] [--seeds 1-10] [--sets 2]
                                [--overhead]

Runs run.py once per seed on each workload (--trace 0, BENCHMARK.json's
run_seconds) and prints every run's end-to-end metrics and, per metric,
the median, the quartiles and the spread: (Q3 - Q1) / median, from
statistics.quantiles(n=4).  A spread below a third of the metric's bound
is "steady"; one above the bound fails.  With --sets 2 the seeds run
twice and the second median is checked against the first, to within the
bound.  --overhead adds one --trace 1 run per workload at the first seed
and prints traced wall time minus untraced wall time.

Exit status: 0 when every check passes, 1 otherwise.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result")
    return {k: v["value"] for k, v in result["metrics"].items()}


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def worse_by(first, second, better):
    if first == 0:
        return 0.0
    delta = (second - first) / abs(first)
    return delta if better == "lower" else -delta


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()
    seeds = parse_seeds(args.seeds)
    seconds = bench["run_seconds"]
    ok = True
    for workload in args.workload or [w["name"] for w in bench["workloads"]]:
        medians = []
        for s in range(args.sets):
            runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
            print(f"\n{workload} set {s + 1}, seeds {args.seeds}:")
            for seed, r in zip(seeds, runs):
                print(f"  seed {seed:3}: " + "  ".join(
                    f"{name} {r[name]:.6g}" for name in metrics))
            print(f"  {'metric':18} {'median':>14} {'q1':>14} {'q3':>14}"
                  f" {'spread':>8} {'bound':>6}")
            med = {}
            for name, m in metrics.items():
                vals = [r[name] for r in runs]
                q1, q2, q3 = statistics.quantiles(vals, n=4)
                spread = (q3 - q1) / q2 if q2 else 0.0
                med[name] = q2
                verdict = ("steady" if spread < m["bound"] / 3 else
                           "within bound" if spread <= m["bound"] else
                           "UNSTEADY")
                if spread > m["bound"]:
                    ok = False
                print(f"  {name:18} {q2:14.6g} {q1:14.6g} {q3:14.6g}"
                      f" {spread:8.4f} {m['bound']:6.3f} {verdict}")
            medians.append(med)
        for s in range(1, len(medians)):
            print(f"{workload} set {s + 1} vs set 1 (share worse):")
            for name, m in metrics.items():
                w = worse_by(medians[0][name], medians[s][name], m["better"])
                bad = w > m["bound"]
                ok = ok and not bad
                print(f"  {name:18} {w:+8.4f} {'OVER BOUND' if bad else 'ok'}")
        if args.overhead:
            traced = run_once(workload, seeds[0], seconds, 1)
            untraced = run_once(workload, seeds[0], seconds, 0)
            print(f"{workload} tracing overhead at seed {seeds[0]}: traced"
                  f" wall {traced['trace.op_s']:.4f} s - untraced wall"
                  f" {untraced['wall_s']:.4f} s ="
                  f" {traced['trace.op_s'] - untraced['wall_s']:+.4f} s;"
                  f" layers cover {traced['trace.layers_s']:.4f} s,"
                  f" uncovered {traced['trace.uncovered_s']:+.4f} s")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
