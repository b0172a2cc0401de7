#!/usr/bin/env python3
"""Steadiness report: run the benchmark on many seeds and show its spread.

    python3 perfbench/steady.py [--runs 10] [--sets 2]

Runs ``run.py`` one process at a time for BENCHMARK.json's run_seconds,
``--runs`` seeds per workload and set, on every workload BENCHMARK.json
lists; set k uses seeds k*runs+1 onwards.  For every end-to-end metric
and workload it prints the median, the quartiles and the spread
(q3 - q1) / median next to the metric's bound from BENCHMARK.json, together
with the spread of the raw reference-task time and of the raw op median:
when those two spread widely while the nominal numbers hold, the noise came
from the machine, not the program.  It also prints each run's op count and
tail percentile, the range over the runs.
With more than one set it also prints how far each set's median moved
from the first set's, as a share of the first.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    raw = next(json.loads(ln[len("raw-json "):]) for ln in lines if ln.startswith("raw-json "))
    return result, raw


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2


def table(workload, results, bounds):
    print(f"\n{workload}: {len(results)} runs, "
          f"{sum(r['failed'] for r, _ in results)} failed ops of {sum(r['attempted'] for r, _ in results)}")
    print(f"  {'metric':<14}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}{'/bound':>8}")
    medians = {}
    for name, bound in bounds.items():
        values = [r["metrics"][name]["value"] for r, _ in results]
        q1, q2, q3, s = spread(values)
        medians[name] = q2
        flag = "" if s < bound / 3 else "  <- above a third of the bound"
        print(f"  {name:<14}{q2:12.4f}{q1:12.4f}{q3:12.4f}{s:9.3f}{bound:7.2f}{s / bound:8.2f}{flag}")
    for key in ("ref_ms", "op_p50_ms"):
        q1, q2, q3, s = spread([raw[key] for _, raw in results])
        print(f"  raw {key:<10}{q2:12.4f}{q1:12.4f}{q3:12.4f}{s:9.3f}")
    ops = [raw["ops"] for _, raw in results]
    pct = [raw["tail_percentile"] for _, raw in results]
    print(f"  ops per run {min(ops)}-{max(ops)}; op_tail_ms is p{min(pct):.1f}-p{max(pct):.1f}")
    return medians


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--sets", type=int, default=1)
    args = p.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    higher = {m["name"] for m in bench["end_to_end"] if m["better"] == "higher"}

    set_medians = []
    for k in range(args.sets):
        print(f"\n=== set {k + 1} of {args.sets}")
        medians = {}
        for workload in (w["name"] for w in bench["workloads"]):
            first = 1 + k * args.runs
            results = [run_once(workload, seed, bench["run_seconds"])
                       for seed in range(first, first + args.runs)]
            medians[workload] = table(workload, results, bounds)
            sys.stdout.flush()
        set_medians.append(medians)
    for k in range(1, args.sets):
        print(f"\nset {k + 1} median worse than set 1's by, as a share of set 1 (bound in brackets)")
        for workload, medians in set_medians[k].items():
            worse = {name: (medians[name] / set_medians[0][workload][name] - 1)
                     * (-1 if name in higher else 1) for name in bounds}
            shifts = ", ".join(f"{name} {worse[name]:+.3f} [{bounds[name]}]" for name in bounds)
            print(f"  {workload}: {shifts}")


if __name__ == "__main__":
    main()
