#!/usr/bin/env python3
"""Repeat the steadiness check behind the reference figures in README.md.

Runs ``--sets`` sets of ``--seeds`` runs of every workload (set ``s``
uses seeds ``s*n+1 .. s*n+n``), interleaving the workloads and rotating
their order per seed so host drift falls on all of them alike.  For
each set it prints every end-to-end metric's median, quartiles and
spread (``(Q3 - Q1) / median``, from ``statistics.quantiles(n=4)``)
against the bound in ``BENCHMARK.json``, then how much worse each
later set's median is than the first set's.  Run from the repository
root; it takes about ``sets * seeds * 125`` seconds::

    python3 perfbench/steadiness.py --seeds 10 --sets 2
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--out", default=os.path.join(
        ROOT, ".bench_build", "perfbench", "steadiness.jsonl"))
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    os.makedirs(os.path.dirname(args.out), exist_ok=True)
    results = {}
    with open(args.out, "w") as sink:
        for s in range(args.sets):
            for k in range(args.seeds):
                seed = s * args.seeds + k + 1
                rotation = k % len(workloads)
                for name in workloads[rotation:] + workloads[:rotation]:
                    t0 = time.perf_counter()
                    proc = subprocess.run(
                        bench["command"] + [
                            "--workload", name, "--seed", str(seed),
                            "--seconds", str(bench["run_seconds"]),
                            "--trace", "0"],
                        cwd=ROOT, capture_output=True, text=True,
                        timeout=300)
                    if proc.returncode != 0:
                        print(f"{name} seed {seed}: exit {proc.returncode}"
                              f"\n{proc.stderr[-2000:]}", file=sys.stderr)
                        return 1
                    result = json.loads(proc.stdout.strip().splitlines()[-1])
                    sink.write(json.dumps({
                        "set": s, "workload": name, "seed": seed,
                        "run_s": time.perf_counter() - t0, **result}) + "\n")
                    sink.flush()
                    results.setdefault((name, s), []).append(result)
    report(bench, workloads, results, args.sets)
    return 0


def report(bench, workloads, results, sets) -> None:
    medians = {}
    for name in workloads:
        for s in range(sets):
            runs = results[(name, s)]
            attempted = sum(r["attempted"] for r in runs)
            failed = sum(r["failed"] for r in runs)
            print(f"\n{name}, set {s}: {len(runs)} runs, "
                  f"{failed}/{attempted} operations failed")
            for metric in bench["end_to_end"]:
                key = metric["name"]
                values = [r["metrics"][key]["value"] for r in runs]
                q1, __, q3 = statistics.quantiles(values, n=4)
                med = statistics.median(values)
                medians[(name, s, key)] = med
                spread = (q3 - q1) / med
                print(f"  {key:20s} median {med:.4g} [{q1:.4g}, {q3:.4g}] "
                      f"spread {spread:.3f} (bound {metric['bound']})")
    for s in range(1, sets):
        print(f"\nset {s} median worse than set 0 by (share):")
        for name in workloads:
            for metric in bench["end_to_end"]:
                key = metric["name"]
                first, later = medians[(name, 0, key)], medians[(name, s, key)]
                worse = (later - first if metric["better"] == "lower"
                         else first - later) / first
                print(f"  {name:18s} {key:20s} {worse:+.3f} "
                      f"(bound {metric['bound']})")


if __name__ == "__main__":
    sys.exit(main())
