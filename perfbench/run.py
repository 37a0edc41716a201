#!/usr/bin/env python3
"""End-to-end benchmark of the BIST reproduction.

Usage, from the repository root::

    python3 perfbench/run.py --workload fault_lot --seed 1 --seconds 36 --trace 0

Runs timed passes of one workload for about ``--seconds`` seconds, each
from cold program caches, checks the outputs outside the timed region
and prints, as the last line, ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` reports the end-to-end metrics; ``--trace
1`` alternates untraced and traced passes and reports the per-layer
metrics (from the traced passes) plus the tracing overhead.  See
``perfbench/README.md`` for the workloads and metric definitions.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOAD_NAMES = ("fault_lot", "population_cdr180", "service_retest")
SETUP_PROBES = 3
#: No new pass starts after this many seconds, whatever --seconds says,
#: so a run ends well inside the three-minute limit.
HARD_STOP_S = 120.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        raise SystemExit(f"perfbench: no program sources under {src}")
    sys.path.insert(0, src)
    import repro

    if not os.path.abspath(repro.__file__).startswith(src + os.sep):
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, "
                         f"not from {src}")


def host_reference_s() -> float:
    """A fixed pure-Python loop: tells a slow host from a slow program."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc = (acc + i * i) % 1_000_003
    return time.perf_counter() - t0


def setup_seconds(args) -> list:
    """Fresh-interpreter set-up times: spawn until the inputs are ready."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--workload",
             args.workload, "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, stdout=subprocess.PIPE,
        )
        try:
            line = proc.stdout.readline()
            samples.append(time.perf_counter() - t0)
            proc.wait(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe failed")
    return samples


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workload, passes, setup_s, rss_mb) -> dict:
    walls = [p["wall"] for p in passes]
    med = statistics.median(walls)
    dies = workload.dies_per_pass
    if workload.name == "service_retest":
        records = [r for p in passes for r in p["records"]
                   if "terminal" in r]
        latency = [r["terminal"] - r["t0"] for r in records]
        rate = statistics.median(p["ops"] / p["wall"] for p in passes)
        values = {
            "dies_per_s": rate,
            "sweep_s": statistics.median(
                r["terminal"] - r.get("started", r["submitted"])
                for r in records),
            "jobs_per_s": rate,
            "job_latency_p50_s": statistics.median(latency),
            "job_latency_p80_s": percentile(latency, 0.8),
        }
    else:
        values = {
            "dies_per_s": dies / med,
            "sweep_s": med / dies,
            "jobs_per_s": 1.0 / med,
            "job_latency_p50_s": med,
            "job_latency_p80_s": percentile(walls, 0.8),
        }
    values["setup_s"] = setup_s
    values["peak_rss_mb"] = rss_mb
    units = {"dies_per_s": "1/s", "sweep_s": "s", "jobs_per_s": "1/s",
             "job_latency_p50_s": "s", "job_latency_p80_s": "s",
             "setup_s": "s", "peak_rss_mb": "MB"}
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


TIME_SPANS = {
    "lot.premeasure_s": "lot.premeasure",
    "simulator.fallback_s": "simulator.fallback",
    "sequencer.run_s": "sequencer.run",
    "monitor.evaluate_s": "monitor.evaluate",
    "reporting.render_s": "reporting.render",
    "population.sample_s": "population.sample",
    "population.aggregate_s": "population.aggregate",
}
LOT_COUNTERS = {
    "lot.settle_s": "s", "lot.monitor_s": "s", "lot.measure_s": "s",
    "lot.unique_lanes": "count", "lot.fast_lanes": "count",
    "lot.scalar_lanes": "count", "lot.measured_lanes": "count",
    "lot.measure_handbacks": "count",
}
SERVICE_UNITS = {
    "service.submit_s": "s", "service.queue_wait_s": "s",
    "service.first_tone_s": "s", "service.run_s": "s",
    "service.report_s": "s", "service.warm_hit_ratio": "ratio",
    "service.server_cpu_s_per_job": "s",
}


def _service_layers(p) -> dict:
    recs = [r for r in p["records"] if "terminal" in r]

    def med(fn):
        return statistics.median(fn(r) for r in recs) if recs else 0.0

    return {
        "service.submit_s": med(lambda r: r["submitted"] - r["t0"]),
        "service.queue_wait_s": med(
            lambda r: r.get("started", r["submitted"])
            - r.get("accepted", r["submitted"])),
        "service.first_tone_s": med(
            lambda r: r.get("first_tone", r["terminal"])
            - r.get("started", r["submitted"])),
        "service.run_s": med(
            lambda r: r["terminal"] - r.get("started", r["submitted"])),
        "service.report_s": med(lambda r: r["report_s"]),
        "service.warm_hit_ratio": p["hit_ratio"],
        "service.server_cpu_s_per_job": p["cpu_per_job"],
    }


def per_layer(workload, tracer, passes) -> dict:
    passes = [(i, p) for i, p in enumerate(passes) if not p.get("raised")]
    traced = [(i, p) for i, p in passes if p["traced"]]
    rows = []
    for pid, p in traced:
        times = tracer.self_times(pid)
        counters = tracer.counters[pid]
        row = {k: times.get(span, (0.0, 0))[0]
               for k, span in TIME_SPANS.items()}
        row["sequencer.tones"] = times.get("sequencer.run", (0.0, 0))[1]
        row.update({k: counters.get(k, 0.0) for k in LOT_COUNTERS})
        if workload.name == "service_retest":
            row.update(_service_layers(p))
        else:
            row.update({k: 0.0 for k in SERVICE_UNITS})
        rows.append(row)
    plain = [p["wall"] for __, p in passes if not p["traced"]]
    with_trace = [p["wall"] for __, p in traced]
    overhead = 100.0 * (statistics.median(with_trace)
                        / statistics.median(plain) - 1.0)
    units = {k: "s" for k in TIME_SPANS}
    units.update(LOT_COUNTERS)
    units.update(SERVICE_UNITS)
    units["sequencer.tones"] = "count"
    metrics = {k: {"value": statistics.median(r[k] for r in rows),
                   "unit": u} for k, u in units.items()}
    metrics["trace.overhead_pct"] = {"value": overhead, "unit": "%"}
    return metrics


def run_passes(workload, args, tracer) -> list:
    """Whole passes until about ``--seconds`` of them have run."""
    min_passes = max(workload.min_passes,
                     2 if args.trace else 1)
    passes = []
    t0 = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        try:
            if traced:
                tracer.pass_id = len(passes)
                with tracer.patched(workload.hooks()), tracer.span("pass"):
                    p = workload.run_pass(tracer)
            else:
                p = workload.run_pass(None)
        except Exception:  # noqa: BLE001 - counted as failed operations
            traceback.print_exc()
            ops = workload.dies_per_pass
            p = {"wall": math.nan, "ops": ops, "failed": set(range(ops)),
                 "raised": True}
        p["traced"] = traced
        passes.append(p)
        elapsed = time.perf_counter() - t0
        done = [q["wall"] for q in passes if not q.get("raised")]
        typical = statistics.median(done) if done else 0.0
        if p.get("raised") or elapsed > HARD_STOP_S or (
                len(passes) >= min_passes
                and elapsed + 0.5 * typical >= args.seconds):
            return passes


def main(argv=None) -> int:
    args = parse_args(argv)
    os.chdir(ROOT)  # the service's socket path is relative to the root
    import_program()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    os.makedirs(OUT_DIR, exist_ok=True)
    from spans import Tracer
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, OUT_DIR, ROOT)
    if args.setup_probe:
        started = workload.probe()
        print("ready", flush=True)
        if started is not None:
            started.close()
        return 0
    setup = setup_seconds(args)
    import numpy

    print(f"perfbench {args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"host: cores={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} numpy={numpy.__version__} "
          f"machine={platform.machine()}")
    ref_before = host_reference_s()
    tracer = Tracer() if args.trace else None
    passes = run_passes(workload, args, tracer)
    ref_after = host_reference_s()
    rss_mb = workload.peak_rss_mb()
    print(f"host_ref_s: before={ref_before:.4f} after={ref_after:.4f}")
    walls = [p["wall"] for p in passes]
    print(f"passes: {len(passes)}, wall s: "
          + " ".join(f"{w:.3f}" for w in walls))
    print("setup probes s: " + " ".join(f"{s:.3f}" for s in setup))
    notes = [p["note"] for p in passes if "note" in p]
    if notes:
        print("; ".join(notes))

    good = [p for p in passes if not p.get("raised")]
    correct = True
    try:
        workload.check(good, lambda line: print(line, file=sys.stderr))
    except Exception:  # noqa: BLE001 - the checks could not finish
        traceback.print_exc()
        correct = False
    attempted = sum(p["ops"] for p in passes)
    failed = sum(len(p["failed"]) for p in passes)
    if args.trace and any(p["traced"] for p in good) and any(
            not p["traced"] for p in good):
        metrics = per_layer(workload, tracer, passes)
        path = os.path.join(OUT_DIR,
                            f"trace-{args.workload}-{args.seed}.json")
        tracer.write(path)
        print(f"trace written to {os.path.relpath(path, ROOT)}")
    elif good and not args.trace:
        metrics = end_to_end(workload, good, statistics.median(setup),
                             rss_mb)
    else:
        print("perfbench: no pass finished, nothing to report",
              file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
