"""The three benchmark workloads: inputs, timed pass, output checks.

Each workload builds its inputs from the seed in ``__init__`` (set-up),
runs one timed pass per :meth:`run_pass` from cold program caches, and
checks outputs in :meth:`check` outside the timed region.  A pass
returns a dict with at least ``wall`` (timed seconds), ``ops``
(operations attempted) and ``failed`` (a set of operation keys that
failed in it).
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import subprocess
import sys
import threading
import time
from dataclasses import replace

from repro.analysis.second_order import SecondOrderParameters
from repro.core import LockStateCache, TestLimits, TransferFunctionMonitor
from repro.core.sequencer import ToneTestSequencer, reset_nominal_frequency_memo
from repro.pll.faults import FAULT_LIBRARY, apply_fault
from repro.pll.simulator import PLLTransientSimulator
from repro.presets import (
    PAPER_C,
    PAPER_N,
    PAPER_R1,
    PAPER_R2,
    PAPER_VCO_GAIN_HZ_PER_V,
    PAPER_VDD,
    paper_bist_config,
    paper_pll,
    paper_stimulus,
    paper_sweep,
)
from repro.reporting import DeviceReportRequest, batch_device_reports
from stratify import composition_ok

HERE = os.path.dirname(os.path.abspath(__file__))
TONES = 13
#: Healthy-die tolerance on the paper DUT against the eq. (4) model.
MODEL_TOL = 0.05
#: Healthy cdr180 die fn against sqrt(Ip*Kv/(N*C))/2pi of its own parts.
CDR_FN_TOL = 0.12


def eq4_model():
    """(fn Hz, zeta) of the passive lag-lead loop, eq. (4) with PC2.

    Kd = VDD/4pi, Ko = 2pi*Kv, tau1 = R1*C, tau2 = R2*C; this shares no
    code with the program's own design-point helpers.
    """
    kd = PAPER_VDD / (4.0 * math.pi)
    ko = 2.0 * math.pi * PAPER_VCO_GAIN_HZ_PER_V
    gain = kd * ko / PAPER_N
    tau1, tau2 = PAPER_R1 * PAPER_C, PAPER_R2 * PAPER_C
    wn = math.sqrt(gain / (tau1 + tau2))
    return wn / (2.0 * math.pi), 0.5 * wn * (tau2 + 1.0 / gain)


def within(value, target, tol) -> bool:
    return value is not None and abs(value / target - 1.0) <= tol


def _lot_stats(tracer, stats) -> None:
    tracer.count("lot.unique_lanes", stats.unique)
    # "drained" lanes start in lockstep and finish on the per-lane
    # kernel, so they count as fast; "ejected" ones finish scalar.
    tracer.count("lot.fast_lanes",
                 stats.closed_form_lanes + stats.vector + stats.drained)
    tracer.count("lot.scalar_lanes", stats.scalar + stats.ejected)
    tracer.count("lot.measured_lanes", stats.measured)
    tracer.count("lot.measure_handbacks",
                 stats.measure_ejected + stats.measure_failed)
    tracer.count("lot.settle_s", stats.settle_s)
    tracer.count("lot.monitor_s", stats.monitor_s)
    tracer.count("lot.measure_s", stats.measure_s)


def program_hooks():
    """Entry points wrapped in traced passes (owner, attr, span, ...)."""
    from repro.pll.population.aggregate import PopulationAggregate

    lot = importlib.import_module("repro.pll.lot")
    report = importlib.import_module("repro.reporting.device_report")
    population = importlib.import_module("repro.pll.population.engine")
    fallback = [
        (PLLTransientSimulator, attr, "simulator.fallback",
         "lot.premeasure", None)
        for attr in ("run_until", "run_for", "run_until_locked")
    ]
    return [
        (lot, "premeasure_lot", "lot.premeasure", None, _lot_stats),
        *fallback,
        (ToneTestSequencer, "run", "sequencer.run", None, None),
        (TransferFunctionMonitor, "evaluate_outcomes", "monitor.evaluate",
         None, None),
        (report, "device_report", "reporting.render", None, None),
        (population, "sample_die", "population.sample", None, None),
        (PopulationAggregate, "update", "population.aggregate", None, None),
    ]


def _verdict(text: str) -> str:
    if "FAIL (sweep aborted)" in text:
        return "FAIL (aborted)"
    if "**PASS**" in text:
        return "PASS"
    if "**FAIL**" in text:
        return "FAIL"
    return "?"


def _report_value(text: str, row: str):
    prefix = f"| {row} | "
    for line in text.splitlines():
        if line.startswith(prefix):
            try:
                return float(line[len(prefix):].split()[0])
            except ValueError:
                return None
    return None


class Workload:
    """Defaults shared by the workloads."""

    dies_per_pass = 1
    min_passes = 1

    def hooks(self):
        return program_hooks()

    def probe(self):
        """Finish set-up; returns what to close once it is timed."""
        return None

    def peak_rss_mb(self) -> float:
        import resource

        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class FaultLot(Workload):
    """Table 3 healthy die plus the seven library faults, one lot screen."""

    name = "fault_lot"

    def __init__(self, seed: int, out_dir: str, root: str) -> None:
        fn, zeta = eq4_model()
        limits = TestLimits.from_golden(
            SecondOrderParameters(2.0 * math.pi * fn, zeta),
            rel_tol=0.25, peak_tol_db=1.5,
        )
        duts = [paper_pll()] + [
            apply_fault(paper_pll(), FAULT_LIBRARY[label])
            for label in sorted(FAULT_LIBRARY)
        ]
        self.requests = [
            DeviceReportRequest(
                pll=replace(dut, name=f"die-{i:02d}"),
                stimulus=paper_stimulus("multitone"),
                plan=paper_sweep(points=TONES),
                config=paper_bist_config(),
                limits=limits,
            )
            for i, dut in enumerate(duts)
        ]
        self.dies_per_pass = len(self.requests)
        self.recheck = seed % len(self.requests)
        self.model = (fn, zeta)

    def run_pass(self, tracer=None):
        reset_nominal_frequency_memo()
        cache = LockStateCache()
        t0 = time.perf_counter()
        reports = batch_device_reports(self.requests, n_workers=1,
                                       cache=cache, engine="auto")
        wall = time.perf_counter() - t0
        return {"wall": wall, "ops": len(self.requests), "failed": set(),
                "reports": reports}

    def check(self, passes, log) -> None:
        fn, zeta = self.model
        scalar = batch_device_reports([self.requests[self.recheck]],
                                      engine="scalar")[0]
        for p in passes:
            for i, text in enumerate(p.pop("reports")):
                verdict = _verdict(text)
                problem = None
                if i == 0:
                    mfn = _report_value(text, "natural frequency")
                    mzeta = _report_value(text, "damping")
                    if verdict != "PASS":
                        problem = f"healthy die verdict {verdict}"
                    elif not (within(mfn, fn, MODEL_TOL)
                              and within(mzeta, zeta, MODEL_TOL)):
                        problem = (f"healthy fn={mfn} zeta={mzeta} vs model "
                                   f"{fn:.3f}/{zeta:.3f}")
                elif not verdict.startswith("FAIL"):
                    problem = f"faulted die verdict {verdict}"
                if i == self.recheck and text != scalar:
                    problem = "auto report differs from engine=scalar"
                if problem:
                    p["failed"].add(i)
                    log(f"check failed: die-{i:02d}: {problem}")


class PopulationCdr180(Workload):
    """Streaming yield screen of a stratified 40-die cdr180 population."""

    name = "population_cdr180"

    def __init__(self, seed: int, out_dir: str, root: str) -> None:
        from repro.pll.population import PopulationSpec, ToleranceSpec

        with open(os.path.join(HERE, "population_seeds.json")) as fh:
            table = json.load(fh)
        self.spec = PopulationSpec(
            corner=table["corner"],
            size=table["size"],
            seed=table["seeds"][seed % len(table["seeds"])],
            tolerance=ToleranceSpec("normal", table["rel_sigma"]),
            fault_rate=table["fault_rate"],
            points=9,
        )
        self.dies_per_pass = self.spec.size
        self.recheck = seed % self.spec.size
        self.jsonl = os.path.join(out_dir, f"population-{os.getpid()}.jsonl")

    def run_pass(self, tracer=None):
        from repro.pll.population import screen_population

        reset_nominal_frequency_memo()
        cache = LockStateCache(max_entries=4096)
        t0 = time.perf_counter()
        aggregate, __ = screen_population(
            self.spec, n_workers=1, engine="auto", cache=cache,
            jsonl=self.jsonl,
        )
        wall = time.perf_counter() - t0
        with open(self.jsonl, "rb") as fh:
            raw = fh.read()
        os.remove(self.jsonl)
        return {"wall": wall, "ops": self.spec.size, "failed": set(),
                "raw": raw, "aggregate": aggregate}

    def check(self, passes, log) -> None:
        from repro.pll.population import get_corner, sample_die
        from repro.reporting.device_report import batch_device_screen

        corner = get_corner(self.spec.corner)
        die = sample_die(self.spec, self.recheck)
        reset_nominal_frequency_memo()
        outcome = batch_device_screen([DeviceReportRequest(
            pll=die.pll, stimulus=corner.stimulus(),
            plan=corner.plan(self.spec.points), config=corner.config(),
            limits=corner.limits(self.spec.rel_tol, self.spec.peak_tol_db),
        )], engine="scalar")[0]
        everyone = set(range(self.spec.size))
        first_raw = passes[0]["raw"]
        for p in passes:
            raw = p.pop("raw")
            aggregate = p.pop("aggregate")
            records = [json.loads(line) for line in raw.splitlines()]
            faults = sorted(r["fault"] for r in records if r["fault"])
            counts = aggregate.counts
            if raw != first_raw:
                log("check failed: JSONL differs between passes")
                p["failed"] |= everyone
            if [r["index"] for r in records] != sorted(everyone):
                log("check failed: JSONL indices are not 0..size-1")
                p["failed"] |= everyone
                continue
            if not composition_ok(faults):
                log(f"check failed: injected faults {faults} "
                    "(population_seeds.json is stale; see stratify.py)")
                p["failed"] |= everyone
            if not (counts.total == self.spec.size
                    and counts.passed + counts.errors <= counts.total
                    and sum(r["passed"] for r in records) == counts.passed
                    and sum(r["error"] is not None for r in records)
                    == counts.errors):
                log("check failed: outcome counts do not add up")
                p["failed"] |= everyone
            for r in records:
                if r["fault"] is not None:
                    continue
                pll = sample_die(self.spec, r["index"]).pll
                golden = math.sqrt(
                    pll.pump.i_up * pll.vco.gain_hz_per_v
                    / (pll.n * pll.loop_filter.c)) / (2.0 * math.pi)
                if not within(r["fn_hz"], golden, CDR_FN_TOL):
                    log(f"check failed: die {r['index']} fn={r['fn_hz']} "
                        f"vs parts {golden:.1f}")
                    p["failed"].add(r["index"])
            mine = records[self.recheck]
            for key, value in mine.items():
                theirs = {"index": die.index, "fault": die.fault}.get(
                    key, getattr(outcome, key, None))
                if json.dumps(theirs) != json.dumps(value):
                    log(f"check failed: die {self.recheck} {key}: auto "
                        f"{value!r} vs scalar {theirs!r}")
                    p["failed"].add(self.recheck)


def _proc_stat(pid: int):
    """(cpu seconds, peak RSS MB) of a live process, from /proc."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    cpu = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    hwm = 0.0
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                hwm = int(line.split()[1]) / 1024.0
    return cpu, hwm


class Server:
    """``python -m repro serve`` on a unix socket, in a subprocess."""

    def __init__(self, root: str, out_dir: str) -> None:
        from repro.service import ServiceClient

        # A relative socket path stays under the AF_UNIX length limit
        # however deep the checkout is.
        self.socket = os.path.relpath(
            os.path.join(out_dir, f"s{os.getpid()}.sock"), root)
        env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.log = open(os.path.join(out_dir, "serve.log"), "ab")
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--socket", self.socket],
            cwd=root, env=env, stdout=self.log, stderr=self.log,
        )
        self.client = ServiceClient(self.socket, timeout_s=60.0)
        deadline = time.monotonic() + 60.0
        while True:
            try:
                self.client.status()
                break
            except Exception:  # noqa: BLE001 - not listening yet
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    self.close()
                    raise RuntimeError("service did not start; see serve.log")
                time.sleep(0.01)

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    self.client.shutdown()
                    self.proc.wait(timeout=60)
                except Exception:  # noqa: BLE001 - kill below
                    pass
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.log.close()
            if os.path.exists(self.socket):
                os.remove(self.socket)


class ServiceRetest(Workload):
    """Two closed-loop clients running 13-tone auto jobs on the service."""

    name = "service_retest"
    min_passes = 4  # 64 jobs, so at least ten lie beyond p80
    jobs_per_spec = 2

    def __init__(self, seed: int, out_dir: str, root: str) -> None:
        from repro.service import SweepJobSpec

        self.root, self.out_dir, self.seed = root, out_dir, seed
        self.labels = [None] + sorted(FAULT_LIBRARY)
        self.dies_per_pass = len(self.labels) * self.jobs_per_spec
        self.recheck = self.labels[seed % len(self.labels)]
        self.passes_run = 0
        self.spec = lambda label, engine, client: SweepJobSpec(
            points=TONES, fault=label, engine=engine, label=label,
            client_id=client,
        )
        self.rss = []

    def probe(self):
        """Set-up ends when a fresh server answers ``status``."""
        return Server(self.root, self.out_dir)

    def hooks(self):
        return []

    def peak_rss_mb(self) -> float:
        ordered = sorted(self.rss)
        return ordered[len(ordered) // 2]

    def _job(self, client, label, name, tracer):
        rec = {"label": label, "t0": time.perf_counter()}
        accepted = client.submit(self.spec(label, "auto", name))
        rec["submitted"] = time.perf_counter()
        indices = []
        for event in client.watch(accepted["job_id"]):
            now = time.perf_counter()
            kind = event.get("event")
            rec.setdefault(kind, now)
            if kind == "tone":
                indices.append(event["index"])
                rec.setdefault("first_tone", now)
            elif kind in ("done", "failed", "cancelled"):
                rec["terminal"], rec["state"] = now, kind
                rec["error"] = event.get("error")
        rec["indices"] = indices
        start = time.perf_counter()
        rec["report"] = client.report(accepted["job_id"])
        rec["reported"] = time.perf_counter()
        rec["report_s"] = rec["reported"] - start
        if tracer is not None:
            job = tracer.record("service.job", rec["t0"], rec["reported"])
            tracer.record("service.submit", rec["t0"], rec["submitted"], job)
            started = rec.get("started", rec["submitted"])
            tracer.record("service.queue_wait",
                          rec.get("accepted", rec["submitted"]), started, job)
            tracer.record("service.run", started,
                          rec.get("terminal", started), job)
            tracer.record("service.report", start, rec["reported"], job)
        return rec

    def order(self, pass_index: int) -> list:
        """Pass ``pass_index``'s job order: every spec twice, shuffled.

        Each pass draws its own order from the seed, so one run averages
        the queueing over several orders instead of repeating one.
        """
        order = self.labels * self.jobs_per_spec
        random.Random(f"{self.seed}:{pass_index}").shuffle(order)
        return order

    def run_pass(self, tracer=None):
        server = Server(self.root, self.out_dir)
        try:
            return self._drive(server, tracer, self.order(self.passes_run))
        finally:
            self.passes_run += 1
            server.close()

    def _drive(self, server, tracer, order):
        from repro.service import ServiceClient

        cpu0, __ = _proc_stat(server.proc.pid)
        queue = list(reversed(order))
        lock = threading.Lock()
        records, errors = [], []

        def client_loop(name):
            client = ServiceClient(server.socket, timeout_s=60.0)
            while True:
                with lock:
                    if not queue:
                        return
                    index = len(order) - len(queue)
                    label = queue.pop()
                try:
                    rec = self._job(client, label, name, tracer)
                except Exception as exc:  # noqa: BLE001 - a lost job
                    errors.append((index, f"{label}: {exc!r}"))
                    continue
                rec["op"] = index
                with lock:
                    records.append(rec)

        threads = [threading.Thread(target=client_loop, args=(f"c{i}",))
                   for i in range(2)]
        t0 = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - t0
        status = server.client.status()
        cpu1, hwm = _proc_stat(server.proc.pid)
        self.rss.append(hwm)
        warm = sum(
            any(other["label"] == rec["label"]
                and other.get("terminal", math.inf)
                < rec.get("started", rec["submitted"])
                for other in records)
            for rec in records)
        return {"wall": wall, "ops": len(order), "failed": set(),
                "records": records, "errors": errors,
                "hit_ratio": status["cache"]["hit_rate"],
                "cpu_per_job": (cpu1 - cpu0) / len(order),
                "note": f"warm jobs {warm}/{len(order)}"}

    def check(self, passes, log) -> None:
        server = Server(self.root, self.out_dir)
        try:
            client = server.client
            accepted = client.submit(self.spec(self.recheck, "scalar", "x"))
            list(client.watch(accepted["job_id"]))
            scalar = client.report(accepted["job_id"])
        finally:
            server.close()
        for p in passes:
            for op, text in p.pop("errors"):
                log(f"check failed: job lost: {text}")
                p["failed"].add(op)
            by_label = {}
            for rec in p["records"]:
                problem = None
                streamed = rec["indices"]
                if "terminal" not in rec:
                    problem = "no terminal event"
                elif streamed != list(range(len(streamed))):
                    problem = f"tones out of plan order: {streamed}"
                elif rec["state"] == "done" and len(streamed) != TONES:
                    problem = f"{len(streamed)} of {TONES} tones streamed"
                elif rec["state"] != "done" and (
                        rec["state"] == "cancelled" or rec["label"] is None
                        or not rec.get("error")):
                    problem = f"{rec['state']}: {rec.get('error')}"
                elif rec["label"] == self.recheck and rec["report"] != scalar:
                    problem = "auto report differs from engine=scalar"
                first = by_label.setdefault(rec["label"], rec["report"])
                if rec["report"] != first:
                    problem = "cold and warm reports differ"
                if problem:
                    log(f"check failed: job {rec['label']}: {problem}")
                    p["failed"].add(rec["op"])


WORKLOADS = {w.name: w for w in (FaultLot, PopulationCdr180,
                                 ServiceRetest)}

