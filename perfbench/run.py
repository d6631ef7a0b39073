"""Audit benchmark: one workload through ``regret_audit`` ``run_audit``.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Each repetition audits every profile of the workload and writes the report,
as ``regret-audit eval`` does; repetitions of one run are identical. With
``--trace 0`` it repeats the audit for about S seconds and prints the
end-to-end metrics: ``profiles_per_s`` (median over repetitions),
``setup_s`` (median over separate set-up processes) and ``peak_rss_mb``.
Both times are scaled to a nominal host speed by a reference timed around
each of them (hostspeed.py); the measured ones are printed too.
With ``--trace 1`` it runs untraced and traced audits in turn for about S
seconds, after a share of S with the pool when the workload has one, and
prints the per-layer metrics. Either way it checks every
distinct report (checks.py), prints the environment, the report digest and
``failed_frac``, and ends with one JSON line holding ``correct``,
``attempted``, ``failed`` and ``metrics``. It exits 1 when a check fails.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

from checkout import WORK_DIR, use_checkout_source

use_checkout_source()

# the package source is on sys.path from here on
from regret_audit import harness  # noqa: E402

import checks  # noqa: E402
import envinfo  # noqa: E402
import hostspeed  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
#: set-ups timed per untraced run, spread over it; setup_s is their median
SETUP_RUNS = 15
#: repetitions of an untraced phase even when one repetition outlasts it
MIN_REPS = 4
#: (untraced, traced) pairs of a traced run; its counts repeat exactly
MIN_PAIRS = 2


@dataclass
class Rep:
    """One audit: its wall time and the digest of its report (None if it raised)."""

    wall_s: float
    digest: Optional[str] = None
    busy_frac: float = 0.0
    #: wall_s at the nominal host speed, when the run measures it
    scaled_s: float = 0.0


class Runner:
    """Repeats one audit and keeps the first report of every distinct digest."""

    def __init__(self, workload: workloads.Workload, seed: int, work_dir: Path):
        self.workload = workload
        self.work_dir = work_dir
        self.report_path = work_dir / "report.json"
        self.cfg = workloads.build_config(workload, seed, work_dir, out=str(self.report_path))
        self.mech = harness.resolve_mechanism(self.cfg.mechanism, self.cfg.setting)
        #: (sample, bidder) pairs and records of one audit
        self.pairs = self.cfg.samples * self.cfg.setting.n
        self.records = self.pairs * len(self.cfg.methods)
        self.reps = []
        self.reports = {}
        self.report_bytes = 0
        self.setup_times = []
        self.setup_scaled = []
        self.reference_times = []
        self.interpreter_times = []

    def audit(self, workers: int) -> Rep:
        start = time.perf_counter()
        try:
            report = harness.run_audit(self.cfg, workers=workers)
        except Exception:  # the audit's failure is the result: every record of it fails
            traceback.print_exc()
            rep = Rep(time.perf_counter() - start)
        else:
            wall = time.perf_counter() - start
            busy = sum(r.estimate.wall_seconds for r in report.records) / (
                workers * report.wall_seconds)
            digest, data = checks.read_report(self.report_path)
            self.reports.setdefault(digest, data)
            self.report_bytes = checks.report_bytes(self.report_path, data)
            rep = Rep(wall, digest, busy)
        self.reps.append(rep)
        return rep

    def verdict(self):
        """(attempted, failed, correct) over every repetition run."""
        failed_in = {
            digest: min(self.records,
                        checks.failed_records(data, self.mech, self.workload.invariant)
                        + max(0, self.records - len(data["records"])))
            for digest, data in self.reports.items()
        }
        attempted = self.records * len(self.reps)
        failed = sum(self.records if r.digest is None else failed_in[r.digest] for r in self.reps)
        return attempted, failed, failed == 0 and len(self.reports) == 1


def repeat(budget_s: float, min_rounds: int, *steps):
    """Run rounds of the steps, each an audit returning a Rep, until
    ``min_rounds`` are done and the next round would end after
    ``budget_s``, or an audit raises. Returns one list of Reps per step."""
    done = [[] for _ in steps]
    start = time.perf_counter()
    while True:
        round_start = time.perf_counter()
        for reps, step in zip(done, steps):
            reps.append(step())
            if reps[-1].digest is None:
                return done
        now = time.perf_counter()
        if len(done[0]) >= min_rounds and (now - start) + (now - round_start) > budget_s:
            return done


class SetupProbe:
    """The set-up server of probe.py: each ``sample()`` times one set-up in
    a fresh interpreter and returns its seconds scaled to the nominal host
    speed by the reference interpreter timed around it."""

    def __init__(self, workload: workloads.Workload, seed: int, work_dir: Path):
        self.times = []
        self.references = []
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py"), json.dumps(asdict(workload)), str(seed),
             str(work_dir)], stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def sample(self) -> float:
        self.proc.stdin.write("\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the set-up probe ended early")
        seconds, reference = map(float, line.split())
        self.times.append(seconds)
        self.references.append(reference)
        return seconds * hostspeed.INTERPRETER_NOMINAL_S / reference

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=130)
        finally:
            self.proc.kill()
            self.proc.wait()
            self.proc.stdout.close()
        return False


def peak_rss_mb(workers: int) -> float:
    """This process's peak, plus workers x the largest child's peak when pooled."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workers > 1:
        kib += workers * resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


def end_to_end_metrics(runner: Runner, seed: int, seconds: float) -> dict:
    """Untraced audits for about ``seconds``, with the set-up timings spread
    evenly among them so that both see the same share of host load. Each
    is scaled by its own reference timed around it (hostspeed.py)."""
    workload = runner.workload
    with SetupProbe(workload, seed, runner.work_dir) as setup:
        host = hostspeed.HostSpeed()
        scaled_setups = []
        start = time.perf_counter()

        def sample_setups(count):
            while len(setup.times) < count:
                scaled_setups.append(setup.sample())

        def audit_then_setup():
            rep = runner.audit(workload.workers)
            rep.scaled_s = host.scale(rep.wall_s)
            share = min(1.0, (time.perf_counter() - start) / seconds) if seconds > 0 else 1.0
            sample_setups(SETUP_RUNS * share)
            return rep

        (reps,) = repeat(seconds, MIN_REPS, audit_then_setup)
        # the pool workers are the only children reaped so far
        rss = peak_rss_mb(workload.workers)
        sample_setups(SETUP_RUNS)
    runner.setup_times = setup.times
    runner.setup_scaled = scaled_setups
    runner.reference_times = host.times
    runner.interpreter_times = setup.references
    print(f"measured profiles_per_s {statistics.median(runner.records / r.wall_s for r in reps)} "
          f"setup_s {statistics.median(setup.times)} "
          f"reference_s {statistics.median(host.times)} (nominal {hostspeed.NOMINAL_S}) "
          f"interpreter_s {statistics.median(setup.references)} "
          f"(nominal {hostspeed.INTERPRETER_NOMINAL_S})")
    return {
        "profiles_per_s": (statistics.median(runner.records / r.scaled_s for r in reps),
                           "profiles/s"),
        "setup_s": (statistics.median(scaled_setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }


def layer_metrics(runner: Runner, seconds: float) -> dict:
    """Untraced audits with the workload's worker count, then untraced and
    traced serial audits in turn. The pool metrics come from the first, since
    spans recorded in pool workers would stay there; the trace overhead is
    the median ratio of each traced audit to the untraced one before it."""
    workload = runner.workload
    pooled = workload.workers > 1
    spans = tracer.Tracer()

    def traced_audit():
        with spans:
            return runner.audit(1)

    with tracer.count_pool_tasks() as submitted:
        if pooled:
            (pool_reps,) = repeat(seconds / 3, MIN_REPS, lambda: runner.audit(workload.workers))
        serial, traced = repeat(seconds * (2 / 3 if pooled else 1), MIN_PAIRS,
                                lambda: runner.audit(1), traced_audit)
    if not pooled:
        pool_reps = serial
    spans.write(runner.work_dir / "spans.csv")

    flops = (tracer.neural_flops_per_row(workload.n, workload.m, workload.hidden)
             if workload.mechanism == workloads.NEURAL else 0)
    metrics = tracer.layer_metrics(tracer.aggregate(spans.spans), spans.reps, runner.pairs,
                                   runner.records, flops)
    overheads = [t.wall_s / u.wall_s - 1.0 for u, t in zip(serial, traced)]
    metrics["harness.worker_busy_frac"] = (statistics.median(r.busy_frac for r in pool_reps), "frac")
    metrics["harness.pool_tasks"] = (submitted[0] / len(pool_reps), "tasks")
    metrics["report.bytes"] = (runner.report_bytes, "bytes")
    # no pair is complete when the first untraced audit raises
    metrics["trace.overhead_frac"] = (statistics.median(overheads) if overheads else 0.0, "frac")
    return metrics


def run(workload: workloads.Workload, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload, print its metrics and return the result object."""
    work_dir = WORK_DIR / workload.name
    work_dir.mkdir(parents=True, exist_ok=True)
    workloads.write_spec(workload, work_dir)
    runner = Runner(workload, seed, work_dir)
    metrics = layer_metrics(runner, seconds) if trace else end_to_end_metrics(runner, seed, seconds)
    attempted, failed, correct = runner.verdict()
    env = envinfo.environment()

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {seed} trace {trace} repetitions {len(runner.reps)}")
    for digest in runner.reports:
        print(f"report_sha256 {digest}")
    if len(runner.reports) > 1:
        print("FAIL repetitions disagree on the report digest")
    print(f"metric failed_frac {failed / attempted} frac ({failed} of {attempted} records)")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value} {unit}")

    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    with open(work_dir / f"result-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump({"workload": asdict(workload), "seed": seed, "env": env,
                   "report_sha256": list(runner.reports),
                   "rep_wall_s": [r.wall_s for r in runner.reps],
                   "rep_scaled_s": [r.scaled_s for r in runner.reps],
                   "setup_s": runner.setup_times, "setup_scaled_s": runner.setup_scaled,
                   "reference_s": runner.reference_times,
                   "interpreter_s": runner.interpreter_times, **result}, fh, indent=2)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="regret-audit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True, help="audit seed")
    parser.add_argument("--seconds", type=float, required=True, help="measuring time")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
