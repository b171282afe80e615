"""mouldcalc benchmark: one closed-loop client calling `mouldcalc.cli.main`
in-process on seeded field files, one job at a time, `--threads 1`.

    python3 bench/run.py --workload normalize-mix --seed 1 --seconds 25 \
        --trace 0

Workloads: normalize-mix, check-warm, borel-mix (see workloads.py and
README.md).  A run sets up three times, each in a fresh interpreter
(prepare.py), then runs whole passes over the seed's field set until the
jobs have taken `--seconds` and at least 100 jobs are done.  Every job's
output is checked by verify.py, untimed.  Times are reported at a fixed
reference speed of the host (calibrate.py), which drifts on a shared
machine; the wall-clock figures are printed beside them.

--trace 0 prints the end-to-end metrics; --trace 1 runs one untraced pass
and then traced passes (tracing.py), prints the per-layer metrics per
pass, and writes the aggregated spans to .bench_run/ in the checkout.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from contextlib import nullcontext
from time import perf_counter

import calibrate
import fields
import prepare
import workloads

WORK_ROOT = os.path.join(prepare.ROOT, ".bench_run")
CACHE_DIR_ENV = "MOULDCALC_CACHE_DIR"
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 150
# The p90 needs at least 10 samples beyond it; each field's latency is a
# median over at least three passes.
MIN_JOBS = 100
MIN_PASSES = 3

END_TO_END = (
    ("jobs_per_s", "1/s"), ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"), ("peak_rss_mb", "MB"), ("setup_s", "s"),
)


class Job:
    """One field's job: its command line and the files reset before it."""

    def __init__(self, workload, index, prepared, workdir):
        self.index = index
        self.out_dir = os.path.join(workdir, f"out-{index:02d}")
        self.cache = workloads.cache_path(workdir, index)
        self.pristine = (workloads.cache_path(prepared, index)
                         if workload == "check-warm" else None)
        self.argv = workloads.job_argv(
            workload, workloads.field_path(prepared, index), self.out_dir,
            self.cache)

    def reset(self):
        """Fresh output directory; a cold cache (normalize-mix) or the
        set-up cache, since `check` rewrites it (check-warm)."""
        shutil.rmtree(self.out_dir, ignore_errors=True)
        if self.pristine is not None:
            shutil.copyfile(self.pristine, self.cache)
        elif os.path.exists(self.cache):
            os.remove(self.cache)


class Loop:
    """Runs passes over the jobs and keeps the tallies."""

    def __init__(self, cli, jobs, verifier):
        self.cli = cli
        self.jobs = jobs
        self.verifier = verifier
        # job times per field, at the reference speed (calibrate.py) and
        # as wall times
        self.by_field = [[] for _ in jobs]
        self.wall_by_field = [[] for _ in jobs]
        self.failures = []

    @property
    def attempted(self) -> int:
        return sum(len(times) for times in self.by_field)

    def run_pass(self, tracer=None) -> tuple:
        """One pass over every job; returns the jobs' summed wall time and
        their summed time at the reference speed."""
        busy = busy_ref = 0.0
        for job in self.jobs:
            job.reset()
            loop_before = calibrate.reference_loop()
            with tracer if tracer is not None else nullcontext():
                t0 = perf_counter()
                try:
                    code = self.cli.main(job.argv)
                except Exception:  # a crashing job is a failed job
                    traceback.print_exc()
                    code = None
                dt = perf_counter() - t0
            dt_ref = calibrate.at_reference(dt, loop_before,
                                            calibrate.reference_loop())
            if tracer is not None:
                tracer.job_done(job.out_dir)
            busy += dt
            busy_ref += dt_ref
            self.by_field[job.index].append(dt_ref)
            self.wall_by_field[job.index].append(dt)
            reason = self.verifier.check(job.index, code, job.out_dir)
            if reason is not None:
                self.failures.append(f"field {job.index:02d}: {reason}")
        return busy, busy_ref


def setup_in_fresh_processes(workload, seed, mix, workdir):
    """SETUP_REPEATS set-ups, each in its own interpreter; returns (setup
    times at the reference speed, directory of the last one)."""
    times = []
    for k in range(SETUP_REPEATS):
        directory = os.path.join(workdir, f"setup-{k}")
        done = subprocess.run(
            [sys.executable, os.path.join(prepare.BENCH, "prepare.py"),
             "--workload", workload, "--seed", str(seed), "--mix", mix,
             "--dir", directory],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"error: set-up {k} exited {done.returncode}")
        times.append(json.loads(done.stdout.strip().splitlines()[-1])
                     ["setup_s"])
        if k:
            shutil.rmtree(os.path.join(workdir, f"setup-{k - 1}"))
    return times, directory


def measure(cli, workload, specs, prepared, workdir, seconds, trace):
    """Run the loop; returns (loop, None) untraced, else (loop, (tracer,
    traced passes, traced over untraced pass time))."""
    import tracing
    import verify

    jobs = [Job(workload, i, prepared, workdir) for i in range(len(specs))]
    loop = Loop(cli, jobs, verify.Verifier(workload, specs))
    if not trace:
        busy = 0.0
        passes = 0
        while (busy < seconds or passes < MIN_PASSES
               or loop.attempted < MIN_JOBS):
            busy += loop.run_pass()[0]
            passes += 1
        return loop, None
    untraced = loop.run_pass()[1]
    tracer = tracing.Tracer()
    traced = traced_ref = 0.0
    passes = 0
    while passes == 0 or traced < seconds:
        wall, ref = loop.run_pass(tracer)
        traced += wall
        traced_ref += ref
        passes += 1
    overhead = (traced_ref / passes) / untraced
    return loop, (tracer, passes, overhead)


def job_timings(by_field) -> dict:
    """jobs_per_s and the latency percentiles.  A job's latency is the
    median over the passes of its field's job times, so a burst of load
    from other processes on the machine moves a figure only when it hits
    the same field in most passes.  jobs_per_s is one pass's jobs over
    the sum of those latencies."""
    field_ms = [statistics.median(ts) * 1000.0 for ts in by_field]
    deciles = statistics.quantiles(field_ms, n=10, method="inclusive")
    return {
        "jobs_per_s": len(field_ms) / (sum(field_ms) / 1000.0),
        "latency_p50_ms": statistics.median(field_ms),
        "latency_p90_ms": deciles[8],
    }


def end_to_end(loop, setup_times) -> dict:
    """The end-to-end metrics; times at the reference speed."""
    return {
        **job_timings(loop.by_field),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_times),
    }


class Terminated(BaseException):
    """SIGTERM, raised wherever the run is so that it unwinds: a running
    set-up child is killed and reaped by subprocess.run and the work
    directory is removed.  A BaseException, because `cli.main` turns
    SystemExit into a return code."""


def _terminate(signum, frame):
    raise Terminated()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        description="mouldcalc benchmark (see module docstring)")
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--mix", choices=sorted(fields.MIXES), default="full",
                   help="field set: full, or tiny for the smoke test")
    args = p.parse_args(argv)

    cli = prepare.import_program()
    import tracing  # imports mouldcalc, so only after import_program

    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    os.environ[CACHE_DIR_ENV] = os.path.join(workdir, "mouldcache")
    previous = signal.signal(signal.SIGTERM, _terminate)
    try:
        setup_times, prepared = setup_in_fresh_processes(
            args.workload, args.seed, args.mix, workdir)
        specs = fields.generate(args.seed, args.mix)
        loop, traced = measure(cli, args.workload, specs, prepared, workdir,
                               args.seconds, args.trace)
    finally:
        signal.signal(signal.SIGTERM, previous)
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = loop.attempted
    for line in loop.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    if traced is None:
        values = end_to_end(loop, setup_times)
        units = dict(END_TO_END)
    else:
        tracer, passes, overhead = traced
        values = tracer.metrics(passes, overhead)
        units = dict(tracing.PER_LAYER)
        trace_path = os.path.join(
            WORK_ROOT, f"trace-{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "traced_passes": passes, "metrics": values,
                       "spans_per_pass": tracer.span_table(passes)},
                      fh, indent=1)
        print(f"trace written to {trace_path}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {attempted} jobs, "
          f"{len(specs)} fields per pass, {attempted // len(specs)} passes, "
          f"fail_ratio {len(loop.failures)}/{attempted}")
    for name, value in values.items():
        print(f"  {name:<40} {value:.6g} {units[name]}")
    if traced is None:
        wall = job_timings(loop.wall_by_field)
        print("  as wall times (not at the reference speed): "
              + ", ".join(f"{name} {value:.6g}"
                          for name, value in wall.items()))
    print(json.dumps({
        "correct": not loop.failures, "attempted": attempted,
        "failed": len(loop.failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Terminated:
        sys.exit(143)
