#!/usr/bin/env python3
"""The fusscat benchmark: one closed-loop client running one workload.

    python3 bench/run.py --workload brackets --seed 1 --seconds 20 --trace 0

One process and one thread send one job at a time; the next job starts
when the previous one has returned. Job inputs come from --seed only. Jobs
run until their summed wall time reaches --seconds; each answer is checked
right after its job, outside the job's timed interval. With --trace 0 the
last stdout line reports the
end-to-end metrics; with --trace 1 the run spends the first half of
--seconds untraced and the second half, on the same jobs, with spans
around every layer, and reports the per-layer metrics and the tracing
overhead. Exit status is 0 only when every job was answered correctly.
See bench/README.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC_DIR = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

SETUP_PROBES = 7
# A fresh interpreter that imports fusscat and builds the job list, then
# says so: the set-up a user of the benchmark pays before the first job.
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.make_jobs(sys.argv[3], int(sys.argv[4])); print('ready', flush=True)")

# The host's speed drifts by tens of percent over minutes, and the drift
# moves every timing together. A fixed calibration, run between jobs after
# every CAL_EVERY_S of job time and around each set-up probe, measures the
# speed the jobs saw; timings are reported scaled to a host on which it
# takes its reference time. Library jobs are scaled by a pure-Python loop;
# process start-up (the cli jobs, the set-up probes) by a bare interpreter
# start, which tracks the host's process-creation cost that a loop misses.
CAL_EVERY_S = 0.01
LOOP_REF_S = 0.001
SPAWN_REF_S = 0.06
CAL_PER_PROBE = 2


def loop_seconds() -> float:
    """Seconds for one fixed mix of interpreter dispatch, small ints,
    dict stores and big-int arithmetic; uses no fusscat code."""
    start = perf_counter()
    acc, big, table = 0, 3 ** 400, {}
    for i in range(4000):
        acc += (i * 7) % 13
        table[i & 255] = (i, acc)
        if i % 50 == 0:
            big = (big * 1234567891) // 987654321 + i
    return (perf_counter() - start) / LOOP_REF_S


def spawn_seconds() -> float:
    """Seconds for `python -c pass`, relative to SPAWN_REF_S."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True, cwd=ROOT)
    return (perf_counter() - start) / SPAWN_REF_S


END_TO_END = (
    ("jobs_per_s", "1/s", "higher"),
    ("job_ms_p50", "ms", "lower"),
    ("job_ms_p90", "ms", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median wall time, over SETUP_PROBES fresh interpreters, from spawn
    to the job list being ready; and the host's slowness around them."""
    times, cal = [], sum(spawn_seconds() for _ in range(CAL_PER_PROBE))
    for _ in range(SETUP_PROBES):
        start = perf_counter()
        with subprocess.Popen(
                [sys.executable, "-c", SETUP_PROBE, str(SRC_DIR), str(BENCH_DIR),
                 workload, str(seed)],
                stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe exited {proc.returncode}")
        cal += sum(spawn_seconds() for _ in range(CAL_PER_PROBE))
    return statistics.median(times), cal / ((SETUP_PROBES + 1) * CAL_PER_PROBE)


class Runner:
    """Runs jobs from the list in a closed loop.

    Each answer is checked as soon as its job returns, outside the job's
    timed interval and with the tracer paused, and then dropped, so memory
    and garbage-collection work do not grow with the number of jobs run.
    """

    def __init__(self, workloads, jobs, calibrate):
        self.w = workloads
        self.jobs = jobs
        self.calibrate = calibrate
        self.checker = workloads.Checker()
        self.env = workloads.cli_env()
        self.tracer = None
        self.outcomes = []  # (job, seconds, failure reason or None)
        self.process_s = 0.0
        self.stdout_bytes = 0

    def phase(self, seconds: float) -> tuple[int, int, float, float]:
        """Run jobs until their summed wall time reaches `seconds`; return
        the jobs attempted, the jobs failed, that summed time and the
        host's slowness: the mean relative calibration time."""
        first = len(self.outcomes)
        tracer = self.tracer
        traced_cli = tracer is not None and self.jobs[0][0] == "cli"
        busy = 0.0
        failed = 0
        cal, cal_n, since_cal = 0.0, 0, 0.0
        i = 0
        while busy < seconds:
            job = self.jobs[i % len(self.jobs)]
            i += 1
            if tracer is not None:
                tracer.job = len(self.outcomes)
                tracer.enabled = True
            t0 = perf_counter()
            try:
                answer, error = self.w.execute(job, self.env), None
            except Exception as exc:  # a failed job is counted, not fatal
                answer, error = None, exc
            elapsed = perf_counter() - t0
            if traced_cli:
                self._cli_in_process(job, elapsed)
            if tracer is not None:
                tracer.enabled = False
            busy += elapsed
            since_cal += elapsed
            if since_cal >= CAL_EVERY_S or busy >= seconds:
                cal += self.calibrate()
                cal_n += 1
                since_cal = 0.0
            reason = self.checker.failure(job, answer, error)
            failed += reason is not None
            self.outcomes.append((job, elapsed, reason))
        return len(self.outcomes) - first, failed, busy, cal / cal_n

    def _cli_in_process(self, job, subprocess_s):
        t0 = perf_counter()
        _, out, _ = self.w.cli_in_process(job[1])
        self.process_s += subprocess_s - (perf_counter() - t0)
        self.stdout_bytes += len(out.encode())


def git_sha() -> str:
    """HEAD of the checkout, read from .git when there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (git / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown"


def p90(values) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "fusscat" / "__init__.py").is_file():
        print(f"error: no fusscat sources at {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC_DIR), str(BENCH_DIR)]
    import fusscat
    import tracing
    import workloads

    if Path(fusscat.__file__).resolve().parent != SRC_DIR / "fusscat":
        print(f"error: imported fusscat from {fusscat.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    setup_s, setup_slowness = measure_setup(args.workload, args.seed)
    jobs = workloads.make_jobs(args.workload, args.seed)
    runner = Runner(workloads, jobs,
                    spawn_seconds if args.workload == "cli" else loop_seconds)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF

    untraced_s = args.seconds / 2 if args.trace else args.seconds
    attempted, failed, busy, slowness = runner.phase(untraced_s)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024
    times_ms = [o[1] * 1e3 for o in runner.outcomes]
    rate = (attempted - failed) / busy
    raw = {"jobs_per_s": rate, "job_ms_p50": statistics.median(times_ms),
           "job_ms_p90": p90(times_ms), "setup_s": setup_s}

    seen, repeats = set(), 0
    for job, _, _ in runner.outcomes:
        key = workloads.job_key(job)
        repeats += key in seen
        seen.add(key)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            traced_jobs, traced_failed, traced_busy, traced_slowness = runner.phase(args.seconds / 2)
        finally:
            tracer.uninstall()
        traced_rate = (traced_jobs - traced_failed) / traced_busy
        metrics = tracer.layer_metrics(traced_jobs)
        metrics["cli.stdout_bytes"] = runner.stdout_bytes / traced_jobs
        metrics["cli.process_s"] = runner.process_s / traced_jobs
        metrics["trace.jobs_per_s"] = traced_rate * traced_slowness
        metrics["trace.overhead"] = (
            rate * slowness / (traced_rate * traced_slowness) if traced_rate else 0.0)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    else:
        metrics = {
            "jobs_per_s": raw["jobs_per_s"] * slowness,
            "job_ms_p50": raw["job_ms_p50"] / slowness,
            "job_ms_p90": raw["job_ms_p90"] / slowness,
            "setup_s": setup_s / setup_slowness,
            "peak_rss_mb": peak_rss_mb,
        }
        units = {name: unit for name, unit, _ in END_TO_END}
    failures = [(n, job, reason) for n, (job, _, reason) in enumerate(runner.outcomes)
                if reason is not None]

    total = len(runner.outcomes)
    context = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "jobs_untraced": attempted, "jobs_traced": total - attempted,
        "repeated_input_share": repeats / attempted,
        "fail_frac": len(failures) / total,
        "peak_rss_mb": peak_rss_mb, "host_slowness": slowness,
        "host_slowness_setup": setup_slowness, "unscaled": raw,
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracer is not None:
        tracer.write(RESULTS_DIR / f"spans-{stem}.jsonl")

    for n, job, reason in failures[:20]:
        print(f"FAILED job {n} {job!r}: {reason}")
    print(f"workload {args.workload}, seed {args.seed}: {total} jobs attempted "
          f"({attempted} untraced), {len(failures)} failed, fail_frac "
          f"{context['fail_frac']:.4f} ratio, repeated inputs "
          f"{context['repeated_input_share']:.3f} of {attempted}")
    for name, value in metrics.items():
        note = f"  ({attempted} jobs)" if name.startswith("job_ms") else ""
        print(f"  {name:48s} {value:14.6g} {units[name]}{note}")
    print(f"  unscaled: {', '.join(f'{k} {v:.6g}' for k, v in raw.items())}; "
          f"host slowness {slowness:.4f} (set-up {setup_slowness:.4f})")
    print(f"  python {context['python']}, nproc {context['nproc']}, git {context['git_sha'][:12]}")
    result = {
        "correct": not failures,
        "attempted": total,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    (RESULTS_DIR / f"{stem}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n")
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
