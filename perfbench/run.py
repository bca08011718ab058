"""Benchmark of the dressedcavity pipeline, one workload per invocation.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its ``src/``.
Each workload runs in worker processes of its own, so that its peak memory
is its alone.  With ``--trace 0`` the end-to-end metrics are measured: the
set-up (import, inputs, warm-up job) is repeated in ``SETUP_RUNS`` fresh
processes and its median reported, and the last of them runs the timed
closed loop for ``--seconds``; the job times are each distinct job's fastest
run.  With ``--trace 1`` one process runs a fixed number of job cycles
twice, untraced and traced in turn, and the per-layer metrics are reported.
The last line of standard output is the result object; the line before it
records the run's details and environment.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cavity_build", "freespace_series", "cli_reports")

#: fresh processes that each time the set-up; the median is reported
SETUP_RUNS = 3
#: the whole invocation ends within this many seconds or fails
DEADLINE_S = 170.0
#: jobs beyond the tail percentile; with fewer jobs the slowest is reported
TAIL_JOBS = 10

END_TO_END = (
    ("setup_s", "s"),
    ("job_p50_s", "s"),
    ("job_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
)


def git_sha(root: str) -> str:
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def blas_threads() -> int:
    """BLAS threads for the workers: one per core this process may use."""
    return len(os.sched_getaffinity(0))


def run_worker(args, mode: str, deadline: float) -> dict:
    env = dict(os.environ)
    threads = str(blas_threads())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"  # the same seed also gives the same dict layouts
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode,
    ]
    # run() kills the worker and waits for it if the deadline passes
    proc = subprocess.run(
        cmd, cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_JOBS jobs beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_JOBS:
        return ordered[-1], 100.0
    return ordered[n - TAIL_JOBS - 1], 100.0 * (n - TAIL_JOBS) / n


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not os.path.isfile(os.path.join(ROOT, "src", "dressedcavity", "__init__.py")):
        print(f"error: no dressedcavity sources under {ROOT}/src", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    details = dict(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        loop="closed, 1 client",
        git_sha=git_sha(ROOT),
        nproc=len(os.sched_getaffinity(0)),
        blas_threads=blas_threads(),
    )
    try:
        if args.trace:
            result = run_worker(args, "trace", deadline)
            metrics = {name: dict(value=v, unit=u) for name, (v, u) in result["per_layer"].items()}
            details.update(trace_file=result["trace_file"], count_sources=result["count_sources"])
        else:
            probes = [run_worker(args, "setup", deadline) for _ in range(SETUP_RUNS - 1)]
            result = run_worker(args, "timed", deadline)
            setups = [r["setup_s"] for r in probes + [result]]
            # a failed warm-up job in a set-up process counts as well
            for probe in probes:
                result["attempted"] += probe["attempted"]
                result["failed"] += probe["failed"]
                result["failures"] += probe["failures"]
            times = result["best_job_times"]
            tail_s, tail_pct = tail(times)
            values = dict(
                setup_s=statistics.median(setups),
                job_p50_s=statistics.median(times),
                job_tail_s=tail_s,
                jobs_per_s=len(times) / sum(times),
                peak_rss_mb=result["peak_rss_mb"],
            )
            metrics = {name: dict(value=values[name], unit=unit) for name, unit in END_TO_END}
            details.update(
                setup_runs_s=setups, jobs=len(times), runs=result["runs"],
                tail_percentile=tail_pct, wall_s=result["wall_s"],
                wall_jobs_per_s=result["runs"] / result["wall_s"],
            )
    except (RuntimeError, subprocess.TimeoutExpired, KeyError, ValueError) as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 1

    attempted, failed = result["attempted"], result["failed"]
    details.update(
        env=result["env"],
        error_rate=failed / attempted,
        failures=result["failures"],
    )
    for name, m in metrics.items():
        print(f"{args.workload} {name} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"{args.workload} error_rate = {failed}/{attempted}", file=sys.stderr)
    print(json.dumps(details))
    print(json.dumps(dict(correct=failed == 0, attempted=attempted, failed=failed, metrics=metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
