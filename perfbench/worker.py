"""One workload in one process: set-up, then a timed or a traced phase.

    python3 perfbench/worker.py --workload W --seed N --seconds S --mode setup|timed|trace

Set-up is the library import, input generation and one untimed warm-up job.
``timed`` then runs the workload's distinct jobs round-robin, closed loop,
until ``--seconds`` have passed, and keeps each job's fastest run.
``trace`` runs a fixed number of cycles twice, untraced and traced in turn,
so its work counts repeat exactly for a seed.  The last line of output is
one JSON object; ``run.py`` reads it.
"""

from __future__ import annotations

import time

SETUP_START = time.perf_counter()  # before the library and numpy are imported

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")


def _attempt(workload, job) -> list[str]:
    # a failed job is counted, never raised past
    try:
        return workload.run(job)
    except Exception as exc:  # noqa: BLE001 - every failure is a counted failure
        return [f"{type(exc).__name__}: {exc}"]


class Loop:
    """Closed loop over a workload's jobs, in order, recording each job."""

    def __init__(self, workload):
        self.workload = workload
        self.next = 0
        self.times: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0

    def run_job(self, wrap=None) -> None:
        job = self.workload.jobs[self.next % len(self.workload.jobs)]
        self.next += 1
        start = time.perf_counter()
        if wrap is None:
            fails = _attempt(self.workload, job)
        else:
            fails = wrap(self.workload.label(job), _attempt, self.workload, job)
        self.times.append(time.perf_counter() - start)
        self.record(fails)

    def run_cycle(self, wrap=None) -> None:
        for _ in range(self.workload.cycle):
            self.run_job(wrap)

    def record(self, fails: list[str]) -> None:
        self.attempted += 1
        self.failed += bool(fails)
        self.failures.extend(fails)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    args = parser.parse_args(argv)

    sys.path.insert(0, SRC)
    import dressedcavity

    if os.path.dirname(os.path.abspath(dressedcavity.__file__)) != os.path.join(SRC, "dressedcavity"):
        print(f"error: dressedcavity imported from {dressedcavity.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import numpy
    import scipy

    import workloads

    out_dir = os.path.join(OUT, f"{args.workload}-{os.getpid()}")
    try:
        workload = workloads.make_workload(args.workload, args.seed, out_dir)
        warm = Loop(workload)
        warm.record(_attempt(workload, workload.jobs[0]))
        setup_s = time.perf_counter() - SETUP_START

        result = dict(
            setup_s=setup_s,
            env=dict(
                python=platform.python_version(),
                numpy=numpy.__version__,
                scipy=scipy.__version__,
            ),
        )
        loops = [warm]
        if args.mode == "timed":
            # The distinct jobs run round-robin, each at least once, until
            # --seconds have passed, and each job's fastest run is kept: on a
            # shared host, other tenants' load slows every job by half or
            # more for seconds to minutes, and would otherwise set the figures.
            loop = Loop(workload)
            n = len(workload.jobs)
            start = time.perf_counter()
            while loop.next < n or time.perf_counter() - start < args.seconds:
                loop.run_job()
            result.update(
                wall_s=time.perf_counter() - start,
                runs=len(loop.times),
                best_job_times=[min(loop.times[i::n]) for i in range(n)],
            )
            loops.append(loop)
        elif args.mode == "trace":
            import tracer

            # untraced and traced cycles alternate, so that drift in the
            # machine's speed does not show up as tracing overhead
            plain, traced, spans = Loop(workload), Loop(workload), tracer.Tracer()
            for _ in range(workload.trace_cycles):
                plain.run_cycle()
                spans.install()
                try:
                    traced.run_cycle(wrap=spans.run_job)
                finally:
                    spans.uninstall()
            overhead = statistics.median(traced.times) / statistics.median(plain.times) - 1.0
            trace_file = os.path.join(".bench_out", f"spans-{args.workload}.json")
            spans.write(os.path.join(ROOT, trace_file))
            result.update(
                per_layer=tracer.per_layer_metrics(spans.summary(), spans.counts, overhead),
                count_sources=tracer.COUNT_SOURCES,
                trace_file=trace_file,
            )
            loops += [plain, traced]
        result.update(
            # the warm-up job counts as attempted, so that its failure shows
            attempted=sum(loop.attempted for loop in loops),
            failed=sum(loop.failed for loop in loops),
            failures=[msg for loop in loops for msg in loop.failures][:5],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
