"""Print every end-to-end metric, with its unit, for every workload.

    python3 perfbench/report.py [--seed N] [--seconds S]

Runs ``run.py`` once per workload, each in its own processes, and prints one
row per workload.  ``error_rate`` is the jobs that raised or failed their
correctness gate over the jobs attempted; ``run.py`` reports the two counts
as ``failed`` and ``attempted``.  Exits 1 if a run or a job failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from run import END_TO_END, ROOT, WORKLOADS  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    args = parser.parse_args(argv)

    columns = [f"{name} ({unit})" for name, unit in END_TO_END] + ["error_rate (ratio)"]
    print(" ".join([f"{'workload':<18}"] + [f"{c:>20}" for c in columns]))
    status = 0
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload:<18} run failed with exit code {proc.returncode}")
            status = 1
            continue
        result = json.loads(lines[-1])
        values = [result["metrics"][name]["value"] for name, _ in END_TO_END]
        values.append(result["failed"] / result["attempted"])
        status |= result["failed"] > 0
        print(" ".join([f"{workload:<18}"] + [f"{v:>20.6g}" for v in values]))
    return status


if __name__ == "__main__":
    sys.exit(main())
