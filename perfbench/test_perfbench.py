"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench

They stay out of the repository's tier-1 run, whose pytest ``testpaths`` is
``tests/`` only.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import dressedcavity as dc  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _benchmark() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _run(cwd, *args, timeout=120) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=timeout,
    )


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_gives_same_inputs(name, tmp_path):
    first = workloads.make_workload(name, 11, str(tmp_path)).jobs
    assert first == workloads.make_workload(name, 11, str(tmp_path)).jobs
    assert first != workloads.make_workload(name, 12, str(tmp_path)).jobs


def test_freespace_couplings_fill_their_strata(tmp_path):
    jobs = workloads.make_workload("freespace_series", 4, str(tmp_path)).jobs
    weak = sorted(j["g"] for j in jobs if not j["strong"])
    strong = sorted(j["g"] for j in jobs if j["strong"])
    for values, lo, hi in ((weak, 0.05, 0.95), (strong, 1.2, 3.0)):
        width = (hi - lo) / len(values)
        assert [int((g - lo) // width) for g in values] == list(range(len(values)))


def test_metric_names_are_valid_and_match_the_code():
    bench = _benchmark()
    metrics = bench["end_to_end"] + bench["per_layer"]
    names = [m["name"] for m in metrics]
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)

    empty = dict(by_name={}, by_layer={}, cli_busy={}, job_s=0.0, jobs=0)
    produced = tracer.per_layer_metrics(empty, {}, 0.0)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, unit) for name, (_, unit) in produced.items()
    ]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)
    assert set(run.WORKLOADS) == set(workloads.WORKLOADS)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_one_job_per_workload_passes_its_gate(name, tmp_path):
    workload = workloads.make_workload(name, 3, str(tmp_path))
    assert workload.run(workload.jobs[0]) == []


def test_cli_gate_catches_changed_output(tmp_path):
    workload = workloads.make_workload("cli_reports", 3, str(tmp_path))
    job = workload.jobs[4]  # figure2, the cheapest command
    assert workload.run(job) == []
    workload.digests[job["slot"]] = "0" * 64
    assert workload.run(job) != []


def test_tracer_nests_spans_counts_work_and_restores():
    original = dc.evolution.amplitude_row
    p = dc.make_params(1.0, 0.5, delta=0.1, n_modes=40)
    spans = tracer.Tracer()
    spans.install()
    try:
        assert dc.bipartite.amplitude_row is not original
        spans.run_job(
            "check", dc.bipartite.entropy_time_independence_check,
            p, dc.EntangledStateConfig(xi=0.3), (0.0, 1.0),
        )
        spans.run_job("free", dc.freespace.freespace_f00_numeric, p, 1.0)
    finally:
        spans.uninstall()
    assert dc.evolution.amplitude_row is original
    assert dc.bipartite.amplitude_row is original

    names = [span[0] for span in spans.spans]
    check = names.index("bipartite.entropy_time_independence_check")
    children = {span[0] for span in spans.spans if span[1] == check}
    assert {"spectrum.solve_spectrum", "modes.build_matrix", "evolution.amplitude_row"} <= children
    assert "freespace.quad" in names

    own = spans.self_times()
    assert min(own) > -1e-9
    summary = spans.summary()
    job_self = sum(s for s, span in zip(own, spans.spans) if span[0] == "job")
    assert sum(summary["by_layer"].values()) + job_self == pytest.approx(summary["job_s"])
    assert spans.counts["spectrum.roots"] == 41
    assert spans.counts["modes.matrix_bytes"] == 8 * 41 * 41


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    assert run.tail([float(i) for i in range(21, 0, -1)]) == (11.0, 100.0 * 11 / 21)
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_run_prints_one_result_object(trace):
    proc = _run(ROOT, "--workload", "freespace_series", "--seed", "5", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    *_, details, last = proc.stdout.strip().splitlines()
    result = json.loads(last)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = "per_layer" if trace == "1" else "end_to_end"
    expected = {m["name"]: m["unit"] for m in _benchmark()[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    env = json.loads(details)
    assert {"git_sha", "nproc", "blas_threads", "env"} <= set(env)
    assert env["blas_threads"] <= env["nproc"]
    if trace == "0":
        # every distinct job ran at least once, and its fastest run is kept
        assert env["jobs"] == workloads.FreespaceSeries.n_jobs
        assert env["runs"] >= env["jobs"]


def test_run_fails_without_the_library_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "freespace_series", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
