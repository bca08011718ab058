"""In-memory spans around the public functions of each ``dressedcavity`` layer.

``Tracer.install`` replaces every public function of the layer modules, and
the ``quad`` that ``freespace`` binds, in every module namespace of the
package that binds it, so calls made from inside the library get their own
spans too.  A span records its name, parent span, job, start and end; self
time is the duration minus the time its child spans cover.  Work counts are
taken at the same boundaries from argument and result sizes ("computed"), so
they repeat exactly for a given seed.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from collections import defaultdict

import numpy as np
import scipy.integrate

import dressedcavity

#: the package modules, one layer each, in pipeline order
LAYERS = ("params", "spectrum", "modes", "evolution", "freespace", "bipartite", "output", "cli")

CLI_COMMANDS = ("spectrum", "evolve", "figure1", "figure2", "convergence", "selftest")

# A per-cell CSV formatter, called once per value written (about 10^5 times
# for one matrix dump): a span per call would measure the tracer itself.
_UNTRACED = {"output.format_value"}


def _count_roots(counts, args, kwargs, result):
    counts["spectrum.roots"] += result.omegas.size
    counts["spectrum.max_residual"] = max(
        counts["spectrum.max_residual"], float(result.residuals.max())
    )


def _count_matrix(counts, args, kwargs, result):
    counts["modes.matrix_bytes"] += result.entries.nbytes  # 8 (N+1)^2
    counts["modes.max_orthogonalization_shift"] = max(
        counts["modes.max_orthogonalization_shift"], result.orthogonalization_shift
    )
    counts["modes.max_raw_orthogonality_defect"] = max(
        counts["modes.max_raw_orthogonality_defect"], result.raw_orthogonality_defect
    )


def _count_survival(counts, args, kwargs, result):
    matrix, spec, t = _bind(dressedcavity.evolution.survival_probability, args, kwargs)[:3]
    counts["evolution.mode_time_products"] += np.size(t) * spec.omegas.size


def _count_series(counts, args, kwargs, result):
    _, t, k_terms = _bind(dressedcavity.evolution.small_cavity_amplitude_first_order, args, kwargs)
    counts["evolution.mode_time_products"] += np.size(t) * k_terms


def _count_file(counts, args, kwargs, result):
    counts["output.bytes_written"] += os.path.getsize(args[0] if args else kwargs["path"])


_COUNTERS = {
    "spectrum.solve_spectrum": _count_roots,
    "modes.build_matrix": _count_matrix,
    "evolution.survival_probability": _count_survival,
    "evolution.small_cavity_amplitude_first_order": _count_series,
    "output.write_csv": _count_file,
    "output.svg_line_plot": _count_file,
}

#: where each work count comes from: array sizes ("computed") or the program
COUNT_SOURCES = {
    "spectrum.roots": "computed",
    "spectrum.max_residual": "reported by solve_spectrum",
    "modes.matrix_bytes": "computed",
    "modes.max_orthogonalization_shift": "reported by build_matrix",
    "modes.max_raw_orthogonality_defect": "reported by build_matrix",
    "evolution.mode_time_products": "computed",
    "freespace.quad.calls": "counted spans",
    "output.bytes_written": "file sizes",
}


def _bind(fn, args, kwargs) -> tuple:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return tuple(bound.arguments.values())


class Tracer:
    """Spans and counts of one traced run, kept in memory until written out."""

    def __init__(self):
        # span: [name, parent index or -1, job index, start, end]
        self.spans: list[list] = []
        self.jobs: list[str] = []  # label of each job, by job index
        self.counts: dict[str, float] = defaultdict(int)
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- spans

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, len(self.jobs) - 1, time.perf_counter(), 0.0])
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][4] = time.perf_counter()
        self._stack.pop()

    def run_job(self, label: str, fn, *args):
        """Run one job under a root span labelled with the job's kind."""
        self.jobs.append(label)
        index = self._open("job")
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                counter(self.counts, args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------- patching

    def install(self) -> None:
        """Wrap every traced function in every package namespace binding it."""
        targets = {}  # id(original) -> wrapper
        for layer in LAYERS:
            module = getattr(dressedcavity, layer)
            for attr, value in vars(module).items():
                name = f"{layer}.{attr}"
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and not attr.startswith("_")
                    and name not in _UNTRACED
                ):
                    targets[id(value)] = self._wrap(name, value)
        quad = scipy.integrate.quad
        targets[id(quad)] = self._wrap("freespace.quad", quad)

        namespaces = [dressedcavity] + [getattr(dressedcavity, m) for m in LAYERS]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    setattr(module, attr, targets[id(value)])
                    self._patched.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # ------------------------------------------------------------- analysis

    def self_times(self) -> list[float]:
        """Duration of each span minus the time its direct children cover."""
        own = [end - start for _, _, _, start, end in self.spans]
        for _, parent, _, start, end in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def summary(self) -> dict:
        """Per-name calls and self seconds; per-layer and per-job totals."""
        own = self.self_times()
        by_name: dict[str, dict] = defaultdict(lambda: dict(calls=0, self_s=0.0))
        by_layer: dict[str, float] = defaultdict(float)
        cli_busy: dict[str, float] = defaultdict(float)
        job_s = 0.0
        for (name, parent, job, start, end), self_s in zip(self.spans, own):
            if name == "job":
                job_s += end - start
                continue
            entry = by_name[name]
            entry["calls"] += 1
            entry["self_s"] += self_s
            by_layer[name.split(".", 1)[0]] += self_s
            if name == "cli.main":
                cli_busy[self.jobs[job]] += end - start
        return dict(
            by_name=by_name, by_layer=by_layer, cli_busy=cli_busy, job_s=job_s, jobs=len(self.jobs)
        )

    def write(self, path: str) -> None:
        """Write every span (name, parent, job, start, end) as one JSON file."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w") as fh:
            json.dump(dict(jobs=self.jobs, spans=self.spans), fh, separators=(",", ":"))


def per_layer_metrics(summary: dict, counts: dict, overhead_frac: float) -> dict:
    """Every per-layer metric of BENCHMARK.json, as {name: (value, unit)}."""
    by_name, by_layer = summary["by_name"], summary["by_layer"]
    job_s = summary["job_s"]
    out: dict[str, tuple[float, str]] = {}

    def calls(name):
        out[f"{name}.calls"] = (by_name[name]["calls"] if name in by_name else 0, "count")

    def self_s(name):
        out[f"{name}.self_s"] = (by_name[name]["self_s"] if name in by_name else 0.0, "s")

    def count(name, unit):
        out[name] = (counts.get(name, 0), unit)

    calls("spectrum.solve_spectrum")
    self_s("spectrum.solve_spectrum")
    count("spectrum.roots", "count")
    count("spectrum.max_residual", "omega")

    self_s("modes.assemble_raw_matrix")
    calls("modes.build_matrix")
    self_s("modes.build_matrix")
    count("modes.matrix_bytes", "bytes")
    count("modes.max_orthogonalization_shift", "ratio")
    count("modes.max_raw_orthogonality_defect", "ratio")

    for name in ("evolution.survival_probability", "evolution.amplitude_row"):
        calls(name)
        self_s(name)
    self_s("evolution.unitarity_defect")
    self_s("evolution.survival_probability_small_cavity_series")
    self_s("evolution.small_cavity_amplitude_first_order")
    count("evolution.mode_time_products", "count")

    for name in ("freespace.freespace_f00_numeric", "freespace.freespace_f00_closed"):
        calls(name)
        self_s(name)
    self_s("freespace.g_integral")
    self_s("freespace.freespace_survival_asymptotic")
    calls("freespace.quad")
    self_s("freespace.quad")

    for name in ("bipartite.impurity", "bipartite.von_neumann_entropy"):
        calls(name)
        self_s(name)
    self_s("bipartite.two_atom_reduced_density")
    self_s("bipartite.entropy_time_independence_check")

    calls("output.write_csv")
    self_s("output.write_csv")
    self_s("output.svg_line_plot")
    count("output.bytes_written", "bytes")

    for command in CLI_COMMANDS:
        out[f"cli.{command}.busy_s"] = (summary["cli_busy"].get(command, 0.0), "s")
    self_s("params.make_params")

    for layer in LAYERS:
        out[f"{layer}.self_s"] = (by_layer.get(layer, 0.0), "s")
        out[f"{layer}.self_share"] = (by_layer.get(layer, 0.0) / job_s if job_s else 0.0, "ratio")
    out["trace.jobs"] = (summary["jobs"], "count")
    out["trace.job_s"] = (job_s, "s")
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
